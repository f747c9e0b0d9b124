// Engine threads name themselves, so /proc/self/task/*/comm, `top -H` and
// any profiler can tell the roles apart: emlio-ingest<i> (receiver),
// emlio-pool<i> (the daemon's encode pool), emlio-send<node> (daemon senders),
// emlio-accept / emlio-read<i> (PullSocket), emlio-mon-* (energy monitor),
// emlio-index<i> (tfrecord::load_all_indexes' helpers).
#pragma once

#include <pthread.h>

#include <string>

namespace emlio {

/// Name the calling thread. Linux keeps 15 characters; a longer name is cut
/// to its first 15.
inline void set_thread_name(const std::string& name) {
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
}

}  // namespace emlio
