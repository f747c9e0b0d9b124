// In-process simulated link implementing MessageSink/MessageSource.
//
// Stand-in for the paper's tc/qdisc network emulation: messages become
// visible to the receiver only after one-way latency (RTT/2) plus
// serialization time (bytes / bandwidth), with injectable latency spikes
// and seeded drops. The link enforces the same HWM blocking-send
// semantics as the TCP transport, so the EMLIO daemon behaves identically
// over both. Time here is *real* (the channel sleeps), so tests use
// millisecond-scale latencies; the discrete-event simulator in src/sim
// handles the paper-scale 10–30 ms RTT experiments in virtual time.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/clock.h"
#include "net/channel.h"

namespace emlio::net {

struct SimLinkConfig {
  double rtt_ms = 0.0;                     ///< round-trip time; one-way = rtt/2
  double bandwidth_bytes_per_sec = 1.25e9; ///< 10 Gbps default
  std::size_t high_water_mark = 16;        ///< in-flight message cap (HWM)
  std::uint64_t seed = 42;                 ///< set_drop_probability's RNG seed
};

/// Handle for fault injection while a channel is live. All methods are safe
/// to call from a chaos-script thread while the daemon/receiver are using
/// the channel; the MessageSink/Source contracts are unchanged — faults only
/// surface as the behaviors those contracts already allow (failed sends, an
/// ended stream, delayed or missing messages).
class SimLinkControl {
 public:
  virtual ~SimLinkControl() = default;
  /// Add a fixed latency penalty to every message sent from now on
  /// (models a congestion episode). Additive with config latency.
  virtual void set_extra_latency_ms(double ms) = 0;
  /// One-shot latency spike: the NEXT message sent pays an extra `ms` on
  /// top of everything else, then the spike auto-clears (models a single
  /// stalled packet / GC pause in the path).
  virtual void spike_next_ms(double ms) = 0;
  /// Cut the link, emulating a crashed peer: in-flight messages are
  /// discarded (counted in messages_dropped()), subsequent send()s fail,
  /// and the receiver's recv() returns nullopt with end_state() ==
  /// SourceEnd::kDeadPeer.
  virtual void sever() = 0;
  /// Heal a severed link: send()/recv() work again (a fresh recv() call
  /// resumes the stream; messages lost while severed stay lost).
  virtual void restore() = 0;
  /// Drop each subsequent message with probability `p` (deterministic under
  /// the config seed). A dropped message vanishes silently: send() still
  /// returns true, the receiver never sees it — the lossy-link case epoch
  /// repair has to survive.
  virtual void set_drop_probability(double p) = 0;
  /// Messages lost to set_drop_probability() drops and sever() discards.
  virtual std::uint64_t messages_dropped() const = 0;
  /// Total bytes that have entered the link.
  virtual std::uint64_t bytes_sent() const = 0;
};

struct SimChannel {
  std::unique_ptr<MessageSink> sink;
  std::unique_ptr<MessageSource> source;
  std::shared_ptr<SimLinkControl> control;
};

/// Create a connected simulated channel.
SimChannel make_sim_channel(const SimLinkConfig& config);

}  // namespace emlio::net
