// Tests for the transport layer: framing, TCP push/pull with HWM
// backpressure, the latency-injected in-process channel, and the
// shared-memory slab-ring transport — plus one conformance suite that runs
// the MessageSink/MessageSource contract against all three backends.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <numeric>
#include <random>
#include <thread>

#include "common/clock.h"
#include "msgpack/batch_codec.h"
#include "net/framing.h"
#include "net/push_pull.h"
#include "net/reconnect.h"
#include "net/retry.h"
#include "net/shm_channel.h"
#include "net/shm_segment.h"
#include "net/sim_channel.h"
#include "net/socket.h"

namespace emlio::net {
namespace {

std::vector<std::uint8_t> msg(std::initializer_list<std::uint8_t> bytes) { return bytes; }

/// Unique shm names so parallel test processes and repeated runs never
/// collide on /dev/shm entries.
std::string unique_shm_name() {
  static std::atomic<int> counter{0};
  return "emlio.test." + std::to_string(static_cast<unsigned long>(::getpid())) + "." +
         std::to_string(counter.fetch_add(1));
}

TEST(Socket, ListenerPicksEphemeralPort) {
  TcpListener listener(0);
  EXPECT_GT(listener.port(), 0);
}

TEST(Socket, ConnectSendRecv) {
  TcpListener listener(0);
  std::thread server([&] {
    auto conn = listener.accept();
    ASSERT_TRUE(conn.has_value());
    std::vector<std::uint8_t> buf(5);
    ASSERT_TRUE(conn->recv_all(buf));
    conn->send_all(buf);
  });
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  auto hello = msg({1, 2, 3, 4, 5});
  client.send_all(hello);
  std::vector<std::uint8_t> echo(5);
  ASSERT_TRUE(client.recv_all(echo));
  EXPECT_EQ(echo, hello);
  server.join();
}

TEST(Socket, ConnectResolvesHostnames) {
  // connect() must accept hostnames, not only IPv4 literals — the daemon's
  // --connect flag takes "storage-node:port" in real deployments. localhost
  // resolves everywhere and must reach the loopback listener.
  TcpListener listener(0);
  std::thread server([&] {
    auto conn = listener.accept();
    ASSERT_TRUE(conn.has_value());
    std::vector<std::uint8_t> buf(3);
    ASSERT_TRUE(conn->recv_all(buf));
    conn->send_all(buf);
  });
  auto client = TcpStream::connect("localhost", listener.port());
  auto hello = msg({42, 43, 44});
  client.send_all(hello);
  std::vector<std::uint8_t> echo(3);
  ASSERT_TRUE(client.recv_all(echo));
  EXPECT_EQ(echo, hello);
  server.join();
}

TEST(Socket, ConnectRefusedThrows) {
  // Port 1 on loopback is almost certainly closed.
  EXPECT_THROW(TcpStream::connect("127.0.0.1", 1), std::runtime_error);
}

TEST(Socket, UnresolvableHostThrows) {
  EXPECT_THROW(TcpStream::connect("no-such-host.invalid.", 80), std::runtime_error);
}

TEST(Socket, CleanEofReturnsFalse) {
  TcpListener listener(0);
  std::thread server([&] {
    auto conn = listener.accept();
    conn->shutdown_send();
  });
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  std::vector<std::uint8_t> buf(4);
  EXPECT_FALSE(client.recv_all(buf));
  server.join();
}

TEST(Framing, RoundTripOverTcp) {
  TcpListener listener(0);
  std::thread server([&] {
    auto conn = listener.accept();
    auto frame = recv_frame(*conn);
    ASSERT_TRUE(frame.has_value());
    send_frame(*conn, *frame);
  });
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  auto payload = msg({9, 8, 7});
  send_frame(client, payload);
  auto back = recv_frame(client);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
  server.join();
}

TEST(Framing, EmptyPayloadAllowed) {
  TcpListener listener(0);
  std::thread server([&] {
    auto conn = listener.accept();
    send_frame(*conn, {});
  });
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  auto frame = recv_frame(client);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->empty());
  server.join();
}

TEST(Framing, PooledReceiveBufferIsRecycledWithoutZeroFill) {
  // recv_frame reads into pooled storage of exactly the frame's length and
  // does not zero it first: a recycled buffer comes back still holding the
  // last frame's bytes, until the next read overwrites every one of them.
  auto pool = BufferPool::create(4);
  TcpListener listener(0);
  std::thread server([&] {
    auto conn = listener.accept();
    send_frame(*conn, std::vector<std::uint8_t>(4096, 0xAB));
    send_frame(*conn, std::vector<std::uint8_t>(4096, 0xCD));
  });
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  const std::uint8_t* storage = nullptr;
  {
    auto first = recv_frame(client, pool.get());
    ASSERT_TRUE(first.has_value());
    storage = first->data();
  }  // dropped: the buffer returns to the pool
  {
    ByteBuffer recycled = pool->acquire_for_overwrite(4096);
    EXPECT_EQ(recycled.data(), storage);
    EXPECT_EQ(std::count(recycled.data(), recycled.data() + 4096, 0xAB), 4096);
    pool->seal(std::move(recycled));  // and back again
  }
  auto second = recv_frame(client, pool.get());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->data(), storage);
  EXPECT_EQ(*second, std::vector<std::uint8_t>(4096, 0xCD));
  server.join();
}

TEST(Framing, MultiMiBSplicedFrameSurvivesPartialWrites) {
  // A frame the kernel takes in pieces: small socket buffers, a slow reader,
  // and signals that interrupt the blocked sendmsg (the handler has no
  // SA_RESTART, so each interrupted call returns a short count). The sender
  // must resume inside whichever piece each short write ended in.
  struct sigaction quiet {};
  struct sigaction previous {};
  quiet.sa_handler = [](int) {};
  sigemptyset(&quiet.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR1, &quiet, &previous), 0);

  msgpack::WireBatch batch;
  for (std::uint64_t i = 0; i < 3; ++i) {
    std::vector<std::uint8_t> sample(2u << 20);
    std::iota(sample.begin(), sample.end(), static_cast<std::uint8_t>(17 * i));
    batch.samples.push_back({.index = i, .label = 0, .bytes = std::move(sample)});
  }
  batch.samples.push_back({.index = 3, .label = 1, .bytes = std::vector<std::uint8_t>(100, 3)});
  auto pool = BufferPool::create();
  const SplicedPayload message = msgpack::BatchCodec::encode_spliced(batch, *pool);
  ASSERT_EQ(message.splices().size(), 3u);
  const Payload contiguous = msgpack::BatchCodec::encode(batch);

  TcpListener listener(0);
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  auto server = listener.accept();
  ASSERT_TRUE(server.has_value());
  const int small = 64 * 1024;
  ::setsockopt(client.native_handle(), SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
  ::setsockopt(server->native_handle(), SOL_SOCKET, SO_RCVBUF, &small, sizeof small);

  std::atomic<bool> sent{false};
  std::size_t syscalls = 0;
  std::thread sender([&] {
    std::vector<iovec> iov;
    syscalls = send_frame(client, message, iov);
    sent = true;
  });
  std::thread interrupter([&, target = sender.native_handle()] {
    while (!sent) {
      ::pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::uint8_t> got(kFrameHeaderBytes + contiguous.size());
  std::size_t have = 0;
  while (have < got.size()) {
    const ssize_t n = ::recv(server->native_handle(), got.data() + have,
                             std::min<std::size_t>(16 * 1024, got.size() - have), 0);
    if (n <= 0) break;
    have += static_cast<std::size_t>(n);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  interrupter.join();  // before the sender: its handle must stay valid
  sender.join();
  ::sigaction(SIGUSR1, &previous, nullptr);

  ASSERT_EQ(have, got.size());
  EXPECT_EQ(parse_frame_header(got), contiguous.size());
  EXPECT_TRUE(std::equal(got.begin() + kFrameHeaderBytes, got.end(), contiguous.data()));
  EXPECT_GE(syscalls, 2u);
}

TEST(Framing, BadMagicRejected) {
  TcpListener listener(0);
  std::thread server([&] {
    auto conn = listener.accept();
    std::uint8_t junk[8] = {0, 1, 2, 3, 4, 0, 0, 0};
    conn->send_all(junk);
  });
  auto client = TcpStream::connect("127.0.0.1", listener.port());
  EXPECT_THROW(recv_frame(client), std::runtime_error);
  server.join();
}

TEST(PushPull, MultiStreamDeliversAll) {
  PullSocket pull(0, 64);
  PushPullOptions opts;
  opts.num_streams = 4;
  PushSocket push("127.0.0.1", pull.port(), opts);
  EXPECT_EQ(push.num_streams(), 4u);
  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(push.send(msg({static_cast<std::uint8_t>(i % 256)})));
  }
  push.close();
  std::multiset<int> got;
  for (int i = 0; i < kCount; ++i) {
    auto m = pull.recv();
    ASSERT_TRUE(m.has_value());
    got.insert((*m)[0]);
  }
  std::multiset<int> want;
  for (int i = 0; i < kCount; ++i) want.insert(i % 256);
  EXPECT_EQ(got, want);
}

TEST(PushPull, MultipleSendersOnePuller) {
  PullSocket pull(0, 64);
  auto send_n = [&](int n, std::uint8_t tag) {
    PushSocket push("127.0.0.1", pull.port());
    for (int i = 0; i < n; ++i) ASSERT_TRUE(push.send(msg({tag})));
    push.close();
  };
  std::thread a([&] { send_n(30, 1); });
  std::thread b([&] { send_n(30, 2); });
  int ones = 0, twos = 0;
  for (int i = 0; i < 60; ++i) {
    auto m = pull.recv();
    ASSERT_TRUE(m.has_value());
    ((*m)[0] == 1 ? ones : twos)++;
  }
  a.join();
  b.join();
  EXPECT_EQ(ones, 30);
  EXPECT_EQ(twos, 30);
}

TEST(PushPull, LargeMessageIntegrity) {
  PullSocket pull(0, 4);
  PushSocket push("127.0.0.1", pull.port());
  std::vector<std::uint8_t> big(3 * 1024 * 1024);
  std::iota(big.begin(), big.end(), 0);
  // send() consumes its payload; keeping `big` for the comparison below
  // requires an explicit (counted) copy — there are no silent ones.
  ASSERT_TRUE(push.send(Payload::copy_of(big)));
  auto m = pull.recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, big);
}

TEST(PushPull, ReceiveBuffersRecycleThroughPool) {
  PullSocket pull(0, 8);
  PushSocket push("127.0.0.1", pull.port());
  constexpr int kCount = 32;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(push.send(std::vector<std::uint8_t>(16 * 1024, static_cast<std::uint8_t>(i))));
  }
  for (int i = 0; i < kCount; ++i) {
    auto m = pull.recv();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ((*m)[0], static_cast<std::uint8_t>(i));
  }  // each payload dropped here → its buffer returns to the pull pool
  push.close();
  auto stats = pull.pool_stats();
  EXPECT_EQ(stats.reused + stats.allocated, static_cast<std::uint64_t>(kCount));
  // The queue bounds how many buffers can be in flight, so most receives
  // must have reused recycled storage instead of allocating.
  EXPECT_GT(stats.reused, 0u);
  EXPECT_LE(stats.allocated, 8u + 8u + 1u);  // ≤ queue depth + pool slack
}

TEST(PushPull, DataSyscallAuditCountsOneWritePerFrame) {
  // The framing sender coalesces header + payload into a single
  // scatter-gather sendmsg, so the audited data-syscall count is ~1 per
  // message (partial writes can add a few for huge frames, never for tiny
  // ones that fit a socket buffer in one shot).
  PullSocket pull(0, 64);
  PushPullOptions opts;
  opts.num_streams = 1;
  PushSocket push("127.0.0.1", pull.port(), opts);
  constexpr std::uint64_t kCount = 40;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(push.send(msg({static_cast<std::uint8_t>(i)})));
  }
  for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_TRUE(pull.recv().has_value());
  push.close();
  EXPECT_EQ(push.messages_sent(), kCount);
  EXPECT_EQ(push.data_syscalls(), kCount);  // exactly one sendmsg per tiny frame
}

TEST(PushPull, SplicedFrameBeyondIovMaxArrivesIntact) {
  // 1,100 spliced samples make a frame of 2,202 gather pieces — more than
  // IOV_MAX (1,024) — so it takes several sendmsg calls, and the bytes
  // must still arrive exactly as the contiguous encoding.
  msgpack::WireBatch batch;
  for (std::uint64_t i = 0; i < 1100; ++i) {
    batch.samples.push_back({.index = i,
                             .label = static_cast<std::int64_t>(i % 3),
                             .bytes = std::vector<std::uint8_t>(40 + i % 7,
                                                                static_cast<std::uint8_t>(i))});
  }
  auto pool = BufferPool::create();
  SplicedPayload spliced = msgpack::detail::encode_spliced(batch, *pool, /*splice_min=*/1);
  ASSERT_EQ(spliced.splices().size(), 1100u);
  const Payload contiguous = msgpack::BatchCodec::encode(batch);

  PullSocket pull(0, 4);
  PushSocket push("127.0.0.1", pull.port());
  ASSERT_TRUE(push.send_spliced(std::move(spliced)));
  auto m = pull.recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, contiguous.view());
  push.close();  // joins the sender, so its syscall count is final
  EXPECT_GE(push.data_syscalls(), 2u);
}

// ---------------------------------------------------------------- sim link

TEST(SimChannel, ZeroCopyHandoff) {
  // The in-process link moves the Payload handle end to end: the receiver
  // observes the very same buffer the sender enqueued.
  auto ch = make_sim_channel({});
  Payload original(std::vector<std::uint8_t>{7, 8, 9});
  const std::uint8_t* sent_ptr = original.data();
  ch.sink->send(std::move(original));
  auto m = ch.source->recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->data(), sent_ptr);
  const std::vector<std::uint8_t> want{7, 8, 9};
  EXPECT_EQ(*m, want);
}

TEST(SimChannel, InjectsOneWayLatency) {
  SimLinkConfig cfg;
  cfg.rtt_ms = 40.0;  // one-way 20 ms
  auto ch = make_sim_channel(cfg);
  auto start = SteadyClock::instance().now();
  ch.sink->send(msg({1}));
  auto m = ch.source->recv();
  auto elapsed = SteadyClock::instance().now() - start;
  ASSERT_TRUE(m.has_value());
  EXPECT_GE(elapsed, from_millis(18.0));
}

TEST(SimChannel, BandwidthPacesLargeTransfers) {
  SimLinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 10e6;  // 10 MB/s
  auto ch = make_sim_channel(cfg);
  auto start = SteadyClock::instance().now();
  ch.sink->send(std::vector<std::uint8_t>(500000, 1));  // 0.5 MB → ≥50 ms
  ch.source->recv();
  auto elapsed = SteadyClock::instance().now() - start;
  EXPECT_GE(elapsed, from_millis(45.0));
}

TEST(SimChannel, LatencySpikeInjection) {
  SimLinkConfig cfg;
  auto ch = make_sim_channel(cfg);
  ch.control->set_extra_latency_ms(30.0);
  auto start = SteadyClock::instance().now();
  ch.sink->send(msg({1}));
  ch.source->recv();
  EXPECT_GE(SteadyClock::instance().now() - start, from_millis(25.0));
  EXPECT_EQ(ch.control->bytes_sent(), 1u);
}

// ------------------------------------------------------ fault injection

TEST(SimChannel, SeverDropsInFlightAndEndsStreamAsDeadPeer) {
  auto ch = make_sim_channel({});
  ch.sink->send(msg({1}));
  ch.sink->send(msg({2}));
  ch.control->sever();
  EXPECT_EQ(ch.control->messages_dropped(), 2u);  // in-flight discarded
  EXPECT_FALSE(ch.source->recv().has_value());
  EXPECT_EQ(ch.source->end_state(), SourceEnd::kDeadPeer);
  EXPECT_FALSE(ch.sink->send(msg({3})));  // sends fail while severed
}

TEST(SimChannel, RestoreRevivesSeveredLink) {
  auto ch = make_sim_channel({});
  ch.control->sever();
  EXPECT_FALSE(ch.sink->send(msg({1})));
  ch.control->restore();
  EXPECT_TRUE(ch.sink->send(msg({2})));
  auto m = ch.source->recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->size(), 1u);
  EXPECT_EQ((*m)[0], 2u);
  EXPECT_EQ(ch.source->end_state(), SourceEnd::kClean);
}

TEST(SimChannel, ProbabilisticDropIsSilentSeededAndCounted) {
  SimLinkConfig cfg;
  cfg.seed = 7;
  cfg.high_water_mark = 128;  // nobody drains concurrently — don't block at HWM
  auto ch = make_sim_channel(cfg);
  ch.control->set_drop_probability(0.5);
  constexpr int kSends = 64;
  for (int i = 0; i < kSends; ++i) {
    EXPECT_TRUE(ch.sink->send(msg({1})));  // a lossy link still accepts
  }
  ch.sink->close();
  int received = 0;
  while (ch.source->recv()) ++received;
  const auto dropped = ch.control->messages_dropped();
  EXPECT_EQ(static_cast<std::uint64_t>(received) + dropped, kSends);
  // p=0.5 over 64 trials: both outcomes must actually occur.
  EXPECT_GE(dropped, 1u);
  EXPECT_GE(received, 1);
}

TEST(SimChannel, SpikeNextDelaysExactlyOneMessage) {
  auto ch = make_sim_channel({});
  ch.control->spike_next_ms(40.0);
  auto t0 = SteadyClock::instance().now();
  ch.sink->send(msg({1}));  // pays the spike
  ch.sink->send(msg({2}));  // does not
  ch.source->recv();
  EXPECT_GE(SteadyClock::instance().now() - t0, from_millis(35.0));
  auto t1 = SteadyClock::instance().now();
  ch.source->recv();
  EXPECT_LT(SteadyClock::instance().now() - t1, from_millis(30.0));
}

// ------------------------------------------------------------ retry policy

TEST(RetryPolicy, FailFastDefaultGrantsNoRetry) {
  RetryPolicy p{RetryOptions{}};  // max_attempts = 1: the historical throw
  EXPECT_FALSE(p.next_delay().has_value());
  EXPECT_EQ(p.attempts(), 1u);
}

TEST(RetryPolicy, BackoffGrowsGeometricallyAndClampsAtCeiling) {
  RetryOptions o;
  o.max_attempts = 6;
  o.initial_backoff = std::chrono::milliseconds(10);
  o.max_backoff = std::chrono::milliseconds(40);
  o.multiplier = 2.0;
  o.jitter = 0.0;
  RetryPolicy p(o);
  std::vector<long long> delays;
  while (auto d = p.next_delay()) delays.push_back(d->count());
  // 6 total attempts = 5 waits between them.
  ASSERT_EQ(delays.size(), 5u);
  EXPECT_EQ(delays, (std::vector<long long>{10, 20, 40, 40, 40}));
}

TEST(RetryPolicy, DeadlineTripsOnVirtualElapsedWithoutSleeping) {
  // The deadline charges the sum of granted delays, so walking the schedule
  // without sleeping still exhausts the window — and the final delay is
  // clipped to the remaining budget rather than overshooting.
  RetryOptions o;
  o.max_attempts = 0;  // unlimited attempts: only the deadline ends this
  o.initial_backoff = std::chrono::milliseconds(30);
  o.multiplier = 1.0;
  o.jitter = 0.0;
  o.deadline = std::chrono::milliseconds(100);
  RetryPolicy p(o);
  std::vector<long long> delays;
  while (auto d = p.next_delay()) delays.push_back(d->count());
  ASSERT_EQ(delays.size(), 4u);
  EXPECT_EQ(delays, (std::vector<long long>{30, 30, 30, 10}));
}

TEST(RetryPolicy, JitterIsDeterministicUnderSeed) {
  RetryOptions o;
  o.max_attempts = 8;
  o.initial_backoff = std::chrono::milliseconds(100);
  o.max_backoff = std::chrono::milliseconds(100000);
  o.jitter = 0.5;
  auto walk = [](const RetryOptions& opts) {
    RetryPolicy p(opts);
    std::vector<long long> out;
    while (auto d = p.next_delay()) out.push_back(d->count());
    return out;
  };
  auto a = walk(o), b = walk(o);
  EXPECT_EQ(a, b);  // same seed: identical schedule (tests/chaos rely on it)
  auto other = o;
  other.seed = o.seed + 1;
  EXPECT_NE(a, walk(other));
  // And every jittered delay stays inside [1-j, 1+j] of its base.
  long long base = 100;
  for (auto d : a) {
    EXPECT_GE(d, static_cast<long long>(base * 0.5 - 1));
    EXPECT_LE(d, static_cast<long long>(base * 1.5 + 1));
    base *= 2;
  }
}

// ------------------------------------------------------ reconnecting source

TEST(ReconnectingSource, SurvivesOutageAndResumesOnNewSource) {
  auto ch1 = make_sim_channel({});
  auto ch2 = make_sim_channel({});
  ch1.sink->send(msg({1}));
  ch2.sink->send(msg({2}));

  int downs = 0, ups = 0, factory_calls = 0;
  RetryOptions ro;
  ro.max_attempts = 0;
  ro.initial_backoff = std::chrono::milliseconds(1);
  ro.jitter = 0.0;
  ro.deadline = std::chrono::milliseconds(2000);
  ReconnectEvents ev;
  ev.on_down = [&] { ++downs; };
  ev.on_up = [&] { ++ups; };
  auto factory = [&]() -> std::unique_ptr<MessageSource> {
    if (++factory_calls == 1) throw std::runtime_error("peer still down");
    return std::move(ch2.source);
  };
  ReconnectingSource src(std::move(ch1.source), factory, ro, ev);

  auto m1 = src.recv();
  ASSERT_TRUE(m1.has_value());
  EXPECT_EQ((*m1)[0], 1u);
  ch1.control->sever();  // the peer "crashes"
  auto m2 = src.recv();  // outage weathered inside this call
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ((*m2)[0], 2u);
  EXPECT_EQ(downs, 1);
  EXPECT_EQ(ups, 1);
  EXPECT_EQ(factory_calls, 2);
  EXPECT_EQ(src.reconnects(), 1u);

  ch2.sink->close();  // deliberate close on the NEW stream ends cleanly
  EXPECT_FALSE(src.recv().has_value());
  EXPECT_EQ(src.end_state(), SourceEnd::kClean);
}

TEST(ReconnectingSource, ExhaustedBudgetEndsStreamAsDeadPeer) {
  auto ch = make_sim_channel({});
  ch.control->sever();
  int downs = 0;
  RetryOptions ro;
  ro.max_attempts = 3;
  ro.initial_backoff = std::chrono::milliseconds(1);
  ro.jitter = 0.0;
  ReconnectEvents ev;
  ev.on_down = [&] { ++downs; };
  ReconnectingSource src(
      std::move(ch.source),
      []() -> std::unique_ptr<MessageSource> { throw std::runtime_error("still down"); }, ro,
      ev);
  EXPECT_FALSE(src.recv().has_value());
  EXPECT_EQ(src.end_state(), SourceEnd::kDeadPeer);  // for the receiver to repair
  EXPECT_EQ(downs, 1);
  EXPECT_EQ(src.reconnects(), 0u);
}

TEST(ReconnectingSource, CleanEndPassesThroughWithoutReconnect) {
  auto ch = make_sim_channel({});
  ch.sink->send(msg({9}));
  ch.sink->close();
  int factory_calls = 0;
  ReconnectingSource src(
      std::move(ch.source),
      [&]() -> std::unique_ptr<MessageSource> {
        ++factory_calls;
        return nullptr;
      },
      RetryOptions{});
  EXPECT_TRUE(src.recv().has_value());
  EXPECT_FALSE(src.recv().has_value());
  EXPECT_EQ(src.end_state(), SourceEnd::kClean);
  EXPECT_EQ(factory_calls, 0);  // an orderly shutdown is never second-guessed
}

// -------------------------------------------- transport conformance suite
//
// Every transport behind MessageSink/MessageSource must honor the same
// contract: in-order byte-identical delivery, "sink close ends the stream
// after a full drain", close-unblocks-peer in both directions, and HWM
// backpressure. One parameterized suite replaces the per-backend copies so
// a new transport buys the whole battery with a three-line factory.

struct TransportPair {
  // Declaration order matters: the sink is destroyed FIRST (declared last),
  // so a TCP source's reader threads see the sender hang up before the
  // source joins them — the same order the stack-variable tests above get
  // for free from reverse destruction.
  std::unique_ptr<MessageSource> source;
  std::shared_ptr<MessageSink> sink;
};

struct TransportParam {
  const char* name;
  /// hwm = in-flight message budget; max_message = largest payload the test
  /// will send (shm sizes its slabs from it, others ignore it).
  TransportPair (*make)(std::size_t hwm, std::size_t max_message);
};

TransportPair make_tcp_pair(std::size_t hwm, std::size_t /*max_message*/) {
  // One sender, known to the receiver up front (expected_senders) — sender
  // close then ends the pull stream after drain, same as the other lanes.
  struct OwningPullSource final : MessageSource {
    explicit OwningPullSource(std::unique_ptr<PullSocket> s) : socket(std::move(s)) {}
    std::optional<Payload> recv() override { return socket->recv(); }
    void close() override { socket->close(); }
    std::unique_ptr<PullSocket> socket;
  };
  auto pull = std::make_unique<PullSocket>(0, /*queue_capacity=*/hwm, /*expected_senders=*/1);
  PushPullOptions opts;
  opts.high_water_mark = hwm;
  opts.num_streams = 1;  // order-preserving configuration
  auto push = std::make_shared<PushSocket>("127.0.0.1", pull->port(), opts);
  return {.source = std::make_unique<OwningPullSource>(std::move(pull)), .sink = std::move(push)};
}

TransportPair make_sim_pair(std::size_t hwm, std::size_t /*max_message*/) {
  SimLinkConfig cfg;
  cfg.high_water_mark = hwm;
  auto ch = make_sim_channel(cfg);
  return {.source = std::move(ch.source), .sink = std::shared_ptr<MessageSink>(std::move(ch.sink))};
}

TransportPair make_shm_pair(std::size_t hwm, std::size_t max_message) {
  ShmOptions opts;
  opts.slab_count = hwm;  // the slab pool IS the HWM
  opts.slab_bytes = std::max<std::size_t>(max_message, 4096);
  auto name = unique_shm_name();
  auto sink = std::make_shared<ShmMessageSink>(name, opts);
  auto source = std::make_unique<ShmMessageSource>(name);
  return {.source = std::move(source), .sink = std::move(sink)};
}

class TransportConformance : public ::testing::TestWithParam<TransportParam> {};

TEST_P(TransportConformance, DeliversByteIdenticalInOrder) {
  auto pair = GetParam().make(/*hwm=*/16, /*max_message=*/64 * 1024);
  constexpr int kCount = 50;
  std::vector<std::vector<std::uint8_t>> sent;
  std::mt19937 rng(7);
  for (int i = 0; i < kCount; ++i) {
    // Sizes sweep 1 B … ~48 KiB including repeats, contents pseudo-random.
    std::vector<std::uint8_t> m(1 + (static_cast<std::size_t>(i) * 977) % (48 * 1024));
    for (auto& b : m) b = static_cast<std::uint8_t>(rng());
    sent.push_back(std::move(m));
  }
  std::thread producer([&] {
    for (const auto& m : sent) EXPECT_TRUE(pair.sink->send(Payload::copy_of(m)));
    pair.sink->close();
  });
  for (int i = 0; i < kCount; ++i) {
    auto got = pair.source->recv();
    ASSERT_TRUE(got.has_value()) << "message " << i;
    EXPECT_EQ(*got, sent[static_cast<std::size_t>(i)]) << "message " << i;
  }
  EXPECT_FALSE(pair.source->recv().has_value());
  producer.join();
}

TEST_P(TransportConformance, SinkCloseEndsStreamAfterDrain) {
  auto pair = GetParam().make(/*hwm=*/8, /*max_message=*/4096);
  for (std::uint8_t i = 0; i < 3; ++i) EXPECT_TRUE(pair.sink->send(msg({i})));
  pair.sink->close();
  for (std::uint8_t i = 0; i < 3; ++i) {
    auto m = pair.source->recv();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ((*m)[0], i);  // close drains, it does not drop
  }
  EXPECT_FALSE(pair.source->recv().has_value());
  EXPECT_FALSE(pair.source->recv().has_value());  // and stays ended
  EXPECT_FALSE(pair.sink->send(msg({9})));        // send after close fails
}

TEST_P(TransportConformance, SentinelArrivesLastAndIntact) {
  // The daemon's end-of-epoch sentinel is just another message: FIFO means
  // it must arrive after every data batch sent before it, byte-intact.
  auto pair = GetParam().make(/*hwm=*/8, /*max_message=*/4096);
  constexpr std::uint8_t kBatches = 20;
  // Produce from a thread: 21 messages exceed the HWM, so a single-threaded
  // send loop would block on its own backpressure.
  std::thread producer([&] {
    for (std::uint8_t i = 0; i < kBatches; ++i) EXPECT_TRUE(pair.sink->send(msg({0x10, i})));
    EXPECT_TRUE(pair.sink->send(msg({0xEE, 0xDD})));  // the "epoch done" marker
    pair.sink->close();
  });
  for (std::uint8_t i = 0; i < kBatches; ++i) {
    auto m = pair.source->recv();
    ASSERT_TRUE(m.has_value());
    ASSERT_EQ(m->size(), 2u);
    EXPECT_EQ((*m)[0], 0x10);
    EXPECT_EQ((*m)[1], i);
  }
  auto sentinel = pair.source->recv();
  ASSERT_TRUE(sentinel.has_value());
  ASSERT_EQ(sentinel->size(), 2u);
  EXPECT_EQ((*sentinel)[0], 0xEE);
  EXPECT_FALSE(pair.source->recv().has_value());
  producer.join();
}

TEST_P(TransportConformance, CloseWhileReceiverBlockedUnblocksCleanly) {
  auto pair = GetParam().make(/*hwm=*/4, /*max_message=*/4096);
  std::atomic<bool> got_end{false};
  std::thread consumer([&] {
    EXPECT_FALSE(pair.source->recv().has_value());  // blocks until the close
    got_end = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(got_end.load());  // genuinely blocked, not spinning on empty
  pair.sink->close();
  consumer.join();
  EXPECT_TRUE(got_end.load());
}

TEST_P(TransportConformance, ReceiverCloseUnblocksBlockedSender) {
  auto pair = GetParam().make(/*hwm=*/1, /*max_message=*/1024 * 1024);
  std::atomic<int> sent{0};
  std::atomic<bool> done{false};
  std::thread producer([&] {
    // Push 1 MiB messages until one fails; only the receiver close can make
    // that happen (nothing ever drains).
    for (int i = 0; i < 1000; ++i) {
      if (!pair.sink->send(std::vector<std::uint8_t>(1024 * 1024, 0x42))) break;
      ++sent;
    }
    done = true;
  });
  // Wait for the producer to wedge (two quiet samples), then close under it.
  int prev = -1;
  for (int spins = 0; spins < 500 && !done.load(); ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    int now = sent.load();
    if (now == prev) break;
    prev = now;
  }
  pair.source->close();
  producer.join();
  EXPECT_TRUE(done.load());
  EXPECT_LT(sent.load(), 1000);
}

TEST_P(TransportConformance, BackpressureBlocksProducerUntilConsumed) {
  // Tiny HWM + 64 × 1 MiB: the unconsumed total decisively exceeds what the
  // in-flight budget (plus, for TCP, loopback kernel buffers) can absorb, so
  // the producer MUST stall until the consumer drains — the §4.5 "workers
  // naturally back off" property, uniform across lanes.
  auto pair = GetParam().make(/*hwm=*/1, /*max_message=*/1024 * 1024);
  constexpr int kMessages = 64;
  constexpr std::size_t kMessageBytes = 1024 * 1024;
  std::atomic<int> sent{0};
  std::thread producer([&] {
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_TRUE(pair.sink->send(std::vector<std::uint8_t>(kMessageBytes, 0x5A)));
      ++sent;
    }
  });
  // Wait until the producer's progress stalls (two quiet samples in a row)
  // rather than a fixed sleep, which flakes on loaded CI machines.
  int before_drain = sent.load();
  for (int spins = 0; spins < 200; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    int now = sent.load();
    if (now == before_drain && now > 0) break;
    before_drain = now;
  }
  EXPECT_LT(before_drain, kMessages);
  for (int i = 0; i < kMessages; ++i) {
    auto m = pair.source->recv();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->size(), kMessageBytes);
  }
  producer.join();
  EXPECT_EQ(sent.load(), kMessages);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportConformance,
                         ::testing::Values(TransportParam{"tcp", &make_tcp_pair},
                                           TransportParam{"sim", &make_sim_pair},
                                           TransportParam{"shm", &make_shm_pair}),
                         [](const ::testing::TestParamInfo<TransportParam>& param_info) {
                           return std::string(param_info.param.name);
                         });

// Spliced sends on every transport: TCP gathers the pieces into sendmsg,
// shm into its slab, and the sim link takes the default flatten. The
// receiver sees the contiguous encoding either way, in order.
TEST(SplicedSend, ByteIdenticalInOrderOnEveryTransport) {
  constexpr std::size_t kT = msgpack::BatchCodec::kSpliceMinBytes;
  std::vector<msgpack::WireBatch> batches;
  for (std::uint64_t b = 0; b < 6; ++b) {
    msgpack::WireBatch batch;
    batch.batch_id = b;
    for (std::uint64_t i = 0; i < 3; ++i) {
      const std::size_t n = (b + i) % 2 ? kT + 100 * b : 512;
      const auto fill = static_cast<std::uint8_t>(b + i);
      batch.samples.push_back(
          {.index = 10 * b + i, .label = 0, .bytes = std::vector<std::uint8_t>(n, fill)});
    }
    batches.push_back(std::move(batch));
  }
  for (auto make : {&make_tcp_pair, &make_sim_pair, &make_shm_pair}) {
    auto pair = make(/*hwm=*/4, /*max_message=*/4 * kT);
    auto pool = BufferPool::create();
    std::thread producer([&] {
      for (const auto& b : batches) {
        EXPECT_TRUE(pair.sink->send_spliced(msgpack::BatchCodec::encode_spliced(b, *pool)));
      }
      pair.sink->close();
    });
    for (const auto& b : batches) {
      auto m = pair.source->recv();
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(*m, msgpack::BatchCodec::encode(b).view()) << "batch " << b.batch_id;
    }
    producer.join();
  }
}

// ------------------------------------------------- shm-specific behavior

TEST(ShmChannel, ZeroSyscallLaneReportsZero) {
  auto name = unique_shm_name();
  ShmOptions opts;
  opts.slab_count = 4;
  opts.slab_bytes = 4096;
  ShmMessageSink sink(name, opts);
  ShmMessageSource source(name);
  for (std::uint8_t round = 0; round < 8; ++round) {
    // Stay within the 4-slab budget: drain as we go (no consumer thread).
    for (std::uint8_t i = 0; i < 4; ++i) ASSERT_TRUE(sink.send(msg({i})));
    for (std::uint8_t i = 0; i < 4; ++i) ASSERT_TRUE(source.recv().has_value());
  }
  EXPECT_EQ(sink.data_syscalls(), 0u);  // no write/send class syscalls, ever
}

TEST(ShmChannel, SlabRecyclesAtConsumerPace) {
  // slab_count=1 makes the recycle loop observable: the second send can only
  // proceed once the first payload releases its slab, and the recycled
  // message lands in the very same mapped bytes (true zero-copy reuse).
  auto name = unique_shm_name();
  ShmOptions opts;
  opts.slab_count = 1;
  opts.slab_bytes = 4096;
  ShmMessageSink sink(name, opts);
  ShmMessageSource source(name);
  ASSERT_TRUE(sink.send(msg({1})));
  auto p1 = source.recv();
  ASSERT_TRUE(p1.has_value());
  const std::uint8_t* slab = p1->data();
  std::atomic<bool> second_sent{false};
  std::thread producer([&] {
    EXPECT_TRUE(sink.send(msg({2})));  // blocks: the only slab is pinned
    second_sent = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(second_sent.load());
  p1.reset();  // release the pin → slab returns to the pool → send completes
  auto p2 = source.recv();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->data(), slab);  // same slab, recycled
  EXPECT_EQ((*p2)[0], 2);
  producer.join();
  EXPECT_TRUE(second_sent.load());
}

TEST(ShmChannel, PayloadOutlivesChannelEndpoints) {
  // A delivered payload pins the mapping (and, on the creator side, defers
  // the unlink) via its release closure: reading it after both endpoints are
  // destroyed must be safe, and dropping the last handle must not crash.
  auto name = unique_shm_name();
  std::optional<Payload> held;
  {
    ShmOptions opts;
    opts.slab_count = 2;
    opts.slab_bytes = 4096;
    auto sink = std::make_unique<ShmMessageSink>(name, opts);
    auto source = std::make_unique<ShmMessageSource>(name);
    ASSERT_TRUE(sink->send(msg({7, 8, 9})));
    held = source->recv();
    ASSERT_TRUE(held.has_value());
  }  // both endpoints gone; the creator has unlinked the name
  ASSERT_EQ(held->size(), 3u);
  EXPECT_EQ((*held)[0], 7);
  EXPECT_EQ((*held)[2], 9);
  PayloadView view(*held);  // decode views share the slab storage, no copy
  EXPECT_TRUE(view.shares_storage_with(*held));
  EXPECT_EQ(view.data(), held->data());
  held.reset();  // last handle: the release closure must not blow up
}

TEST(ShmChannel, OversizedMessageThrows) {
  auto name = unique_shm_name();
  ShmOptions opts;
  opts.slab_count = 2;
  opts.slab_bytes = 4096;
  ShmMessageSink sink(name, opts);
  ShmMessageSource source(name);
  EXPECT_THROW(sink.send(std::vector<std::uint8_t>(8192, 1)), std::runtime_error);
  // The limit is on the whole message, spliced bytes included.
  std::vector<SplicedPayload::Splice> big;
  big.push_back({1, PayloadView(std::vector<std::uint8_t>(8192, 2))});
  EXPECT_THROW(sink.send_spliced(SplicedPayload(Payload(msg({1, 2})), std::move(big))),
               std::runtime_error);
  ASSERT_TRUE(sink.send(msg({1})));  // the channel survives the rejection
  EXPECT_TRUE(source.recv().has_value());
}

// Crash/cleanup coverage: attaching to missing, closed, garbage, or
// dead-creator segments must fail with a clean error — never hang — and a
// daemon reusing a leftover name must be able to reclaim it.

// Fuzz regression: the frame-header parser is the only gate between socket
// bytes and a payload allocation; every malformed-length shape must throw.
TEST(Framing, HeaderParserRejectsMalformedHeaders) {
  std::uint8_t header[kFrameHeaderBytes];
  std::uint32_t magic = kFrameMagic;
  std::uint32_t length = 4096;
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &length, 4);
  EXPECT_EQ(parse_frame_header(std::span<const std::uint8_t>(header, 8)), 4096u);

  // Short reads (a peer that died mid-header).
  for (std::size_t n = 0; n < kFrameHeaderBytes; ++n) {
    EXPECT_THROW(parse_frame_header(std::span<const std::uint8_t>(header, n)),
                 std::runtime_error)
        << "header length " << n;
  }
  // Flipped magic (protocol mismatch / desynchronized stream).
  header[0] ^= 0xFF;
  EXPECT_THROW(parse_frame_header(std::span<const std::uint8_t>(header, 8)),
               std::runtime_error);
  header[0] ^= 0xFF;
  // Length just past the 1 GiB cap, and the all-ones corruption classic.
  for (std::uint32_t bad : {kMaxFrameBytes + 1, UINT32_MAX}) {
    std::memcpy(header + 4, &bad, 4);
    EXPECT_THROW(parse_frame_header(std::span<const std::uint8_t>(header, 8)),
                 std::runtime_error)
        << "length " << bad;
  }
  // The cap itself is still accepted.
  std::memcpy(header + 4, &kMaxFrameBytes, 4);
  EXPECT_EQ(parse_frame_header(std::span<const std::uint8_t>(header, 8)), kMaxFrameBytes);
}

// Fuzz regression: attach-time validation of garbage headers. slab_count
// beyond 2^31 used to spin next_pow2 forever, and unchecked geometry could
// overflow the layout arithmetic before the consistency compare ran.
TEST(ShmSegment, GarbageHeaderBytesRejectedByValidator) {
  auto name = unique_shm_name();
  auto seg = ShmSegment::create(name, {.slab_bytes = 4096, .slab_count = 2});

  // Start from the real header bytes of a live segment. Atomics forbid
  // copy-construction, so snapshot through memcpy like an attacher would
  // (void* casts: the bytes are the wire format here, not a C++ object).
  ShmSegmentHeader good{};
  std::memcpy(static_cast<void*>(&good), static_cast<const void*>(&seg->header()),
              sizeof(good));
  const auto mapped = static_cast<std::size_t>(good.total_bytes);
  EXPECT_EQ(check_shm_header(good, mapped, "/t"), ShmHeaderCheck::kReady);

  ShmSegmentHeader h{};
  auto reset = [&] {
    std::memcpy(static_cast<void*>(&h), static_cast<const void*>(&good), sizeof(h));
  };

  // The historical next_pow2 infinite loop: slab_count with the top bit set.
  reset();
  h.slab_count = 0xFFFFFFFFu;
  EXPECT_THROW(check_shm_header(h, mapped, "/t"), std::runtime_error);
  // Overflow-bait geometry (slab_count * slab_bytes wrapping size_t).
  reset();
  h.slab_count = 1u << 20;
  h.slab_bytes = UINT64_MAX / 4;
  EXPECT_THROW(check_shm_header(h, mapped, "/t"), std::runtime_error);
  reset();
  h.slab_count = 0;
  EXPECT_THROW(check_shm_header(h, mapped, "/t"), std::runtime_error);
  reset();
  h.ring_capacity += 1;
  EXPECT_THROW(check_shm_header(h, mapped, "/t"), std::runtime_error);
  // A mapping shorter than the announced layout (truncated leftover).
  EXPECT_THROW(check_shm_header(good, sizeof(ShmSegmentHeader), "/t"), std::runtime_error);
  // Still-initializing segments with our magic are retryable, not fatal.
  reset();
  h.state.store(0, std::memory_order_relaxed);
  EXPECT_EQ(check_shm_header(h, mapped, "/t"), ShmHeaderCheck::kRetry);
}

TEST(ShmSegment, AttachToMissingNameFailsCleanly) {
  EXPECT_THROW(ShmMessageSource{"emlio.test.never-created"}, std::runtime_error);
  EXPECT_THROW(ShmMessageSource::attach_wait("emlio.test.never-created",
                                             std::chrono::milliseconds(50)),
               std::runtime_error);
}

TEST(ShmSegment, StaleClosedSegmentRejectedOnAttach) {
  auto name = unique_shm_name();
  auto seg = ShmSegment::create(name, {.slab_bytes = 4096, .slab_count = 2});
  seg->mark_sink_closed();  // what a finished (or crashed-after-close) sender leaves
  EXPECT_THROW(ShmSegment::attach(name), std::runtime_error);
}

TEST(ShmSegment, VersionMismatchRejectedOnAttach) {
  auto name = unique_shm_name();
  auto seg = ShmSegment::create(name, {.slab_bytes = 4096, .slab_count = 2});
  seg->header().version = 999;  // future layout
  EXPECT_THROW(ShmSegment::attach(name), std::runtime_error);
}

TEST(ShmSegment, DeadCreatorRejectedOnAttach) {
  auto name = unique_shm_name();
  auto seg = ShmSegment::create(name, {.slab_bytes = 4096, .slab_count = 2});
  // A pid beyond any kernel's pid_max: kill(pid, 0) == ESRCH, i.e. the
  // "creator crashed without unlinking" signature.
  seg->header().creator_pid = 999999999u;
  EXPECT_THROW(ShmSegment::attach(name), std::runtime_error);
}

TEST(ShmSegment, GarbageObjectRejectedAndCreateReclaims) {
  // Simulate an unrelated (or torn) shm object squatting on our name.
  auto name = unique_shm_name();
  std::string posix_name = "/" + name;
  int fd = ::shm_open(posix_name.c_str(), O_CREAT | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 4096), 0);
  std::uint32_t junk = 0xDEADBEEF;  // non-zero so it can't look "initializing"
  ASSERT_EQ(::write(fd, &junk, sizeof junk), static_cast<ssize_t>(sizeof junk));
  ::close(fd);
  EXPECT_THROW(ShmSegment::attach(name), std::runtime_error);  // clean error, no hang
  // The daemon side recovers by unlinking the leftover and recreating.
  auto seg = ShmSegment::create(name, {.slab_bytes = 4096, .slab_count = 2});
  ASSERT_TRUE(seg != nullptr);
  EXPECT_TRUE(seg->is_creator());
  ShmMessageSource attached(name);  // and the fresh segment attaches fine
}

TEST(ShmChannel, DeadCreatorMidStreamSurfacesAsDeadPeer) {
  // The creator "crashes" while a source is attached and the ring is empty:
  // the park-timeout pid probe must end the stream marked kDeadPeer — a
  // distinct error state, not a clean end a consumer would mistake for a
  // finished epoch.
  auto name = unique_shm_name();
  auto seg = ShmSegment::create(name, {.slab_bytes = 4096, .slab_count = 2});
  ShmMessageSource source(name);
  EXPECT_EQ(source.end_state(), SourceEnd::kClean);
  seg->header().creator_pid = 999999999u;  // kill -9 signature: dead, not closed
  EXPECT_FALSE(source.recv().has_value());
  EXPECT_EQ(source.end_state(), SourceEnd::kDeadPeer);
}

TEST(ShmSegment, AttachWaitTimesOutWhenNothingAppears) {
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(ShmMessageSource::attach_wait(unique_shm_name(), std::chrono::milliseconds(80)),
               std::runtime_error);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(70));
}

}  // namespace
}  // namespace emlio::net
