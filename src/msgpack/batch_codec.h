// Batch wire format.
//
// The EMLIO daemon serializes groups of B examples into a single msgpack
// payload (§4.1); this codec defines that payload's schema:
//
//   map {
//     "v":       1                 — wire version
//     "epoch":   uint              — epoch index
//     "batch":   uint              — global batch id within the epoch
//     "node":    uint              — destination compute-node id
//     "shard":   uint              — source shard id
//     "last":    bool              — true on the sentinel end-of-epoch batch
//     "nsent":   uint              — sentinel only: batches this sender
//                                    shipped for (node, epoch)
//     "samples": [ [index, label, bin-bytes], ... ]
//     "t0":      uint              — OPTIONAL: sender's trace-origin stamp
//                                    (CLOCK_MONOTONIC ns), present only when
//                                    the daemon runs with trace_wire
//   }
//
// The sentinel batch carries zero samples, last=true and the sender's batch
// count. Multi-stream PUSH sockets do not order messages across streams, so
// a sentinel can overtake in-flight data batches; the receiver therefore
// declares an epoch complete only when every sender's sentinel has arrived
// AND the summed nsent batches have all been delivered.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/payload.h"

namespace emlio::msgpack {

/// One training example on the wire: raw encoded bytes plus label and the
/// dataset-global sample index (for data-parallel bookkeeping).
///
/// `bytes` is a ref-counted PayloadView: on the encode path it shares
/// ownership of the mmap'd shard or a cache entry (no copy into the batch,
/// and a large one is spliced into the message by reference), and on the
/// decode path it shares ownership of the received message buffer (no
/// per-sample copy out of it).
struct WireSample {
  std::uint64_t index = 0;
  std::int64_t label = 0;
  PayloadView bytes;

  bool operator==(const WireSample&) const = default;
};

/// A pre-batched payload: everything a compute node needs to run one
/// training step, assembled storage-side.
struct WireBatch {
  std::uint32_t epoch = 0;
  std::uint64_t batch_id = 0;
  std::uint32_t node_id = 0;
  std::uint32_t shard_id = 0;
  bool last = false;
  std::uint64_t sent_count = 0;  ///< sentinel only: sender's batch count
  /// Daemon-side trace origin stamp (CLOCK_MONOTONIC ns), carried on the
  /// wire as optional key "t0" ONLY when nonzero — the default encoding is
  /// byte-identical to the pre-trace schema. Set by the daemon when
  /// `trace_wire` is enabled so the receiver can attribute queue+transit
  /// time; meaningful only between processes on the same host.
  std::uint64_t trace_origin_ns = 0;
  std::vector<WireSample> samples;

  /// Total payload bytes across samples.
  std::size_t payload_bytes() const;

  bool operator==(const WireBatch&) const = default;
};

/// Encoder/decoder for WireBatch <-> msgpack bytes.
///
/// The wire format is byte-identical regardless of which encode/decode
/// overload is used; only the ownership of the bytes differs.
class BatchCodec {
 public:
  /// Serialize a batch into `out` (appended). Returns encoded size in bytes.
  static std::size_t encode(const WireBatch& batch, ByteBuffer& out);

  /// Serialize into a fresh ref-counted Payload (one copy: sample bytes →
  /// message buffer; that is the serialization itself, not an extra hop).
  static Payload encode(const WireBatch& batch);

  /// Serialize into a Payload backed by `pool`. The buffer returns to the
  /// pool when the last reference (transport queue, receiver, decoded sample
  /// views) drops.
  static Payload encode(const WireBatch& batch, BufferPool& pool);

  /// Samples of at least this many bytes are spliced into an encode_spliced
  /// message instead of copied into its head. Splicing moves a sample's one
  /// remaining copy from the parallel encode pool onto the sink's single
  /// sender thread, so it pays only where the copy it saves outweighs what
  /// it adds there. bench_micro_codec's BM_SpliceGather sweep (16-sample
  /// batches, 4-vCPU Xeon, g++ 12.2, Release, three runs): per ns added to
  /// the sender, splicing saved 0.4-1.1 ns of CPU at 4 KiB samples, 0.8-1.5
  /// at 8 KiB, 1.0-1.4 at 16 KiB, 1.5-3.8 at 32 KiB and 1.6 or more from
  /// 48 KiB on. 32 KiB is the smallest size where it saved at least 1.5x in
  /// every run. The benchmark's 4 KiB workloads stay inline; its 100 KiB and
  /// 2 MiB workloads splice.
  static constexpr std::size_t kSpliceMinBytes = 32u << 10;

  /// Serialize for a MessageSink — the daemon's hot path. The message's
  /// bytes equal encode(batch, pool)'s, but every sample of at least
  /// kSpliceMinBytes that owns its storage is spliced in by reference: only
  /// its bin header is written into the pooled head. Smaller or borrowed
  /// samples are copied into the head.
  static SplicedPayload encode_spliced(const WireBatch& batch, BufferPool& pool);

  /// Parse a batch with ZERO per-sample byte copies: each WireSample.bytes
  /// is a slice of `bytes`. If `bytes` owns its storage (a Payload, or an
  /// rvalue vector adopted into the view), the samples share that ownership
  /// and may outlive the caller's handle; if `bytes` is borrowed (a span or
  /// lvalue vector), the samples borrow too and are only valid while the
  /// caller keeps the underlying buffer alive.
  /// Throws std::runtime_error on schema violations and std::out_of_range on
  /// truncated input.
  static WireBatch decode(PayloadView bytes);

  /// Build the end-of-epoch sentinel for (node, epoch); `sent_count` is the
  /// number of data batches this sender shipped to that node this epoch.
  static WireBatch make_sentinel(std::uint32_t node_id, std::uint32_t epoch,
                                 std::uint64_t sent_count = 0);
};

namespace detail {
/// BatchCodec::encode_spliced with an explicit threshold, for the threshold
/// sweep and the byte-identity tests; the data plane uses kSpliceMinBytes.
SplicedPayload encode_spliced(const WireBatch& batch, BufferPool& pool, std::size_t splice_min);
}  // namespace detail

}  // namespace emlio::msgpack
