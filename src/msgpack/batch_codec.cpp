#include "msgpack/batch_codec.h"

#include <algorithm>
#include <stdexcept>

#include "msgpack/msgpack.h"

namespace emlio::msgpack {

namespace {

constexpr std::uint64_t kWireVersion = 1;

/// Whether the v1 writer splices `bytes` rather than copying them. Only an
/// owning view may be spliced: the message outlives the encode call.
bool splices(const PayloadView& bytes, std::size_t splice_min) {
  return bytes.size() >= splice_min && bytes.owns_storage();
}

/// THE v1 schema writer: every encode overload calls it, so the key
/// sequence exists once. With `spliced` null every sample is copied into
/// `out` (the contiguous encoding). Otherwise a sample that splices() gets
/// only its bin header in `out`, and (offset in `out`, view) is appended to
/// `spliced` — the wire bytes are the same either way.
void write_v1(const WireBatch& batch, ByteBuffer& out, std::size_t splice_min,
              std::vector<SplicedPayload::Splice>* spliced) {
  Encoder enc(out);
  enc.pack_map_header(batch.trace_origin_ns ? 9 : 8);
  // Keys are emitted in sorted order to match Map-based decoding of other
  // msgpack implementations that normalize maps.
  enc.pack_string("batch");
  enc.pack_uint(batch.batch_id);
  enc.pack_string("epoch");
  enc.pack_uint(batch.epoch);
  enc.pack_string("last");
  enc.pack_bool(batch.last);
  enc.pack_string("node");
  enc.pack_uint(batch.node_id);
  enc.pack_string("nsent");
  enc.pack_uint(batch.sent_count);
  enc.pack_string("samples");
  enc.pack_array_header(batch.samples.size());
  for (const auto& s : batch.samples) {
    enc.pack_array_header(3);
    enc.pack_uint(s.index);
    enc.pack_int(s.label);
    if (spliced && splices(s.bytes, splice_min)) {
      enc.pack_bin_header(s.bytes.size());
      spliced->push_back({out.size(), s.bytes});
    } else {
      enc.pack_bin(s.bytes);
    }
  }
  enc.pack_string("shard");
  enc.pack_uint(batch.shard_id);
  if (batch.trace_origin_ns) {
    enc.pack_string("t0");
    enc.pack_uint(batch.trace_origin_ns);
  }
  enc.pack_string("v");
  enc.pack_uint(kWireVersion);
}

/// Rough upper bound of the bytes write_v1 puts in `out` when samples of at
/// least `splice_min` bytes are spliced: the copied sample bytes + per-sample
/// msgpack overhead + map/key overhead. Sizes (pooled) encode buffers so the
/// vector never reallocates mid-encode.
std::size_t head_size_estimate(const WireBatch& batch, std::size_t splice_min) {
  std::size_t copied = 0;
  for (const auto& s : batch.samples) {
    if (!splices(s.bytes, splice_min)) copied += s.bytes.size();
  }
  return copied + 64 * batch.samples.size() + 128;
}

constexpr std::size_t kNoSplice = SIZE_MAX;

}  // namespace

std::size_t WireBatch::payload_bytes() const {
  std::size_t total = 0;
  for (const auto& s : samples) total += s.bytes.size();
  return total;
}

std::size_t BatchCodec::encode(const WireBatch& batch, ByteBuffer& out) {
  const std::size_t start = out.size();
  write_v1(batch, out, kNoSplice, nullptr);
  return out.size() - start;
}

Payload BatchCodec::encode(const WireBatch& batch) {
  ByteBuffer buf(head_size_estimate(batch, kNoSplice));
  write_v1(batch, buf, kNoSplice, nullptr);
  return Payload(std::move(buf));
}

Payload BatchCodec::encode(const WireBatch& batch, BufferPool& pool) {
  ByteBuffer buf = pool.acquire(head_size_estimate(batch, kNoSplice));
  write_v1(batch, buf, kNoSplice, nullptr);
  return pool.seal(std::move(buf));
}

SplicedPayload BatchCodec::encode_spliced(const WireBatch& batch, BufferPool& pool) {
  return detail::encode_spliced(batch, pool, kSpliceMinBytes);
}

SplicedPayload detail::encode_spliced(const WireBatch& batch, BufferPool& pool,
                                      std::size_t splice_min) {
  ByteBuffer buf = pool.acquire(head_size_estimate(batch, splice_min));
  // Stays unallocated when nothing splices, so a small-sample batch
  // allocates no more than encode(batch, pool) does.
  std::vector<SplicedPayload::Splice> spliced;
  write_v1(batch, buf, splice_min, &spliced);
  return SplicedPayload(pool.seal(std::move(buf)), std::move(spliced));
}

WireBatch BatchCodec::decode(PayloadView bytes) {
  Decoder dec(bytes.view());
  std::size_t num_keys;
  try {
    num_keys = dec.next_map_header();
  } catch (const std::runtime_error&) {
    throw std::runtime_error("batch codec: payload is not a map");
  }

  // Probe the wire version before the strict schema parse: a newer sender's
  // schema drift must surface as a version mismatch, not as whatever field
  // error the drift happens to cause first. The probe only walks headers
  // (skip_value materializes nothing), so it is cheap next to the parse.
  {
    Decoder probe(bytes.view());
    probe.next_map_header();
    for (std::size_t k = 0; k < num_keys; ++k) {
      if (probe.next_string_view() == "v") {
        std::uint64_t version = probe.next_uint();
        if (version != kWireVersion) {
          throw std::runtime_error("batch codec: unsupported wire version " +
                                   std::to_string(version));
        }
        break;
      }
      probe.skip_value();
    }
  }

  WireBatch batch;
  std::uint64_t version = 0;
  // Accept keys in any order; tolerate unknown keys (forward compatibility)
  // but require every field of the v1 schema exactly once — a duplicated
  // "samples" key must not concatenate into a double-sized batch.
  bool have_v = false, have_epoch = false, have_batch = false, have_node = false,
       have_shard = false, have_last = false, have_nsent = false, have_samples = false,
       have_t0 = false;
  auto once = [](bool& have, std::string_view key) {
    if (have) throw std::runtime_error("batch codec: duplicate key '" + std::string(key) + "'");
    have = true;
  };
  for (std::size_t k = 0; k < num_keys; ++k) {
    auto key = dec.next_string_view();
    if (key == "v") {
      version = dec.next_uint();
      once(have_v, key);
    } else if (key == "epoch") {
      batch.epoch = static_cast<std::uint32_t>(dec.next_uint());
      once(have_epoch, key);
    } else if (key == "batch") {
      batch.batch_id = dec.next_uint();
      once(have_batch, key);
    } else if (key == "node") {
      batch.node_id = static_cast<std::uint32_t>(dec.next_uint());
      once(have_node, key);
    } else if (key == "shard") {
      batch.shard_id = static_cast<std::uint32_t>(dec.next_uint());
      once(have_shard, key);
    } else if (key == "last") {
      batch.last = dec.next_bool();
      once(have_last, key);
    } else if (key == "nsent") {
      batch.sent_count = dec.next_uint();
      once(have_nsent, key);
    } else if (key == "t0") {
      // Optional trace origin stamp — absent unless the sender runs with
      // trace_wire. Dup-checked like the required keys but never required.
      batch.trace_origin_ns = dec.next_uint();
      once(have_t0, key);
    } else if (key == "samples") {
      std::size_t n = dec.next_array_header();
      batch.samples.reserve(std::min<std::size_t>(n, 1 << 16));
      for (std::size_t i = 0; i < n; ++i) {
        if (dec.next_array_header() != 3) {
          throw std::runtime_error("batch codec: sample tuple arity != 3");
        }
        WireSample ws;
        ws.index = dec.next_uint();
        ws.label = dec.next_int();
        // Zero-copy: the sample is a slice of the message, sharing whatever
        // ownership the caller's view carries.
        auto bin = dec.next_bin_view();
        ws.bytes = bytes.slice(static_cast<std::size_t>(bin.data() - bytes.data()), bin.size());
        batch.samples.push_back(std::move(ws));
      }
      once(have_samples, key);
    } else {
      dec.skip_value();
    }
  }
  if (!(have_v && have_epoch && have_batch && have_node && have_shard && have_last &&
        have_nsent && have_samples)) {
    throw std::runtime_error("batch codec: missing required key");
  }
  if (version != kWireVersion) {
    throw std::runtime_error("batch codec: unsupported wire version " + std::to_string(version));
  }
  return batch;
}

WireBatch BatchCodec::make_sentinel(std::uint32_t node_id, std::uint32_t epoch,
                                    std::uint64_t sent_count) {
  WireBatch b;
  b.node_id = node_id;
  b.epoch = epoch;
  b.last = true;
  b.sent_count = sent_count;
  return b;
}

}  // namespace emlio::msgpack
