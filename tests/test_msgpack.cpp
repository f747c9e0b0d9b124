// Unit + property tests for the MessagePack codec and the batch wire format.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "msgpack/batch_codec.h"
#include "msgpack/msgpack.h"

namespace emlio::msgpack {
namespace {

std::vector<std::uint8_t> enc(const Value& v) { return encode(v); }

TEST(Msgpack, NilBoolWireBytes) {
  EXPECT_EQ(enc(Value(nullptr)), (std::vector<std::uint8_t>{0xC0}));
  EXPECT_EQ(enc(Value(true)), (std::vector<std::uint8_t>{0xC3}));
  EXPECT_EQ(enc(Value(false)), (std::vector<std::uint8_t>{0xC2}));
}

TEST(Msgpack, PositiveFixintWire) {
  EXPECT_EQ(enc(Value(0)), (std::vector<std::uint8_t>{0x00}));
  EXPECT_EQ(enc(Value(127)), (std::vector<std::uint8_t>{0x7F}));
}

TEST(Msgpack, NegativeFixintWire) {
  EXPECT_EQ(enc(Value(-1)), (std::vector<std::uint8_t>{0xFF}));
  EXPECT_EQ(enc(Value(-32)), (std::vector<std::uint8_t>{0xE0}));
}

TEST(Msgpack, IntWidthSelection) {
  EXPECT_EQ(enc(Value(128))[0], 0xCC);               // uint8
  EXPECT_EQ(enc(Value(256))[0], 0xCD);               // uint16
  EXPECT_EQ(enc(Value(70000))[0], 0xCE);             // uint32
  EXPECT_EQ(enc(Value(std::uint64_t(1) << 40))[0], 0xCF);  // uint64
  EXPECT_EQ(enc(Value(-33))[0], 0xD0);               // int8
  EXPECT_EQ(enc(Value(-1000))[0], 0xD1);             // int16
  EXPECT_EQ(enc(Value(-100000))[0], 0xD2);           // int32
  EXPECT_EQ(enc(Value(std::int64_t(-1) << 40))[0], 0xD3);  // int64
}

TEST(Msgpack, FixstrWire) {
  auto bytes = enc(Value("abc"));
  EXPECT_EQ(bytes[0], 0xA3);
  EXPECT_EQ(bytes.size(), 4u);
}

TEST(Msgpack, StringWidths) {
  EXPECT_EQ(enc(Value(std::string(40, 'x')))[0], 0xD9);    // str8
  EXPECT_EQ(enc(Value(std::string(300, 'x')))[0], 0xDA);   // str16
  EXPECT_EQ(enc(Value(std::string(70000, 'x')))[0], 0xDB); // str32
}

TEST(Msgpack, BinWidths) {
  EXPECT_EQ(enc(Value(Bin(10, 0)))[0], 0xC4);
  EXPECT_EQ(enc(Value(Bin(300, 0)))[0], 0xC5);
  EXPECT_EQ(enc(Value(Bin(70000, 0)))[0], 0xC6);
}

TEST(Msgpack, ArrayAndMapHeaders) {
  EXPECT_EQ(enc(Value(Array{}))[0], 0x90);
  EXPECT_EQ(enc(Value(Array(20, Value(1))))[0], 0xDC);
  Map small{{"k", Value(1)}};
  EXPECT_EQ(enc(Value(small))[0], 0x81);
}

TEST(Msgpack, RoundTripScalars) {
  for (std::int64_t v : {0LL, 1LL, -1LL, 127LL, 128LL, -32LL, -33LL, 65535LL, -65536LL,
                         1LL << 40, -(1LL << 40)}) {
    auto decoded = decode(enc(Value(v)));
    EXPECT_EQ(decoded.as_int(), v) << v;
  }
}

TEST(Msgpack, RoundTripUint64Max) {
  std::uint64_t big = ~0ull;
  EXPECT_EQ(decode(enc(Value(big))).as_uint(), big);
}

TEST(Msgpack, RoundTripDouble) {
  for (double v : {0.0, -2.5, 3.14159, 1e300, -1e-300}) {
    EXPECT_DOUBLE_EQ(decode(enc(Value(v))).as_double(), v);
  }
}

TEST(Msgpack, RoundTripNested) {
  Map m;
  m["list"] = Value(Array{Value(1), Value("two"), Value(Bin{1, 2, 3})});
  m["inner"] = Value(Map{{"x", Value(true)}});
  auto d = decode(enc(Value(m)));
  EXPECT_EQ(d.at("list").as_array()[1].as_string(), "two");
  EXPECT_EQ(d.at("list").as_array()[2].as_bin(), (Bin{1, 2, 3}));
  EXPECT_TRUE(d.at("inner").at("x").as_bool());
}

TEST(Msgpack, DecodeTruncatedThrows) {
  auto bytes = enc(Value("hello world"));
  // Clamped subtraction: GCC 12 flags a bare size()-3 resize as a possible
  // wraparound (stringop-overflow) under -O3 -fsanitize=address.
  bytes.resize(bytes.size() < 3 ? 0 : bytes.size() - 3);
  EXPECT_THROW(decode(bytes), std::out_of_range);
}

TEST(Msgpack, TypeAccessorsThrow) {
  auto v = decode(enc(Value(5)));
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.as_map(), std::runtime_error);
  EXPECT_THROW(Value(-1).as_uint(), std::runtime_error);
}

// Property-style round-trip over randomly generated value trees.
class MsgpackPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

Value random_value(Rng& rng, int depth) {
  std::uint64_t kind = rng.uniform(depth > 3 ? 6 : 8);
  switch (kind) {
    case 0: return Value(nullptr);
    case 1: return Value(rng.uniform(2) == 1);
    case 2: return Value(static_cast<std::int64_t>(rng()) >> rng.uniform(40));
    case 3: return Value(rng.normal(0, 1e6));
    case 4: {
      std::string s;
      for (std::uint64_t i = rng.uniform(40); i > 0; --i)
        s += static_cast<char>('a' + rng.uniform(26));
      return Value(std::move(s));
    }
    case 5: {
      Bin b(rng.uniform(64));
      for (auto& x : b) x = static_cast<std::uint8_t>(rng());
      return Value(std::move(b));
    }
    case 6: {
      Array a;
      for (std::uint64_t i = rng.uniform(5); i > 0; --i) a.push_back(random_value(rng, depth + 1));
      return Value(std::move(a));
    }
    default: {
      Map m;
      for (std::uint64_t i = rng.uniform(5); i > 0; --i) {
        m["k" + std::to_string(rng.uniform(100))] = random_value(rng, depth + 1);
      }
      return Value(std::move(m));
    }
  }
}

TEST_P(MsgpackPropertyTest, RandomTreeRoundTrips) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Value v = random_value(rng, 0);
    Value back = decode(encode(v));
    EXPECT_TRUE(back == v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MsgpackPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ------------------------------------------------------------ batch codec

msgpack::WireBatch make_batch(std::size_t samples, std::size_t bytes_each) {
  WireBatch b;
  b.epoch = 2;
  b.batch_id = 77;
  b.node_id = 1;
  b.shard_id = 3;
  Rng rng(5);
  for (std::size_t i = 0; i < samples; ++i) {
    WireSample s;
    s.index = 1000 + i;
    s.label = static_cast<std::int64_t>(i % 10);
    std::vector<std::uint8_t> payload(bytes_each);
    for (auto& x : payload) x = static_cast<std::uint8_t>(rng());
    s.bytes = std::move(payload);
    b.samples.push_back(std::move(s));
  }
  return b;
}

TEST(BatchCodec, RoundTrip) {
  auto b = make_batch(8, 100);
  auto decoded = BatchCodec::decode(BatchCodec::encode(b));
  EXPECT_EQ(decoded, b);
}

TEST(BatchCodec, EmptyBatchRoundTrip) {
  WireBatch b;
  b.epoch = 1;
  auto decoded = BatchCodec::decode(BatchCodec::encode(b));
  EXPECT_EQ(decoded, b);
}

TEST(BatchCodec, SentinelMarksEpochEnd) {
  auto s = BatchCodec::make_sentinel(4, 9);
  EXPECT_TRUE(s.last);
  EXPECT_EQ(s.node_id, 4u);
  EXPECT_EQ(s.epoch, 9u);
  EXPECT_TRUE(s.samples.empty());
  auto decoded = BatchCodec::decode(BatchCodec::encode(s));
  EXPECT_TRUE(decoded.last);
}

TEST(BatchCodec, PayloadBytesSumsSamples) {
  auto b = make_batch(4, 250);
  EXPECT_EQ(b.payload_bytes(), 1000u);
}

TEST(BatchCodec, EncodingOverheadIsSmall) {
  auto b = make_batch(32, 4096);
  auto encoded = BatchCodec::encode(b);
  // Per-sample overhead must stay far below the paper's point that msgpack
  // is "compact": < 32 bytes per sample on top of the payload.
  EXPECT_LT(encoded.size(), b.payload_bytes() + 32 * b.samples.size() + 128);
}

TEST(BatchCodec, RejectsGarbage) {
  std::vector<std::uint8_t> garbage{0x81, 0xA1, 0x76, 0x01};  // {"v": 1} missing keys
  EXPECT_THROW(BatchCodec::decode(garbage), std::runtime_error);
  EXPECT_THROW(BatchCodec::decode(std::vector<std::uint8_t>{0x01}), std::runtime_error);
}

TEST(BatchCodec, RejectsWrongVersion) {
  // Craft a batch, then corrupt the version by re-encoding through the
  // generic msgpack layer.
  auto b = make_batch(1, 4);
  Value root = decode(BatchCodec::encode(b));
  Map m = root.as_map();
  m["v"] = Value(static_cast<std::uint64_t>(99));
  EXPECT_THROW(BatchCodec::decode(encode(Value(m))), std::runtime_error);
}

TEST(BatchCodec, LargeSampleRoundTrip) {
  auto b = make_batch(1, 2'000'000);  // the synthetic 2 MB record
  auto decoded = BatchCodec::decode(BatchCodec::encode(b));
  EXPECT_EQ(decoded.samples[0].bytes.size(), 2'000'000u);
  EXPECT_EQ(decoded, b);
}

TEST(BatchCodec, RejectsTruncationAtEveryPrefixLength) {
  // Property: EVERY strict prefix of a valid encoding must throw (truncation
  // is detected wherever the cut lands: mid-header, mid-key, mid-bin).
  auto payload = BatchCodec::encode(make_batch(3, 50));
  auto bytes = payload.to_vector();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::span<const std::uint8_t> prefix(bytes.data(), len);
    EXPECT_THROW(BatchCodec::decode(prefix), std::exception) << "prefix length " << len;
  }
  // The full message still decodes.
  EXPECT_NO_THROW(BatchCodec::decode(payload));
}

// Fuzz regression: a length header may announce up to 4 GiB of payload that
// the buffer does not contain. Truncation must surface as the ByteReader's
// bounds check, never as a huge allocation or an out-of-bounds read.
TEST(Msgpack, HugeLengthHeadersRejectedBeforeAllocation) {
  // str32 / bin32 / array32 / map32 announcing 0xFFFFFFFF elements, then EOF.
  for (std::uint8_t tag : {0xDB, 0xC6, 0xDD, 0xDF}) {
    std::vector<std::uint8_t> bytes{tag, 0xFF, 0xFF, 0xFF, 0xFF};
    EXPECT_THROW(decode(bytes), std::exception) << "tag 0x" << std::hex << int(tag);
    Decoder skipper(bytes);
    EXPECT_THROW(skipper.skip_value(), std::exception) << "tag 0x" << std::hex << int(tag);
  }
}

// Fuzz regression: nesting is recursion, so both the decoder and skip_value
// bound depth (a [[[[... bomb must throw, not exhaust the stack).
TEST(Msgpack, NestingDepthCappedOnDecodeAndSkip) {
  std::vector<std::uint8_t> bomb(600, 0x91);  // 600 nested one-element arrays
  bomb.push_back(0xC0);
  EXPECT_THROW(decode(bomb), std::runtime_error);
  Decoder skipper(bomb);
  EXPECT_THROW(skipper.skip_value(), std::runtime_error);
  // 16 levels is comfortably inside the cap.
  std::vector<std::uint8_t> shallow(16, 0x91);
  shallow.push_back(0xC0);
  EXPECT_NO_THROW(decode(shallow));
}

// Fuzz regression: a fixmap whose key slot holds a non-string value must be
// a clean schema error (Map keys are strings in this implementation).
TEST(Msgpack, TruncatedAndNonStringKeyMapsRejected) {
  const std::vector<std::uint8_t> int_key{0x81, 0x07, 0xC0};  // {7: nil}
  EXPECT_THROW(decode(int_key), std::runtime_error);
  const std::vector<std::uint8_t> half_pair{0x81, 0xA1, 'k'};  // {"k": <EOF>
  EXPECT_THROW(decode(half_pair), std::exception);
  const std::vector<std::uint8_t> missing_entry{0x82, 0xA1, 'k', 0xC0};  // 2 pairs, 1 present
  EXPECT_THROW(decode(missing_entry), std::exception);
}

TEST(BatchCodec, RejectsMalformedSchemaVariants) {
  auto base = decode(BatchCodec::encode(make_batch(2, 8))).as_map();

  auto corrupted = [&](auto&& mutate) {
    Map m = base;
    mutate(m);
    return encode(Value(m));
  };

  // Root is not a map.
  EXPECT_THROW(BatchCodec::decode(encode(Value(std::int64_t(7)))), std::runtime_error);
  // Field with the wrong wire type.
  EXPECT_THROW(BatchCodec::decode(corrupted([](Map& m) { m["epoch"] = Value("not-a-uint"); })),
               std::runtime_error);
  EXPECT_THROW(BatchCodec::decode(corrupted([](Map& m) { m["last"] = Value(std::int64_t(1)); })),
               std::runtime_error);
  EXPECT_THROW(BatchCodec::decode(corrupted([](Map& m) { m["samples"] = Value("nope"); })),
               std::runtime_error);
  // Missing required field.
  EXPECT_THROW(BatchCodec::decode(corrupted([](Map& m) { m.erase("nsent"); })),
               std::runtime_error);
  // Sample tuple with the wrong arity.
  EXPECT_THROW(BatchCodec::decode(corrupted([](Map& m) {
                 Array bad_tuple{Value(std::uint64_t(1)), Value(std::int64_t(2))};
                 m["samples"] = Value(Array{Value(std::move(bad_tuple))});
               })),
               std::runtime_error);
  // Sample bytes that are not a bin.
  EXPECT_THROW(BatchCodec::decode(corrupted([](Map& m) {
                 Array tuple{Value(std::uint64_t(1)), Value(std::int64_t(2)), Value("str")};
                 m["samples"] = Value(Array{Value(std::move(tuple))});
               })),
               std::runtime_error);
}

TEST(BatchCodec, WrongVersionDiagnosedBeforeSchemaDrift) {
  // A v99 sender that ALSO changed a field's type must be reported as a
  // version mismatch, not as the schema error the drift causes first.
  Map m = decode(BatchCodec::encode(make_batch(1, 4))).as_map();
  m["v"] = Value(static_cast<std::uint64_t>(99));
  m["last"] = Value(std::int64_t(1));  // schema drift: bool → int
  try {
    BatchCodec::decode(encode(Value(m)));
    FAIL() << "expected decode to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("wire version 99"), std::string::npos) << e.what();
  }
}

TEST(BatchCodec, RejectsDuplicateKeys) {
  // A duplicated "samples" key must not concatenate into a 2N-sample batch.
  auto b = make_batch(2, 8);
  ByteBuffer raw;
  Encoder enc(raw);
  enc.pack_map_header(9);
  auto pack_samples = [&] {
    enc.pack_string("samples");
    enc.pack_array_header(b.samples.size());
    for (const auto& s : b.samples) {
      enc.pack_array_header(3);
      enc.pack_uint(s.index);
      enc.pack_int(s.label);
      enc.pack_bin(s.bytes);
    }
  };
  enc.pack_string("batch");
  enc.pack_uint(b.batch_id);
  enc.pack_string("epoch");
  enc.pack_uint(b.epoch);
  enc.pack_string("last");
  enc.pack_bool(b.last);
  enc.pack_string("node");
  enc.pack_uint(b.node_id);
  enc.pack_string("nsent");
  enc.pack_uint(b.sent_count);
  pack_samples();
  pack_samples();  // duplicate!
  enc.pack_string("shard");
  enc.pack_uint(b.shard_id);
  enc.pack_string("v");
  enc.pack_uint(1);
  EXPECT_THROW(BatchCodec::decode(raw.view()), std::runtime_error);
}

TEST(BatchCodec, ToleratesUnknownKeys) {
  // Forward compatibility: an extra key from a newer sender is skipped.
  Map m = decode(BatchCodec::encode(make_batch(1, 4))).as_map();
  m["future_field"] = Value(Array{Value("x"), Value(std::int64_t(1))});
  auto decoded = BatchCodec::decode(encode(Value(m)));
  EXPECT_EQ(decoded.samples.size(), 1u);
}

TEST(BatchCodec, DecodeIsZeroCopyIntoSharedPayload) {
  auto b = make_batch(8, 4096);
  Payload encoded = BatchCodec::encode(b);
  PayloadCounters::reset();
  auto decoded = BatchCodec::decode(encoded);
  // No deliberate deep copies happened anywhere in the decode path...
  EXPECT_EQ(PayloadCounters::bytes_copied.load(), 0u);
  ASSERT_EQ(decoded.samples.size(), 8u);
  for (const auto& s : decoded.samples) {
    // ...every sample shares the message's refcounted storage...
    EXPECT_TRUE(s.bytes.shares_storage_with(encoded));
    // ...and points INTO the encoded buffer.
    EXPECT_GE(s.bytes.data(), encoded.data());
    EXPECT_LE(s.bytes.data() + s.bytes.size(), encoded.data() + encoded.size());
  }
  // 1 handle + 8 sample views.
  EXPECT_EQ(encoded.use_count(), 9);
}

TEST(BatchCodec, PooledEncodeRecyclesBuffers) {
  auto pool = BufferPool::create(4);
  auto b = make_batch(4, 1000);
  for (int round = 0; round < 5; ++round) {
    Payload p = BatchCodec::encode(b, *pool);
    EXPECT_EQ(BatchCodec::decode(p), b);
  }  // payload dropped each round → storage returns to the pool
  auto stats = pool->stats();
  EXPECT_EQ(stats.allocated, 1u);  // first round allocates...
  EXPECT_EQ(stats.reused, 4u);     // ...the rest reuse it
  EXPECT_EQ(stats.idle, 1u);
}

TEST(BatchCodec, PooledBufferSurvivesPoolDestruction) {
  Payload p;
  {
    auto pool = BufferPool::create(4);
    p = BatchCodec::encode(make_batch(1, 32), *pool);
  }  // pool gone; payload must remain valid (storage frees on last drop)
  EXPECT_EQ(BatchCodec::decode(p).samples.size(), 1u);
}

TEST(BatchCodec, EncodeAcceptsBorrowedMmapStyleViews) {
  // The daemon encodes samples whose bytes borrow mmap'd memory; the wire
  // bytes must be identical to encoding owned copies of the same data.
  std::vector<std::uint8_t> backing(512);
  for (std::size_t i = 0; i < backing.size(); ++i) backing[i] = static_cast<std::uint8_t>(i);

  WireBatch borrowed;
  WireSample s1;
  s1.index = 1;
  s1.bytes = std::span<const std::uint8_t>(backing.data(), 256);  // borrows
  borrowed.samples.push_back(std::move(s1));

  WireBatch owned;
  WireSample s2;
  s2.index = 1;
  s2.bytes = std::vector<std::uint8_t>(backing.begin(), backing.begin() + 256);  // adopts
  owned.samples.push_back(std::move(s2));

  EXPECT_FALSE(borrowed.samples[0].bytes.owns_storage());
  EXPECT_TRUE(owned.samples[0].bytes.owns_storage());
  EXPECT_EQ(BatchCodec::encode(borrowed), BatchCodec::encode(owned).view());
}

// ------------------------------------------------------- spliced encoding

/// A batch whose samples have exactly the given sizes (owning storage).
WireBatch batch_of_sizes(std::initializer_list<std::size_t> sizes) {
  WireBatch b = make_batch(0, 0);
  Rng rng(11);
  std::uint64_t index = 500;
  for (std::size_t n : sizes) {
    WireSample s;
    s.index = index++;
    s.label = -static_cast<std::int64_t>(index % 7);
    std::vector<std::uint8_t> payload(n);
    for (auto& x : payload) x = static_cast<std::uint8_t>(rng());
    s.bytes = std::move(payload);
    b.samples.push_back(std::move(s));
  }
  return b;
}

struct SpliceCase {
  const char* name;
  WireBatch batch;
};

std::vector<SpliceCase> splice_cases() {
  constexpr std::size_t kT = BatchCodec::kSpliceMinBytes;
  std::vector<SpliceCase> cases;
  cases.push_back({"sentinel", BatchCodec::make_sentinel(3, 9, 41)});
  cases.push_back({"empty_sample", batch_of_sizes({0})});
  cases.push_back({"bin8_edge", batch_of_sizes({255, 256})});
  cases.push_back({"bin16_edge", batch_of_sizes({65535, 65536})});
  cases.push_back({"both_sides_of_threshold",
                   batch_of_sizes({kT - 1, kT, 17, kT + 1, 0, 3 * kT, 4096})});
  WireBatch traced = batch_of_sizes({kT, 100, 2 * kT});
  traced.trace_origin_ns = 0x1234567890ull;
  cases.push_back({"trace_origin_set", std::move(traced)});
  return cases;
}

// The spliced message, flattened, is byte-identical to the contiguous
// encoding and decodes to the same batch — at the data plane's threshold
// and with every sample spliced (every bin header width, empty samples).
TEST(BatchCodecSplice, FlattenedEqualsContiguousEncoding) {
  auto pool = BufferPool::create();
  for (const auto& c : splice_cases()) {
    const Payload contiguous = BatchCodec::encode(c.batch);
    for (std::size_t splice_min : {BatchCodec::kSpliceMinBytes, std::size_t{0}}) {
      SCOPED_TRACE(std::string(c.name) + " splice_min=" + std::to_string(splice_min));
      SplicedPayload msg = splice_min == BatchCodec::kSpliceMinBytes
                               ? BatchCodec::encode_spliced(c.batch, *pool)
                               : detail::encode_spliced(c.batch, *pool, splice_min);
      std::size_t expect_splices = 0;
      for (const auto& s : c.batch.samples) expect_splices += s.bytes.size() >= splice_min;
      EXPECT_EQ(msg.splices().size(), expect_splices);
      EXPECT_EQ(msg.size(), contiguous.size());
      const Payload flat = std::move(msg).flatten(*pool);
      EXPECT_EQ(flat, contiguous.view());
      EXPECT_EQ(BatchCodec::decode(flat), c.batch);
    }
  }
}

TEST(BatchCodecSplice, SplicedSampleBytesAreNeverCopiedOnEncode) {
  constexpr std::size_t kT = BatchCodec::kSpliceMinBytes;
  const WireBatch b = batch_of_sizes({kT, 64, 2 * kT, kT - 1});
  auto pool = BufferPool::create();
  PayloadCounters::reset();
  SplicedPayload msg = BatchCodec::encode_spliced(b, *pool);
  EXPECT_EQ(PayloadCounters::bytes_copied.load(), 0u);
  // The head holds the small samples and every header, not the big ones...
  EXPECT_LT(msg.head().size(), 64 + (kT - 1) + 128);
  // ...which are the samples' own storage, spliced in by reference.
  ASSERT_EQ(msg.splices().size(), 2u);
  EXPECT_TRUE(msg.splices()[0].bytes.shares_storage_with(b.samples[0].bytes));
  EXPECT_EQ(msg.splices()[0].bytes.data(), b.samples[0].bytes.data());
  EXPECT_TRUE(msg.splices()[1].bytes.shares_storage_with(b.samples[2].bytes));
  EXPECT_EQ(msg.splices()[1].bytes.data(), b.samples[2].bytes.data());
  // Flattening — the fallback for sinks that cannot gather — is the one
  // deep copy, and it is counted.
  const Payload flat = std::move(msg).flatten(*pool);
  EXPECT_EQ(PayloadCounters::bytes_copied.load(), flat.size());
}

TEST(BatchCodecSplice, BorrowedSamplesAreCopiedNotSpliced) {
  // A spliced view must own its bytes — the message outlives the encode
  // call — so a borrowed sample of any size is copied into the head.
  std::vector<std::uint8_t> backing(2 * BatchCodec::kSpliceMinBytes, 0x5A);
  WireBatch b = make_batch(0, 0);
  WireSample s;
  s.bytes = std::span<const std::uint8_t>(backing);
  b.samples.push_back(std::move(s));
  auto pool = BufferPool::create();
  const SplicedPayload msg = BatchCodec::encode_spliced(b, *pool);
  EXPECT_TRUE(msg.splices().empty());
  EXPECT_EQ(msg.head(), BatchCodec::encode(b).view());
}

class BatchSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchSizeSweep, RoundTripAtSize) {
  auto b = make_batch(GetParam(), 64);
  EXPECT_EQ(BatchCodec::decode(BatchCodec::encode(b)), b);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchSizeSweep, ::testing::Values(1, 2, 15, 16, 17, 128, 300));

}  // namespace
}  // namespace emlio::msgpack
