// Unit tests for the zero-copy payload layer: Payload / PayloadView
// ownership semantics, slicing, and BufferPool recycling.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/payload.h"

namespace emlio {
namespace {

std::vector<std::uint8_t> bytes_0_to(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i);
  return v;
}

TEST(Payload, DefaultIsEmpty) {
  Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.use_count(), 0);
  EXPECT_EQ(p, Payload());
}

TEST(Payload, AdoptsVectorWithoutCopy) {
  auto v = bytes_0_to(100);
  const std::uint8_t* raw = v.data();
  Payload p(std::move(v));
  EXPECT_EQ(p.size(), 100u);
  EXPECT_EQ(p.data(), raw);  // same storage, no copy
  EXPECT_EQ(p.use_count(), 1);
}

TEST(Payload, CopyBumpsRefcountNotBytes) {
  Payload a(bytes_0_to(16));
  Payload b = a;
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(a, b);
}

TEST(Payload, CopyOfCountsTheCopy) {
  auto v = bytes_0_to(64);
  PayloadCounters::reset();
  Payload p = Payload::copy_of(v);
  EXPECT_EQ(PayloadCounters::bytes_copied.load(), 64u);
  EXPECT_NE(p.data(), v.data());
  EXPECT_EQ(p, v);
}

TEST(Payload, SliceSharesStorage) {
  Payload p(bytes_0_to(32));
  PayloadView s = p.slice(8, 4);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.data(), p.data() + 8);
  EXPECT_TRUE(s.shares_storage_with(p));
  EXPECT_EQ(p.use_count(), 2);
  EXPECT_EQ(s[0], 8);
  EXPECT_THROW(p.slice(30, 4), std::out_of_range);
  EXPECT_THROW(p.slice(33, 0), std::out_of_range);
}

TEST(Payload, SliceKeepsStorageAliveAfterPayloadDrops) {
  PayloadView view;
  {
    Payload p(bytes_0_to(16));
    view = p.slice(4, 8);
  }  // last Payload handle gone; the view still owns the storage
  EXPECT_TRUE(view.owns_storage());
  EXPECT_EQ(view.size(), 8u);
  EXPECT_EQ(view[0], 4);
}

TEST(PayloadView, BorrowedViewDoesNotOwn) {
  auto v = bytes_0_to(10);
  PayloadView borrowed(v);  // lvalue vector → borrow
  EXPECT_FALSE(borrowed.owns_storage());
  EXPECT_EQ(borrowed.data(), v.data());
  PayloadView sub = borrowed.slice(2, 3);
  EXPECT_FALSE(sub.owns_storage());
  EXPECT_EQ(sub.data(), v.data() + 2);
}

TEST(PayloadView, AdoptedViewOwns) {
  PayloadView owned(bytes_0_to(10));  // rvalue vector → adopt
  EXPECT_TRUE(owned.owns_storage());
  PayloadView sub = owned.slice(0, 5);
  EXPECT_TRUE(sub.owns_storage());
  EXPECT_TRUE(sub.shares_storage_with(owned));
}

TEST(PayloadView, EqualityIsContentBased) {
  auto v = bytes_0_to(6);
  PayloadView borrowed(v);
  PayloadView owned(bytes_0_to(6));
  PayloadView literal{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(borrowed, owned);
  EXPECT_EQ(owned, literal);
  EXPECT_NE(owned, (PayloadView{0, 1, 2}));
  EXPECT_FALSE(borrowed.shares_storage_with(owned));  // equal content, distinct storage
}

TEST(PayloadView, ToVectorDeepCopies) {
  PayloadView view{9, 9, 9};
  auto out = view.to_vector();
  EXPECT_EQ(out, (std::vector<std::uint8_t>{9, 9, 9}));
  EXPECT_NE(out.data(), view.data());
}

TEST(BufferPool, RecyclesOnLastRelease) {
  auto pool = BufferPool::create(8);
  const std::uint8_t* first_storage = nullptr;
  {
    ByteBuffer buf = pool->acquire(256);
    buf.push_bytes(std::string_view("hello"));
    Payload p = pool->seal(std::move(buf));
    first_storage = p.data();
    PayloadView view = p.slice(0, 5);
    EXPECT_EQ(pool->stats().returned, 0u);  // view still holds the buffer
  }
  EXPECT_EQ(pool->stats().returned, 1u);
  ByteBuffer again = pool->acquire(1);
  again.push_u8(0xAB);
  Payload p2 = pool->seal(std::move(again));
  EXPECT_EQ(p2.data(), first_storage);  // same recycled storage block
  EXPECT_EQ(pool->stats().reused, 1u);
}

TEST(BufferPool, CapsIdleBuffers) {
  auto pool = BufferPool::create(2);
  {
    std::vector<Payload> live;
    for (int i = 0; i < 5; ++i) {
      ByteBuffer buf = pool->acquire(8);
      buf.push_u8(static_cast<std::uint8_t>(i));
      live.push_back(pool->seal(std::move(buf)));
    }
  }  // all five released at once; only two may be kept
  auto stats = pool->stats();
  EXPECT_EQ(stats.idle, 2u);
  EXPECT_EQ(stats.returned, 2u);
  EXPECT_EQ(stats.dropped, 3u);
}

TEST(BufferPool, OversizedBuffersAreFreedNotRecycled) {
  auto pool = BufferPool::create(/*max_idle_buffers=*/8, /*max_buffer_bytes=*/1024);
  {
    ByteBuffer big = pool->acquire(4096);  // grows past the retention cap
    big.resize(4096);
    Payload p = pool->seal(std::move(big));
  }
  auto stats = pool->stats();
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.returned, 0u);
  EXPECT_EQ(stats.idle, 0u);
  {
    ByteBuffer small = pool->acquire(64);
    small.push_u8(1);
    Payload p = pool->seal(std::move(small));
  }
  EXPECT_EQ(pool->stats().returned, 1u);  // within the cap → recycled
}

TEST(BufferPool, SealedPayloadOutlivesPool) {
  Payload p;
  {
    auto pool = BufferPool::create(4);
    ByteBuffer buf = pool->acquire(4);
    buf.push_u32le(0xDEADBEEF);
    p = pool->seal(std::move(buf));
  }
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0], 0xEF);
}

TEST(BufferPool, ConcurrentAcquireSealRelease) {
  auto pool = BufferPool::create(16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < 200; ++i) {
        ByteBuffer buf = pool->acquire(64);
        buf.push_u32le(static_cast<std::uint32_t>(t * 1000 + i));
        Payload p = pool->seal(std::move(buf));
        PayloadView v = p.slice(0, 4);
        ASSERT_EQ(v.size(), 4u);
      }
    });
  }
  for (auto& th : threads) th.join();
  auto stats = pool->stats();
  EXPECT_EQ(stats.reused + stats.allocated, 800u);
}

TEST(BufferPool, AcquireForOverwriteLeavesRecycledBytesAlone) {
  auto pool = BufferPool::create(4);
  const std::uint8_t* storage = nullptr;
  {
    ByteBuffer buf = pool->acquire_for_overwrite(64);
    ASSERT_EQ(buf.size(), 64u);
    for (std::size_t i = 0; i < 64; ++i) buf.data()[i] = static_cast<std::uint8_t>(0xC0 + i);
    storage = buf.data();
    Payload p = pool->seal(std::move(buf));
  }  // recycled
  ByteBuffer again = pool->acquire_for_overwrite(48);
  ASSERT_EQ(again.size(), 48u);
  EXPECT_EQ(again.data(), storage);
  for (std::size_t i = 0; i < 48; ++i) {
    EXPECT_EQ(again.data()[i], static_cast<std::uint8_t>(0xC0 + i)) << "byte " << i;
  }
}

TEST(SplicedPayload, PiecesInterleaveHeadAndSplicesInWireOrder) {
  Payload head(std::vector<std::uint8_t>{1, 2, 3, 4});
  std::vector<SplicedPayload::Splice> splices;
  splices.push_back({0, PayloadView(std::vector<std::uint8_t>{10})});
  splices.push_back({2, PayloadView(std::vector<std::uint8_t>{20, 21})});
  splices.push_back({2, PayloadView(std::vector<std::uint8_t>{})});
  splices.push_back({4, PayloadView(std::vector<std::uint8_t>{30})});
  SplicedPayload msg(head, std::move(splices));
  EXPECT_EQ(msg.size(), 8u);
  std::vector<std::vector<std::uint8_t>> pieces;
  msg.for_each_piece(
      [&](std::span<const std::uint8_t> p) { pieces.emplace_back(p.begin(), p.end()); });
  const std::vector<std::vector<std::uint8_t>> want = {{10}, {1, 2}, {20, 21}, {3, 4}, {30}};
  EXPECT_EQ(pieces, want);
  auto pool = BufferPool::create();
  EXPECT_EQ(std::move(msg).flatten(*pool),
            (std::vector<std::uint8_t>{10, 1, 2, 20, 21, 3, 4, 30}));
  // Without splices the message IS its head: flatten hands it back, no copy.
  SplicedPayload plain(head);
  EXPECT_EQ(std::move(plain).flatten(*pool).data(), head.data());
}

TEST(SplicedPayload, RejectsMisplacedOrBorrowedSplices) {
  Payload head(std::vector<std::uint8_t>{1, 2, 3});
  auto one = [](std::size_t at, PayloadView bytes) {
    std::vector<SplicedPayload::Splice> v;
    v.push_back({at, std::move(bytes)});
    return v;
  };
  EXPECT_THROW(SplicedPayload(head, one(4, std::vector<std::uint8_t>{9})), std::invalid_argument);
  std::vector<SplicedPayload::Splice> backwards;
  backwards.push_back({2, PayloadView(std::vector<std::uint8_t>{9})});
  backwards.push_back({1, PayloadView(std::vector<std::uint8_t>{9})});
  EXPECT_THROW(SplicedPayload(head, std::move(backwards)), std::invalid_argument);
  std::vector<std::uint8_t> caller_owned{7, 7};
  EXPECT_THROW(SplicedPayload(head, one(1, PayloadView(caller_owned))), std::invalid_argument);
}

}  // namespace
}  // namespace emlio
