#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "sched/queue.hpp"

namespace dpn {
namespace {

TEST(Bytes, EndianRoundTrip16) {
  std::uint8_t buf[2];
  put_u16(buf, 0xbeef);
  EXPECT_EQ(buf[0], 0xbe);
  EXPECT_EQ(buf[1], 0xef);
  EXPECT_EQ(get_u16(buf), 0xbeef);
}

TEST(Bytes, EndianRoundTrip32) {
  std::uint8_t buf[4];
  put_u32(buf, 0xdeadbeefu);
  EXPECT_EQ(buf[0], 0xde);
  EXPECT_EQ(buf[3], 0xef);
  EXPECT_EQ(get_u32(buf), 0xdeadbeefu);
}

TEST(Bytes, EndianRoundTrip64) {
  std::uint8_t buf[8];
  const std::uint64_t value = 0x0123456789abcdefULL;
  put_u64(buf, value);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0xef);
  EXPECT_EQ(get_u64(buf), value);
}

TEST(Bytes, DoubleBitsRoundTrip) {
  for (const double d : {0.0, -0.0, 1.5, -3.25e-10, 1e308}) {
    EXPECT_EQ(bits_to_double(double_to_bits(d)), d);
  }
}

TEST(Bytes, FloatBitsRoundTrip) {
  for (const float f : {0.0f, 1.5f, -2.75f}) {
    EXPECT_EQ(bits_to_float(float_to_bits(f)), f);
  }
}

TEST(Bytes, HexDump) {
  const ByteVector data{0x00, 0xff, 0x10};
  EXPECT_EQ(to_hex({data.data(), data.size()}), "00ff10");
}

TEST(Bytes, StringConversion) {
  const std::string s = "hello";
  EXPECT_EQ(to_string(as_bytes(s)), s);
}

TEST(Rng, SplitMixDeterministic) {
  SplitMix64 a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroDeterministic) {
  Xoshiro256 a{7}, b{7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRange) {
  Xoshiro256 rng{11};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Xoshiro256 rng{13};
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 800; ++i) ++seen[rng.below(8)];
  for (const int count : seen) EXPECT_GT(count, 0);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Xoshiro256 rng{3};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// The queue itself moved to sched/queue.hpp (pop suspends fibers under
// the M:N scheduler); the plain-thread semantics tested here are
// unchanged.  sched_test covers the fiber path.
using sched::BlockingQueue;

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> queue;
  queue.push(1);
  queue.push(2);
  queue.push(3);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), 3);
}

TEST(BlockingQueue, PopBlocksUntilPush) {
  BlockingQueue<int> queue;
  std::jthread producer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    queue.push(42);
  }};
  EXPECT_EQ(queue.pop(), 42);
}

TEST(BlockingQueue, CloseDrainsThenNullopt) {
  BlockingQueue<int> queue;
  queue.push(1);
  queue.close();
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_FALSE(queue.push(2));  // rejected after close
}

TEST(BlockingQueue, CloseWakesBlockedPop) {
  BlockingQueue<int> queue;
  std::jthread closer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    queue.close();
  }};
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BlockingQueue, TryPop) {
  BlockingQueue<int> queue;
  EXPECT_EQ(queue.try_pop(), std::nullopt);
  queue.push(9);
  EXPECT_EQ(queue.try_pop(), 9);
}

TEST(BlockingQueue, ConcurrentProducersAllDelivered) {
  BlockingQueue<int> queue;
  constexpr int kProducers = 8;
  constexpr int kEach = 200;
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&queue, p] {
        for (int i = 0; i < kEach; ++i) queue.push(p * kEach + i);
      });
    }
  }
  queue.close();
  std::vector<bool> seen(kProducers * kEach, false);
  while (auto item = queue.pop()) seen[static_cast<std::size_t>(*item)] = true;
  for (const bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace dpn
