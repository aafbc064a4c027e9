// Unit tests for the utility kit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "util/bucket_queue.h"
#include "util/checksum.h"
#include "util/epoch_array.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"

namespace wcsd {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool diverged = false;
  for (int i = 0; i < 10; ++i) diverged |= (a.Next() != b.Next());
  EXPECT_TRUE(diverged);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, BoundedCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextInRange(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(EpochArray, DefaultsBeforeWrite) {
  EpochArray<int> arr(4, -1);
  EXPECT_EQ(arr.Get(0), -1);
  EXPECT_FALSE(arr.Contains(0));
}

TEST(EpochArray, SetAndGet) {
  EpochArray<int> arr(4, -1);
  arr.Set(2, 42);
  EXPECT_EQ(arr.Get(2), 42);
  EXPECT_TRUE(arr.Contains(2));
  EXPECT_EQ(arr.Get(1), -1);
}

TEST(EpochArray, ClearResetsLogically) {
  EpochArray<int> arr(4, 0);
  arr.Set(1, 5);
  arr.Clear();
  EXPECT_EQ(arr.Get(1), 0);
  EXPECT_FALSE(arr.Contains(1));
  arr.Set(1, 7);
  EXPECT_EQ(arr.Get(1), 7);
}

TEST(EpochArray, ManyClearsStayCorrect) {
  EpochArray<int> arr(2, 0);
  for (int round = 0; round < 10000; ++round) {
    arr.Set(0, round);
    EXPECT_EQ(arr.Get(0), round);
    arr.Clear();
    EXPECT_EQ(arr.Get(0), 0);
  }
}

TEST(BucketQueue, PopsInKeyOrder) {
  BucketQueue q(5);
  q.Push(0, 3);
  q.Push(1, 1);
  q.Push(2, 2);
  EXPECT_EQ(q.PopMin(), 1u);
  EXPECT_EQ(q.PopMin(), 2u);
  EXPECT_EQ(q.PopMin(), 0u);
  EXPECT_TRUE(q.Empty());
}

TEST(BucketQueue, UpdateKeyTakesEffect) {
  BucketQueue q(3);
  q.Push(0, 5);
  q.Push(1, 4);
  q.Push(0, 1);  // Decrease 0's key below 1's.
  EXPECT_EQ(q.PopMin(), 0u);
  EXPECT_EQ(q.PopMin(), 1u);
  EXPECT_TRUE(q.Empty());
}

TEST(BucketQueue, EraseRemoves) {
  BucketQueue q(3);
  q.Push(0, 1);
  q.Push(1, 2);
  q.Erase(0);
  EXPECT_EQ(q.PopMin(), 1u);
  EXPECT_TRUE(q.Empty());
}

TEST(BucketQueue, MinBucketCanMoveDown) {
  BucketQueue q(4);
  q.Push(0, 10);
  EXPECT_EQ(q.PopMin(), 0u);
  q.Push(1, 2);  // Below the previously scanned minimum.
  EXPECT_FALSE(q.Empty());
  EXPECT_EQ(q.PopMin(), 1u);
}

// Bit-at-a-time CRC-32C, the definition the table-driven Crc32c must match.
uint32_t BitwiseCrc32c(const unsigned char* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32c, CheckValue) {
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(digits, 0, 0x1234u), 0x1234u);
}

TEST(Crc32c, MatchesBitwiseAtEveryLengthAndAlignment) {
  std::vector<unsigned char> buffer(64 + 8);
  Rng rng(7);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng.Next());
  for (uint32_t seed : {0u, 0xFFFFFFFFu}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t size = 0; size <= 64; ++size) {
        const unsigned char* data = buffer.data() + offset;
        EXPECT_EQ(Crc32c(data, size, seed), BitwiseCrc32c(data, size, seed))
            << "seed " << seed << " offset " << offset << " size " << size;
      }
    }
  }
}

TEST(Crc32c, ChainedCallsEqualOneCall) {
  std::vector<unsigned char> buffer(200);
  Rng rng(11);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng.Next());
  const uint32_t whole = Crc32c(buffer.data(), buffer.size());
  EXPECT_EQ(whole, BitwiseCrc32c(buffer.data(), buffer.size(), 0));
  for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{13},
                     size_t{64}, size_t{199}, size_t{200}}) {
    const uint32_t head = Crc32c(buffer.data(), cut);
    EXPECT_EQ(Crc32c(buffer.data() + cut, buffer.size() - cut, head), whole)
        << "cut " << cut;
  }
}

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "x", "--gamma"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_EQ(flags.GetString("beta", ""), "x");
  EXPECT_TRUE(flags.GetBool("gamma", false));
  EXPECT_FALSE(flags.Has("delta"));
  EXPECT_EQ(flags.GetInt("delta", -7), -7);
}

TEST(Flags, ParsesDoublesAndBools) {
  const char* argv[] = {"prog", "--scale=0.5", "--verbose=false"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.5);
  EXPECT_FALSE(flags.GetBool("verbose", true));
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IoError: disk on fire");
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> ok_result(5);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.value(), 5);
  Result<int> err_result(Status::NotFound("nope"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kNotFound);
}

TEST(Timer, MeasuresNonNegativeMonotonicTime) {
  Timer t;
  double a = t.Seconds();
  double b = t.Seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.Restart();
  EXPECT_GE(t.Micros(), 0.0);
}

}  // namespace
}  // namespace wcsd
