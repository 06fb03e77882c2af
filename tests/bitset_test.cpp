//===- tests/bitset_test.cpp - support/BitSet word-boundary edges ---------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "support/BitSet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace vif;

namespace {

// The sizes the satellite spec calls out: empty, one-under, exactly-one,
// and one-over a 64-bit word.
const size_t BoundarySizes[] = {0, 63, 64, 65};

TEST(BitSet, EmptyUniverse) {
  BitSet B(0);
  EXPECT_EQ(B.size(), 0u);
  EXPECT_TRUE(B.none());
  EXPECT_EQ(B.count(), 0u);
  BitSet C(0);
  EXPECT_TRUE(B == C);
  EXPECT_FALSE(B.unionWith(C)) << "∅ ∪ ∅ does not grow";
  B.intersectWith(C);
  B.subtract(C);
  B.forEach([](size_t) { FAIL() << "no bits to visit"; });
}

TEST(BitSet, SetTestResetAcrossBoundaries) {
  for (size_t N : BoundarySizes) {
    if (N == 0)
      continue;
    BitSet B(N);
    for (size_t I = 0; I < N; ++I)
      EXPECT_FALSE(B.test(I)) << "fresh set, size " << N;
    // First, last, and the word-straddling bits when present.
    std::vector<size_t> Probe = {0, N - 1};
    if (N > 63)
      Probe.push_back(63);
    if (N > 64)
      Probe.push_back(64);
    for (size_t I : Probe) {
      B.set(I);
      EXPECT_TRUE(B.test(I)) << "size " << N << " bit " << I;
    }
    EXPECT_EQ(B.count(), [&] {
      std::vector<size_t> Dedup = Probe;
      std::sort(Dedup.begin(), Dedup.end());
      Dedup.erase(std::unique(Dedup.begin(), Dedup.end()), Dedup.end());
      return Dedup.size();
    }());
    for (size_t I : Probe) {
      B.reset(I);
      EXPECT_FALSE(B.test(I));
    }
    EXPECT_TRUE(B.none());
  }
}

TEST(BitSet, LastWordIsNotSharedWithNeighbors) {
  // Setting the final bit of a 65-bit set must not disturb bit 63/0.
  BitSet B(65);
  B.set(64);
  EXPECT_FALSE(B.test(63));
  EXPECT_FALSE(B.test(0));
  EXPECT_EQ(B.count(), 1u);
  B.set(63);
  EXPECT_EQ(B.count(), 2u);
}

TEST(BitSet, UnionGrewDetection) {
  for (size_t N : BoundarySizes) {
    if (N == 0)
      continue;
    BitSet A(N), B(N);
    B.set(N - 1);
    EXPECT_TRUE(A.unionWith(B)) << "gaining the last bit grows, size " << N;
    EXPECT_FALSE(A.unionWith(B)) << "second union is a no-op, size " << N;
    EXPECT_TRUE(A == B);
    // Growing by a bit in the first word while the last word is equal.
    BitSet C(N);
    C.set(0);
    EXPECT_TRUE(A.unionWith(C));
    EXPECT_EQ(A.count(), N == 1 ? 1u : 2u);
  }
}

TEST(BitSet, SubtractAndIntersect) {
  BitSet A(65), B(65);
  for (size_t I : {size_t(0), size_t(5), size_t(63), size_t(64)})
    A.set(I);
  B.set(5);
  B.set(64);
  BitSet I = A;
  I.intersectWith(B);
  EXPECT_EQ(I.count(), 2u);
  EXPECT_TRUE(I.test(5));
  EXPECT_TRUE(I.test(64));
  A.subtract(B);
  EXPECT_EQ(A.count(), 2u);
  EXPECT_TRUE(A.test(0));
  EXPECT_TRUE(A.test(63));
  EXPECT_FALSE(A.test(64));
}

TEST(BitSet, ForEachVisitsAscending) {
  BitSet B(65);
  std::vector<size_t> Expected = {0, 31, 32, 63, 64};
  for (size_t I : Expected)
    B.set(I);
  std::vector<size_t> Seen;
  B.forEach([&Seen](size_t I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, Expected);
}

TEST(BitSet, EqualityIsSizeAndContent) {
  BitSet A(64), B(65);
  EXPECT_FALSE(A == B) << "same content, different universes";
  BitSet C(64);
  C.set(63);
  EXPECT_TRUE(A != C);
  A.set(63);
  EXPECT_TRUE(A == C);
  A.clearAll();
  EXPECT_TRUE(A.none());
  EXPECT_EQ(A.size(), 64u);
}

TEST(BitMatrix, RowsShareOneBufferAcrossWordBoundaries) {
  for (size_t Bits : {size_t(0), size_t(1), size_t(63), size_t(64),
                      size_t(65)}) {
    BitMatrix M(3, Bits);
    EXPECT_EQ(M.numRows(), 3u);
    EXPECT_EQ(M.numBits(), Bits);
    // Rows are padded to a multiple of 4 words (32-byte stride) so the
    // unrolled union kernels run tail-free.
    EXPECT_EQ(M.wordsPerRow(), ((Bits + 63) / 64 + 3) & ~size_t(3));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(M.row(0)) % 32, 0u)
        << "rows must be 32-byte aligned";
    if (Bits == 0)
      continue;
    M.set(0, 0);
    M.set(0, Bits - 1);
    M.set(2, Bits - 1);
    EXPECT_TRUE(M.test(0, 0));
    EXPECT_TRUE(M.test(0, Bits - 1));
    EXPECT_FALSE(M.test(1, 0)) << "rows must not alias";
    EXPECT_FALSE(M.test(1, Bits - 1));
    EXPECT_TRUE(M.test(2, Bits - 1));
  }
}

TEST(BitMatrix, SpanOperationsMatchBitSetSemantics) {
  size_t K = 65, W = (K + 63) / 64;
  BitMatrix M(4, K);
  M.set(0, 0);
  M.set(0, 64);
  M.set(1, 5);
  M.set(1, 64);

  // orInto reports growth exactly when a new bit appears.
  EXPECT_TRUE(BitMatrix::orInto(M.row(2), M.row(0), W));
  EXPECT_FALSE(BitMatrix::orInto(M.row(2), M.row(0), W)) << "idempotent";
  EXPECT_TRUE(BitMatrix::orInto(M.row(2), M.row(1), W));
  EXPECT_FALSE(BitMatrix::equal(M.row(2), M.row(0), W));

  // andWith: {0,64} ∩ {5,64} = {64}, crossing the word boundary.
  BitMatrix::copy(M.row(3), M.row(0), W);
  BitMatrix::andWith(M.row(3), M.row(1), W);
  std::vector<size_t> Seen;
  BitMatrix::forEachBit(M.row(3), W, [&](size_t I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<size_t>{64}));
  BitMatrix::clear(M.row(3), W);
  BitMatrix::forEachBit(M.row(3), W, [&](size_t) { FAIL(); });

  // reset() clears content and reshapes (padded to 4-word rows).
  M.reset(2, 63);
  EXPECT_EQ(M.wordsPerRow(), 4u);
  EXPECT_FALSE(M.test(0, 0));
}

TEST(BitMatrix, ClearRangeClearsExactlyTheRange) {
  // Ranges inside one word, ending on a word boundary, and spanning
  // several words, against a bit-by-bit model.
  size_t K = 200, W = (K + 63) / 64;
  for (auto [First, Last] :
       {std::pair<size_t, size_t>{3, 3}, {3, 4}, {0, 64}, {5, 63},
        {60, 70}, {63, 129}, {64, 128}, {1, 200}, {0, 200}}) {
    BitMatrix M(1, K);
    for (size_t I = 0; I < K; ++I)
      M.set(0, I);
    BitMatrix::clearRange(M.row(0), First, Last);
    for (size_t I = 0; I < K; ++I)
      EXPECT_EQ(M.test(0, I), I < First || I >= Last)
          << "[" << First << ", " << Last << ") bit " << I;
    BitMatrix::forEachBit(M.row(0), W, [&](size_t I) { EXPECT_LT(I, K); });
  }
}

} // namespace
