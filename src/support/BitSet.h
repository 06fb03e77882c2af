//===- support/BitSet.h - Packed fixed-universe bit set ---------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A packed bit set over a fixed universe 0..size()-1, stored as uint64
/// words with word-at-a-time lattice operations. This is the dense carrier
/// the paper's Section 7 has in mind when it calls the analysis "a
/// combination of three bit-vector frameworks": the rd solvers number
/// their (Resource, Label) domains densely (rd/DenseDomain.h) and run the
/// fixpoints over BitSets instead of sorted-vector PairSets.
///
/// All binary operations require both operands to share one universe size;
/// unionWith returns whether any bit was newly set, which is exactly the
/// grew-check the worklist solvers need.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_SUPPORT_BITSET_H
#define VIF_SUPPORT_BITSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vif {

/// The word-span union kernels every bit-vector consumer funnels through
/// (BitSet::unionWith, BitMatrix::orInto, the Warshall closure's row
/// union). Unrolled four words wide with independent grew accumulators,
/// so the loop body is a straight-line dependency-free block the
/// autovectorizer turns into 256-bit lanes; BitMatrix aligns and pads
/// its rows (32-byte rows, wordsPerRow a multiple of 4) so the unrolled
/// loop runs tail-free and aligned on matrix rows. bench/bench_bitset.cpp
/// pins the throughput.
namespace bits {

/// Dst |= Src over \p W words; returns true if Dst grew. Safe under
/// Dst == Src (reports no growth).
inline bool orInto(uint64_t *Dst, const uint64_t *Src, size_t W) {
  uint64_t G0 = 0, G1 = 0, G2 = 0, G3 = 0;
  size_t I = 0;
  for (; I + 4 <= W; I += 4) {
    uint64_t N0 = Dst[I + 0] | Src[I + 0];
    uint64_t N1 = Dst[I + 1] | Src[I + 1];
    uint64_t N2 = Dst[I + 2] | Src[I + 2];
    uint64_t N3 = Dst[I + 3] | Src[I + 3];
    G0 |= N0 ^ Dst[I + 0];
    G1 |= N1 ^ Dst[I + 1];
    G2 |= N2 ^ Dst[I + 2];
    G3 |= N3 ^ Dst[I + 3];
    Dst[I + 0] = N0;
    Dst[I + 1] = N1;
    Dst[I + 2] = N2;
    Dst[I + 3] = N3;
  }
  for (; I < W; ++I) {
    uint64_t New = Dst[I] | Src[I];
    G0 |= New ^ Dst[I];
    Dst[I] = New;
  }
  return (G0 | G1 | G2 | G3) != 0;
}

/// Dst |= Src without the grew check — the Warshall inner loop, where
/// the guard bit already told us the union is wanted.
inline void orWords(uint64_t *Dst, const uint64_t *Src, size_t W) {
  size_t I = 0;
  for (; I + 4 <= W; I += 4) {
    Dst[I + 0] |= Src[I + 0];
    Dst[I + 1] |= Src[I + 1];
    Dst[I + 2] |= Src[I + 2];
    Dst[I + 3] |= Src[I + 3];
  }
  for (; I < W; ++I)
    Dst[I] |= Src[I];
}

} // namespace bits

class BitSet {
public:
  BitSet() = default;
  explicit BitSet(size_t NumBits) { resize(NumBits); }

  /// Resets to \p NumBits bits, all clear.
  void resize(size_t NumBits) {
    NumBitsVal = NumBits;
    Words.assign((NumBits + 63) / 64, 0);
  }

  size_t size() const { return NumBitsVal; }

  void set(size_t I) {
    assert(I < NumBitsVal && "bit index out of range");
    Words[I >> 6] |= uint64_t(1) << (I & 63);
  }

  void reset(size_t I) {
    assert(I < NumBitsVal && "bit index out of range");
    Words[I >> 6] &= ~(uint64_t(1) << (I & 63));
  }

  bool test(size_t I) const {
    assert(I < NumBitsVal && "bit index out of range");
    return (Words[I >> 6] >> (I & 63)) & 1;
  }

  /// this := this ∪ O; returns true if this grew.
  bool unionWith(const BitSet &O) {
    assert(O.NumBitsVal == NumBitsVal && "universe mismatch");
    return bits::orInto(Words.data(), O.Words.data(), Words.size());
  }

  /// this := this ∩ O.
  void intersectWith(const BitSet &O) {
    assert(O.NumBitsVal == NumBitsVal && "universe mismatch");
    for (size_t I = 0; I < Words.size(); ++I)
      Words[I] &= O.Words[I];
  }

  /// this := this \ O (and-not).
  void subtract(const BitSet &O) {
    assert(O.NumBitsVal == NumBitsVal && "universe mismatch");
    for (size_t I = 0; I < Words.size(); ++I)
      Words[I] &= ~O.Words[I];
  }

  /// Clears every bit, keeping the universe size.
  void clearAll() {
    for (uint64_t &W : Words)
      W = 0;
  }

  bool none() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }

  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  /// Calls \p F(index) for every set bit, ascending.
  template <typename Fn> void forEach(Fn F) const {
    for (size_t WI = 0; WI < Words.size(); ++WI) {
      uint64_t W = Words[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        F((WI << 6) + Bit);
        W &= W - 1;
      }
    }
  }

  bool operator==(const BitSet &O) const {
    return NumBitsVal == O.NumBitsVal && Words == O.Words;
  }
  bool operator!=(const BitSet &O) const { return !(*this == O); }

  /// The backing words, bit I in word I / 64; bits past size() are clear.
  const std::vector<uint64_t> &words() const { return Words; }

  /// Heap footprint in bytes (cache byte-budget accounting).
  size_t memoryBytes() const { return Words.capacity() * sizeof(uint64_t); }

private:
  size_t NumBitsVal = 0;
  std::vector<uint64_t> Words;
};

/// A fixed-universe matrix of bit rows in one flat word buffer — the
/// allocation-amortized form of vector<BitSet>. The rd solvers hold all
/// their per-label Kill/Gen/Entry/Exit sets as rows of a few matrices
/// (one allocation each) instead of thousands of individual BitSets,
/// which is what keeps the dense solvers ahead of the sorted-vector ones
/// even on Fig5-size programs.
///
/// Row operations take raw word pointers (row(I)), so rows of different
/// matrices with the same universe combine freely.
class BitMatrix {
public:
  BitMatrix() = default;
  BitMatrix(size_t NumRows, size_t NumBits) { reset(NumRows, NumBits); }
  // Base points into Words, so copies re-align against their own buffer
  // and copy row payloads (the aligned start may sit at a different
  // element offset in the new allocation). Moves keep the buffer and
  // with it the pointer.
  BitMatrix(const BitMatrix &O) { *this = O; }
  BitMatrix &operator=(const BitMatrix &O) {
    if (this != &O) {
      reset(O.Rows, O.Bits);
      if (Rows)
        copy(row(0), O.row(0), Rows * WPR);
    }
    return *this;
  }
  BitMatrix(BitMatrix &&) = default;
  BitMatrix &operator=(BitMatrix &&) = default;

  /// Resets to \p NumRows rows of \p NumBits bits, all clear, reusing
  /// the buffer's capacity when it suffices (for callers that solve many
  /// fixpoints with one scratch matrix). Rows are padded to a multiple
  /// of 4 words and the first row is placed on a 32-byte boundary, so
  /// every row is 32-byte aligned and the 4-wide union kernels (see
  /// namespace bits) run tail-free over whole rows; the padding words
  /// stay zero under every lattice operation.
  void reset(size_t NumRows, size_t NumBits) {
    Rows = NumRows;
    Bits = NumBits;
    WPR = wordsPerRowFor(NumBits);
    Words.assign(Rows * WPR + 3, 0);
    uintptr_t P = reinterpret_cast<uintptr_t>(Words.data());
    Base = Words.data() + (((P + 31) & ~uintptr_t(31)) - P) / 8;
  }

  size_t numRows() const { return Rows; }
  size_t numBits() const { return Bits; }
  size_t wordsPerRow() const { return WPR; }
  /// The padded row width, in words, of a matrix of \p NumBits columns.
  static size_t wordsPerRowFor(size_t NumBits) {
    return ((NumBits + 63) / 64 + 3) & ~size_t(3);
  }

  uint64_t *row(size_t R) {
    assert(R < Rows && "row out of range");
    return Base + R * WPR;
  }
  const uint64_t *row(size_t R) const {
    assert(R < Rows && "row out of range");
    return Base + R * WPR;
  }

  void set(size_t R, size_t B) {
    assert(B < Bits && "bit index out of range");
    row(R)[B >> 6] |= uint64_t(1) << (B & 63);
  }
  bool test(size_t R, size_t B) const {
    assert(B < Bits && "bit index out of range");
    return (row(R)[B >> 6] >> (B & 63)) & 1;
  }

  /// Word-span lattice operations shared by every row consumer; \p W is
  /// the common wordsPerRow of the operands.
  /// Dst |= Src; returns true if Dst grew.
  static bool orInto(uint64_t *Dst, const uint64_t *Src, size_t W) {
    return bits::orInto(Dst, Src, W);
  }
  /// Dst &= Src.
  static void andWith(uint64_t *Dst, const uint64_t *Src, size_t W) {
    for (size_t I = 0; I < W; ++I)
      Dst[I] &= Src[I];
  }
  /// Dst &= ~Src (and-not).
  static void subtract(uint64_t *Dst, const uint64_t *Src, size_t W) {
    for (size_t I = 0; I < W; ++I)
      Dst[I] &= ~Src[I];
  }
  static void copy(uint64_t *Dst, const uint64_t *Src, size_t W) {
    for (size_t I = 0; I < W; ++I)
      Dst[I] = Src[I];
  }
  static void clear(uint64_t *Dst, size_t W) {
    for (size_t I = 0; I < W; ++I)
      Dst[I] = 0;
  }
  /// Clears bits [First, Last) of the word span \p Row.
  static void clearRange(uint64_t *Row, size_t First, size_t Last) {
    if (First >= Last)
      return;
    size_t FW = First >> 6, LW = (Last - 1) >> 6;
    uint64_t Lo = ~uint64_t(0) << (First & 63);        // bits >= First
    uint64_t Hi = ~uint64_t(0) >> (63 - ((Last - 1) & 63)); // bits < Last
    if (FW == LW) {
      Row[FW] &= ~(Lo & Hi);
      return;
    }
    Row[FW] &= ~Lo;
    for (size_t I = FW + 1; I < LW; ++I)
      Row[I] = 0;
    Row[LW] &= ~Hi;
  }
  static bool equal(const uint64_t *A, const uint64_t *B, size_t W) {
    for (size_t I = 0; I < W; ++I)
      if (A[I] != B[I])
        return false;
    return true;
  }
  static bool none(const uint64_t *Span, size_t W) {
    for (size_t I = 0; I < W; ++I)
      if (Span[I])
        return false;
    return true;
  }
  static size_t count(const uint64_t *Span, size_t W) {
    size_t N = 0;
    for (size_t I = 0; I < W; ++I)
      N += static_cast<size_t>(__builtin_popcountll(Span[I]));
    return N;
  }
  /// Calls \p F(index) for every set bit of the \p W-word span, ascending.
  template <typename Fn>
  static void forEachBit(const uint64_t *Span, size_t W, Fn F) {
    for (size_t WI = 0; WI < W; ++WI) {
      uint64_t Word = Span[WI];
      while (Word) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Word));
        F((WI << 6) + Bit);
        Word &= Word - 1;
      }
    }
  }

  /// Heap footprint in bytes (cache byte-budget accounting).
  size_t memoryBytes() const { return Words.capacity() * sizeof(uint64_t); }

private:
  size_t Rows = 0, Bits = 0, WPR = 0;
  std::vector<uint64_t> Words;
  /// First row, 32-byte aligned within Words (never null after reset).
  uint64_t *Base = nullptr;
};

} // namespace vif

#endif // VIF_SUPPORT_BITSET_H
