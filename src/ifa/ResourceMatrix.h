//===- ifa/ResourceMatrix.h - (resource, label, access) matrices -*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Resource Matrix of paper Section 5: a set of entries (n, l, A) where
/// A ∈ {M0, M1, R0, R1}:
///
///   M0 — n (a variable or present signal value) may be modified at l
///   M1 — n's active signal value may be modified at l
///   R0 — n (variable or present value) may be read at l
///   R1 — n's active value is consumed by the synchronization at l
///
/// Entries are ordered (label, access, resource) so the closure can scan
/// all entries of one access kind at one label as a contiguous range.
///
/// The storage is factored the way the Table 8 closure computes it:
///
///  - a flat sorted vector of entries, plus an insert buffer that is
///    merged in lazily (single inserts append);
///  - optionally, R0 rows (R0Rows): one bit row per label 0..numRows-1
///    over a sorted Universe of raw resource ids, all in one BitMatrix.
///    When the rows are present they alone hold every (n, l, R0) entry at
///    their labels; the flat vector holds everything else.
///
/// The closure adopts its fixpoint rows once, as they are (insertR0Rows),
/// so the closed RMgl — the largest matrix in the pipeline — is not
/// flattened into 12-byte entries. That pays only while the rows are
/// dense: a row costs its padded width whether or not its label reads
/// anything, so rows that would take more bytes than their entries do
/// flat (rowsPay) — e.g. N independent copies: one-bit rows over ~2N
/// resources. RMlo and the ALFP matrix have no rows. Every reader (size,
/// contains, resourcesAt, labels, iteration, print, ==, LabelIndexedRM)
/// merges the two parts in entry order on the fly. The store writes the
/// two parts as they are — flat entries as delta varints, the rows as
/// their universe and raw words — and its decoder adopts the rows back
/// through insertR0Rows (driver/ArtifactStore.cpp). The historical std::set
/// backend is a test-only oracle in tests/oracle/.
/// The lazy merge mutates on const reads, so a matrix must not be read
/// from multiple threads concurrently (per-design results never are).
///
//===----------------------------------------------------------------------===//

#ifndef VIF_IFA_RESOURCEMATRIX_H
#define VIF_IFA_RESOURCEMATRIX_H

#include "rd/PairSet.h"
#include "support/BitSet.h"

#include <algorithm>
#include <iosfwd>
#include <iterator>
#include <unordered_set>

namespace vif {

enum class Access : uint8_t { M0, M1, R0, R1 };

const char *accessName(Access A);

struct RMEntry {
  LabelId L = InitialLabel;
  Access A = Access::R0;
  Resource N;

  bool operator==(const RMEntry &O) const {
    return L == O.L && A == O.A && N == O.N;
  }
  bool operator<(const RMEntry &O) const {
    if (L != O.L)
      return L < O.L;
    if (A != O.A)
      return A < O.A;
    return N < O.N;
  }
};

/// Table 8 R0 rows: bit I of row L set means (Universe[I], L, R0).
/// Universe holds raw resource ids, strictly ascending — the design-level
/// numbering the closure solves over — so set-bit order is entry order.
/// Built from an R0 entry stream in two passes: name() every raw id,
/// number(), then layout() and set() every entry. The closure's seed and
/// the reference closure's rows number rows so; the store decoder reads a
/// numbered Universe and the row words back as they were written.
struct R0Rows {
  std::vector<uint32_t> Universe;
  BitMatrix Bits;

  /// Pass 1: records a raw id the stream names.
  void name(uint32_t Raw) {
    if (Named.insert(Raw).second)
      Universe.push_back(Raw);
  }
  /// Ends pass 1: Universe becomes the named ids, ascending and distinct.
  void number();
  /// Pass 2: \p NumRows empty rows over the universe.
  void layout(size_t NumRows) { Bits.reset(NumRows, Universe.size()); }
  /// The bit of a named raw id.
  size_t bitOf(uint32_t Raw) const {
    return static_cast<size_t>(
        std::lower_bound(Universe.begin(), Universe.end(), Raw) -
        Universe.begin());
  }
  void set(LabelId L, uint32_t Raw) { Bits.set(L, bitOf(Raw)); }

private:
  std::unordered_set<uint32_t> Named;
};

/// A deterministic set of Resource Matrix entries over the factored
/// storage described in the file comment.
class ResourceMatrix {
public:
  class const_iterator;

  ResourceMatrix() = default;
  /// A matrix holding exactly the entries of \p List, adopted as they are
  /// when they ascend strictly (the store's decoder checks that as it
  /// reads, and Table 6 emits them so), else sorted and deduplicated
  /// first.
  explicit ResourceMatrix(std::vector<RMEntry> List);

  /// Returns true if the entry was new. An R0 entry at a row label must
  /// name a resource of the rows' universe.
  bool insert(Resource N, LabelId L, Access A);
  bool contains(Resource N, LabelId L, Access A) const;

  /// Adopts the R0 rows \p New: afterwards they hold every R0 entry at
  /// their labels. Present R0 entries there must be among them (the
  /// closure seeded its rows from them). A matrix adopts at most once.
  /// The rows are kept as they are when rowsPay, and entered flat
  /// otherwise.
  void insertR0Rows(R0Rows New);
  /// The same from per-label rows of ascending raw resource ids (\p
  /// Rows[L] are the resources read at label L) — the reference closure's
  /// sorted-vector rows, numbered over their own union.
  void insertR0Rows(const std::vector<std::vector<uint32_t>> &Rows);

  /// True if \p NumRows rows over \p UniverseSize resources that hold \p
  /// Entries R0 entries take no more bytes than those entries would flat.
  /// Dense rows pass (the AES core's closed RMgl: 890 814 entries in
  /// ~1.6 MB of rows instead of ~10.7 MB); wide sparse ones do not.
  static bool rowsPay(size_t NumRows, size_t UniverseSize, size_t Entries) {
    return NumRows * BitMatrix::wordsPerRowFor(UniverseSize) *
                   sizeof(uint64_t) +
               UniverseSize * sizeof(uint32_t) <=
           Entries * sizeof(RMEntry);
  }

  /// The factored parts as they are stored: the flat entries (sorted;
  /// none is an R0 entry at a row label), and the R0 rows with the raw
  /// resource id of each bit (zero rows and an empty universe when the
  /// matrix holds none). The store's codec writes these.
  const std::vector<RMEntry> &flatEntries() const {
    flush();
    return Entries;
  }
  const std::vector<uint32_t> &rowUniverse() const { return Universe; }
  const BitMatrix &rows() const { return Rows; }

  size_t size() const {
    flush();
    return Entries.size() + RowEntries;
  }
  bool empty() const {
    return Entries.empty() && Pending.empty() && RowEntries == 0;
  }

  /// All resources with an (n, l, A) entry, ascending.
  std::vector<Resource> resourcesAt(LabelId L, Access A) const;

  /// All labels that carry at least one entry, ascending.
  std::vector<LabelId> labels() const;

  /// Iteration in (label, access, resource) order: a merge of the flat
  /// entries with the row bits.
  const_iterator begin() const;
  const_iterator end() const;

  bool operator==(const ResourceMatrix &O) const;

  /// Debug rendering, one "name@label:access" per line, sorted.
  void print(std::ostream &OS, const ElaboratedProgram &Program) const;

  /// Heap footprint in bytes (cache byte-budget accounting); measures
  /// current allocations without flushing.
  size_t memoryBytes() const {
    return (Entries.capacity() + Pending.capacity()) * sizeof(RMEntry) +
           PendingKeys.bucket_count() * sizeof(void *) +
           PendingKeys.size() * (sizeof(uint64_t) + 2 * sizeof(void *)) +
           Universe.capacity() * sizeof(uint32_t) + Rows.memoryBytes();
  }

private:
  friend class LabelIndexedRM;

  /// Packs an entry into one word for the pending-membership probe.
  static uint64_t keyOf(const RMEntry &E) {
    return (static_cast<uint64_t>(E.L) << 34) |
           (static_cast<uint64_t>(E.A) << 32) | E.N.raw();
  }

  /// True if (·, L, A) is served by the rows rather than the flat part.
  bool inRows(LabelId L, Access A) const {
    return A == Access::R0 && L < Rows.numRows();
  }
  /// Merges Pending (unique, disjoint from Entries) into Entries.
  void flush() const;

  /// Sorted and deduplicated (after flush); no R0 entry at a row label.
  mutable std::vector<RMEntry> Entries;
  /// Entries inserted since the last flush, in arrival order; kept
  /// duplicate-free (and disjoint from Entries) by PendingKeys.
  mutable std::vector<RMEntry> Pending;
  mutable std::unordered_set<uint64_t> PendingKeys;
  /// The R0 rows and the raw resource id of each bit (empty: no rows).
  std::vector<uint32_t> Universe;
  BitMatrix Rows;
  /// Set bits across Rows.
  size_t RowEntries = 0;
};

/// Input iterator over a ResourceMatrix in entry order: a two-way merge
/// of the flat entries and the row bits (disjoint, both in entry order).
class ResourceMatrix::const_iterator {
public:
  using iterator_category = std::input_iterator_tag;
  using value_type = RMEntry;
  using difference_type = std::ptrdiff_t;
  using pointer = const RMEntry *;
  using reference = const RMEntry &;

  const RMEntry &operator*() const { return Cur; }
  const RMEntry *operator->() const { return &Cur; }
  const_iterator &operator++() {
    if (FromRow)
      seekRow(RowL, Bit + 1);
    else
      ++Flat;
    settle();
    return *this;
  }
  bool operator==(const const_iterator &O) const {
    return Flat == O.Flat && RowL == O.RowL && Bit == O.Bit;
  }
  bool operator!=(const const_iterator &O) const { return !(*this == O); }

private:
  friend class ResourceMatrix;
  const_iterator(const ResourceMatrix &M, const RMEntry *Flat,
                 const RMEntry *FlatEnd, size_t RowL)
      : M(&M), Flat(Flat), FlatEnd(FlatEnd), RowL(RowL) {}

  /// Moves the row cursor to the first set bit at or after (\p L, \p
  /// From), or past the last row.
  void seekRow(size_t L, size_t From);
  /// Loads the smaller of the two heads into Cur.
  void settle();

  const ResourceMatrix *M;
  const RMEntry *Flat, *FlatEnd;
  size_t RowL, Bit = 0;
  bool FromRow = false;
  RMEntry Cur;
};

/// A zero-copy, label-indexed view over a matrix (the "RMgl view"): for
/// each (label, access) pair, the resources it holds, exposed as raw()
/// resource ids. Flat slots are CSR offsets into the matrix's entry
/// buffer, built in one pass; R0 slots at row labels read the matrix's
/// bit row directly — no per-slot copies. The closure fixpoint and the
/// flow-graph extraction index it directly instead of re-scanning per
/// label, and keep resources as raw ids so node names are materialized at
/// most once, never per edge. The view borrows the matrix's storage: it
/// is invalidated by any later mutation of the matrix.
class LabelIndexedRM {
public:
  explicit LabelIndexedRM(const ResourceMatrix &RM);

  /// The largest label with an entry (0 for an empty matrix).
  LabelId maxLabel() const { return MaxLabel; }

  /// One (label, access) slot, iterated as raw resource ids, ascending:
  /// either a run of flat entries or the set bits of one R0 row.
  class RawRun {
  public:
    class iterator {
    public:
      explicit iterator(const RMEntry *P) : P(P) {}
      /// Positioned at the first set bit of \p Row at or after word
      /// \p WI (\p WI == \p NW is the end).
      iterator(const uint64_t *Row, size_t WI, size_t NW,
               const uint32_t *Universe)
          : Row(Row), Universe(Universe), WI(WI), NW(NW),
            Word(WI < NW ? Row[WI] : 0) {
        skipEmpty();
      }
      uint32_t operator*() const {
        return Row ? Universe[(WI << 6) + __builtin_ctzll(Word)]
                   : P->N.raw();
      }
      iterator &operator++() {
        if (Row) {
          Word &= Word - 1;
          skipEmpty();
        } else {
          ++P;
        }
        return *this;
      }
      bool operator==(const iterator &O) const {
        return P == O.P && WI == O.WI && Word == O.Word;
      }
      bool operator!=(const iterator &O) const { return !(*this == O); }

    private:
      void skipEmpty() {
        while (!Word && WI < NW)
          Word = ++WI < NW ? Row[WI] : 0;
      }

      const RMEntry *P = nullptr;
      const uint64_t *Row = nullptr;
      const uint32_t *Universe = nullptr;
      size_t WI = 0, NW = 0;
      uint64_t Word = 0;
    };

    RawRun(const RMEntry *First, const RMEntry *Last)
        : First(First), Last(Last) {}
    RawRun(const uint64_t *Row, size_t NW, const uint32_t *Universe)
        : Row(Row), NW(NW), Universe(Universe) {}
    iterator begin() const {
      return Row ? iterator(Row, 0, NW, Universe) : iterator(First);
    }
    iterator end() const {
      return Row ? iterator(Row, NW, NW, Universe) : iterator(Last);
    }
    size_t size() const {
      return Row ? BitMatrix::count(Row, NW)
                 : static_cast<size_t>(Last - First);
    }
    bool empty() const { return Row ? BitMatrix::none(Row, NW) : First == Last; }
    /// The \p I-th resource (a walk over the bits for a row slot).
    uint32_t operator[](size_t I) const {
      if (!Row)
        return First[I].N.raw();
      iterator It = begin();
      while (I--)
        ++It;
      return *It;
    }

  private:
    const RMEntry *First = nullptr, *Last = nullptr;
    const uint64_t *Row = nullptr;
    size_t NW = 0;
    const uint32_t *Universe = nullptr;
  };

  /// Raw ids of resources with an (n, l, A) entry, ascending; empty when
  /// the label carries none.
  RawRun at(LabelId L, Access A) const {
    if (Matrix->inRows(L, A))
      return RawRun(Matrix->Rows.row(L), Matrix->Rows.wordsPerRow(),
                    Matrix->Universe.data());
    size_t Slot = static_cast<size_t>(L) * 4 + static_cast<size_t>(A);
    if (Slot + 1 >= SlotStart.size())
      return RawRun(nullptr, nullptr);
    return RawRun(Entries + SlotStart[Slot], Entries + SlotStart[Slot + 1]);
  }

private:
  const ResourceMatrix *Matrix;
  const RMEntry *Entries = nullptr;
  LabelId MaxLabel = InitialLabel;
  /// SlotStart[L * 4 + A] is the offset of the slot's first flat entry;
  /// SlotStart.back() == total flat entries. Empty without flat entries.
  std::vector<uint32_t> SlotStart;
};

} // namespace vif

#endif // VIF_IFA_RESOURCEMATRIX_H
