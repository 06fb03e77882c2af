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
/// The storage is dense: one flat sorted vector whose (label, access) runs
/// are the rows every consumer indexes, plus an insert buffer that is
/// merged in lazily — single inserts append, bulk R0 writes (the closure's
/// fixpoint rows, the largest matrix in the pipeline) are one linear
/// merge. The historical std::set backend is a test-only oracle in
/// tests/oracle/. The lazy merge mutates on const reads, so a matrix must
/// not be read from multiple threads concurrently (per-design results
/// never are; see the LazyPairSets note in rd/DenseDomain.h).
///
//===----------------------------------------------------------------------===//

#ifndef VIF_IFA_RESOURCEMATRIX_H
#define VIF_IFA_RESOURCEMATRIX_H

#include "rd/PairSet.h"
#include "support/BitSet.h"

#include <iosfwd>
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

/// A deterministic set of Resource Matrix entries over the dense
/// sorted-run storage described in the file comment.
class ResourceMatrix {
public:
  /// Returns true if the entry was new.
  bool insert(Resource N, LabelId L, Access A);
  bool contains(Resource N, LabelId L, Access A) const;

  /// Bulk-inserts R0 entries from per-label rows of ascending raw resource
  /// ids (\p Rows[L] are the resources read at label L). The rows arrive
  /// in entry order, so the whole batch is one linear merge with the
  /// present entries — this is how the reference closure writes its
  /// fixpoint back.
  void insertR0Rows(const std::vector<std::vector<uint32_t>> &Rows);

  /// Bulk-inserts R0 entries from per-label BitSet rows over a shared
  /// resource numbering: bit I of \p Rows[L] set means (\p Universe[I],
  /// L, R0). \p Universe maps bit indices to raw resource ids, ascending
  /// — exactly the design-level numbering the Table 8 fixpoint solves
  /// over, so the bitset rows stream straight into entry order.
  void insertR0Rows(const std::vector<BitSet> &Rows,
                    const std::vector<uint32_t> &Universe);

  size_t size() const {
    flush();
    return Entries.size();
  }
  bool empty() const { return Entries.empty() && Pending.empty(); }

  /// All resources with an (n, l, A) entry, ascending.
  std::vector<Resource> resourcesAt(LabelId L, Access A) const;

  /// All labels that carry at least one entry, ascending.
  std::vector<LabelId> labels() const;

  /// Flat iteration in (label, access, resource) order.
  const RMEntry *begin() const {
    flush();
    return Entries.data();
  }
  const RMEntry *end() const {
    flush();
    return Entries.data() + Entries.size();
  }

  bool operator==(const ResourceMatrix &O) const {
    flush();
    O.flush();
    return Entries == O.Entries;
  }

  /// Debug rendering, one "name@label:access" per line, sorted.
  void print(std::ostream &OS, const ElaboratedProgram &Program) const;

  /// Heap footprint in bytes (cache byte-budget accounting); measures
  /// current allocations without flushing.
  size_t memoryBytes() const {
    return (Entries.capacity() + Pending.capacity()) * sizeof(RMEntry) +
           PendingKeys.bucket_count() * sizeof(void *) +
           PendingKeys.size() * (sizeof(uint64_t) + 2 * sizeof(void *));
  }

private:
  /// Packs an entry into one word for the pending-membership probe.
  static uint64_t keyOf(const RMEntry &E) {
    return (static_cast<uint64_t>(E.L) << 34) |
           (static_cast<uint64_t>(E.A) << 32) | E.N.raw();
  }

  /// Merges Pending (unique, disjoint from Entries) into Entries.
  void flush() const;

  /// Sorted and deduplicated (after flush).
  mutable std::vector<RMEntry> Entries;
  /// Entries inserted since the last flush, in arrival order; kept
  /// duplicate-free (and disjoint from Entries) by PendingKeys.
  mutable std::vector<RMEntry> Pending;
  mutable std::unordered_set<uint64_t> PendingKeys;
};

/// A zero-copy, label-indexed view over a matrix (the "RMgl view"): for
/// each (label, access) pair, the contiguous run of entries, exposed as
/// raw() resource ids. Built as CSR offsets into the matrix's flat entry
/// buffer in one pass — no per-slot copies; the closure fixpoint and the
/// flow-graph extraction index it directly instead of re-scanning per
/// label, and keep resources as raw ids so node names are materialized at
/// most once, never per edge. The view borrows the matrix's storage: it
/// is invalidated by any later mutation of the matrix.
class LabelIndexedRM {
public:
  explicit LabelIndexedRM(const ResourceMatrix &RM);

  /// The largest label with an entry (0 for an empty matrix).
  LabelId maxLabel() const { return MaxLabel; }

  /// One (label, access) run, iterated as raw resource ids, ascending.
  class RawRun {
  public:
    class iterator {
    public:
      explicit iterator(const RMEntry *P) : P(P) {}
      uint32_t operator*() const { return P->N.raw(); }
      iterator &operator++() {
        ++P;
        return *this;
      }
      bool operator!=(const iterator &O) const { return P != O.P; }
      bool operator==(const iterator &O) const { return P == O.P; }

    private:
      const RMEntry *P;
    };

    RawRun(const RMEntry *First, const RMEntry *Last)
        : First(First), Last(Last) {}
    iterator begin() const { return iterator(First); }
    iterator end() const { return iterator(Last); }
    size_t size() const { return static_cast<size_t>(Last - First); }
    bool empty() const { return First == Last; }
    uint32_t operator[](size_t I) const { return First[I].N.raw(); }

  private:
    const RMEntry *First;
    const RMEntry *Last;
  };

  /// Raw ids of resources with an (n, l, A) entry, ascending; empty when
  /// the label carries none.
  RawRun at(LabelId L, Access A) const {
    size_t Slot = static_cast<size_t>(L) * 4 + static_cast<size_t>(A);
    if (Slot + 1 >= SlotStart.size())
      return RawRun(nullptr, nullptr);
    return RawRun(Entries + SlotStart[Slot], Entries + SlotStart[Slot + 1]);
  }

private:
  const RMEntry *Entries = nullptr;
  LabelId MaxLabel = InitialLabel;
  /// SlotStart[L * 4 + A] is the offset of the slot's first entry;
  /// SlotStart.back() == total entries. Empty for an empty matrix.
  std::vector<uint32_t> SlotStart;
};

} // namespace vif

#endif // VIF_IFA_RESOURCEMATRIX_H
