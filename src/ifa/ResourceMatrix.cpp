//===- ifa/ResourceMatrix.cpp ---------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ifa/ResourceMatrix.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <iterator>
#include <ostream>

using namespace vif;

const char *vif::accessName(Access A) {
  switch (A) {
  case Access::M0:
    return "M0";
  case Access::M1:
    return "M1";
  case Access::R0:
    return "R0";
  case Access::R1:
    return "R1";
  }
  return "?";
}

void R0Rows::number() {
  std::sort(Universe.begin(), Universe.end());
  Named = {};
}

bool ResourceMatrix::insert(Resource N, LabelId L, Access A) {
  if (inRows(L, A)) {
    auto It = std::lower_bound(Universe.begin(), Universe.end(), N.raw());
    assert(It != Universe.end() && *It == N.raw() &&
           "R0 insert at a row label outside the rows' universe");
    size_t B = static_cast<size_t>(It - Universe.begin());
    if (Rows.test(L, B))
      return false;
    Rows.set(L, B);
    ++RowEntries;
    return true;
  }
  RMEntry E{L, A, N};
  if (std::binary_search(Entries.begin(), Entries.end(), E))
    return false;
  if (!PendingKeys.insert(keyOf(E)).second)
    return false;
  Pending.push_back(E);
  return true;
}

bool ResourceMatrix::contains(Resource N, LabelId L, Access A) const {
  if (inRows(L, A)) {
    auto It = std::lower_bound(Universe.begin(), Universe.end(), N.raw());
    return It != Universe.end() && *It == N.raw() &&
           Rows.test(L, static_cast<size_t>(It - Universe.begin()));
  }
  RMEntry E{L, A, N};
  return std::binary_search(Entries.begin(), Entries.end(), E) ||
         PendingKeys.count(keyOf(E)) != 0;
}

void ResourceMatrix::flush() const {
  if (Pending.empty())
    return;
  std::sort(Pending.begin(), Pending.end());
  // Pending is unique and disjoint from Entries (the PendingKeys gate), so
  // the merge is a plain two-way merge, no dedup pass needed.
  if (Entries.empty()) {
    Entries.swap(Pending);
  } else {
    std::vector<RMEntry> Merged;
    Merged.reserve(Entries.size() + Pending.size());
    std::merge(Entries.begin(), Entries.end(), Pending.begin(),
               Pending.end(), std::back_inserter(Merged));
    Entries.swap(Merged);
    Pending.clear();
  }
  PendingKeys.clear();
}

void ResourceMatrix::insertR0Rows(R0Rows New) {
  assert(Rows.numRows() == 0 && Universe.empty() && "rows adopted twice");
  assert(New.Bits.numBits() == New.Universe.size() && "universe mismatch");
  flush();
  const BitMatrix &Bits = New.Bits;
  size_t NumRows = Bits.numRows(), W = Bits.wordsPerRow(), Count = 0;
  for (size_t L = 0; L < NumRows; ++L)
    Count += BitMatrix::count(Bits.row(L), W);
  // Present R0 entries at row labels are already row bits.
  Entries.erase(std::remove_if(Entries.begin(), Entries.end(),
                               [NumRows](const RMEntry &E) {
                                 return E.A == Access::R0 && E.L < NumRows;
                               }),
                Entries.end());
  if (rowsPay(NumRows, New.Universe.size(), Count)) {
    Universe = std::move(New.Universe);
    Rows = std::move(New.Bits);
    RowEntries = Count;
    return;
  }
  // Wide sparse rows: the entries are the smaller form.
  std::vector<RMEntry> FromRows;
  FromRows.reserve(Count);
  for (size_t L = 0; L < NumRows; ++L)
    BitMatrix::forEachBit(Bits.row(L), W, [&](size_t I) {
      FromRows.push_back(RMEntry{static_cast<LabelId>(L), Access::R0,
                                 Resource::fromRaw(New.Universe[I])});
    });
  std::vector<RMEntry> Merged;
  Merged.reserve(Entries.size() + FromRows.size());
  std::merge(Entries.begin(), Entries.end(), FromRows.begin(),
             FromRows.end(), std::back_inserter(Merged));
  Entries.swap(Merged);
}

void ResourceMatrix::insertR0Rows(
    const std::vector<std::vector<uint32_t>> &RawRows) {
  R0Rows New;
  for (const std::vector<uint32_t> &Row : RawRows)
    for (uint32_t Raw : Row)
      New.name(Raw);
  New.number();
  New.layout(RawRows.size());
  for (size_t L = 0; L < RawRows.size(); ++L)
    for (uint32_t Raw : RawRows[L])
      New.set(static_cast<LabelId>(L), Raw);
  insertR0Rows(std::move(New));
}

std::vector<Resource> ResourceMatrix::resourcesAt(LabelId L, Access A) const {
  std::vector<Resource> Result;
  if (inRows(L, A)) {
    BitMatrix::forEachBit(Rows.row(L), Rows.wordsPerRow(), [&](size_t I) {
      Result.push_back(Resource::fromRaw(Universe[I]));
    });
    return Result;
  }
  flush();
  auto It = std::lower_bound(Entries.begin(), Entries.end(),
                             RMEntry{L, A, Resource()});
  for (; It != Entries.end() && It->L == L && It->A == A; ++It)
    Result.push_back(It->N);
  return Result;
}

std::vector<LabelId> ResourceMatrix::labels() const {
  std::vector<LabelId> Result;
  for (const RMEntry &E : *this)
    if (Result.empty() || Result.back() != E.L)
      Result.push_back(E.L);
  return Result;
}

ResourceMatrix::const_iterator ResourceMatrix::begin() const {
  flush();
  const_iterator It(*this, Entries.data(), Entries.data() + Entries.size(),
                    0);
  It.seekRow(0, 0);
  It.settle();
  return It;
}

ResourceMatrix::const_iterator ResourceMatrix::end() const {
  flush();
  const RMEntry *Last = Entries.data() + Entries.size();
  return const_iterator(*this, Last, Last, Rows.numRows());
}

void ResourceMatrix::const_iterator::seekRow(size_t L, size_t From) {
  const BitMatrix &R = M->Rows;
  size_t W = R.wordsPerRow();
  for (; L < R.numRows(); ++L, From = 0) {
    const uint64_t *Row = R.row(L);
    for (size_t WI = From >> 6; WI < W; ++WI) {
      uint64_t Word = Row[WI];
      if (WI == From >> 6)
        Word &= ~uint64_t(0) << (From & 63);
      if (Word) {
        RowL = L;
        Bit = (WI << 6) + static_cast<size_t>(__builtin_ctzll(Word));
        return;
      }
    }
  }
  RowL = R.numRows();
  Bit = 0;
}

void ResourceMatrix::const_iterator::settle() {
  bool HasRow = RowL < M->Rows.numRows();
  if (!HasRow && Flat == FlatEnd)
    return;
  RMEntry RowHead;
  if (HasRow)
    RowHead = RMEntry{static_cast<LabelId>(RowL), Access::R0,
                      Resource::fromRaw(M->Universe[Bit])};
  FromRow = HasRow && (Flat == FlatEnd || RowHead < *Flat);
  Cur = FromRow ? RowHead : *Flat;
}

bool ResourceMatrix::operator==(const ResourceMatrix &O) const {
  return size() == O.size() && std::equal(begin(), end(), O.begin());
}

void ResourceMatrix::print(std::ostream &OS,
                           const ElaboratedProgram &Program) const {
  // Written in 64 KB chunks: the AES core's RMgl is 13.8 MB of text, and
  // five stream calls per entry cost more than the closure behind it.
  constexpr size_t Chunk = 1 << 16;
  std::string Buf;
  Buf.reserve(Chunk + 256);
  char Label[16];
  for (const RMEntry &E : *this) {
    Buf += E.N.name(Program);
    Buf += '@';
    Buf.append(Label, std::to_chars(Label, Label + sizeof(Label), E.L).ptr);
    Buf += ':';
    Buf += accessName(E.A);
    Buf += '\n';
    if (Buf.size() >= Chunk) {
      OS.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
      Buf.clear();
    }
  }
  OS.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
}

LabelIndexedRM::LabelIndexedRM(const ResourceMatrix &RM) : Matrix(&RM) {
  for (LabelId L = static_cast<LabelId>(RM.Rows.numRows()); L-- > 0;)
    if (!BitMatrix::none(RM.Rows.row(L), RM.Rows.wordsPerRow())) {
      MaxLabel = L;
      break;
    }
  RM.flush();
  if (RM.Entries.empty())
    return;
  const RMEntry *First = RM.Entries.data();
  const RMEntry *Last = First + RM.Entries.size();
  Entries = First;
  MaxLabel = std::max(MaxLabel, (Last - 1)->L);
  size_t NumSlots = (static_cast<size_t>((Last - 1)->L) + 1) * 4;
  SlotStart.assign(NumSlots + 1, 0);
  for (const RMEntry *E = First; E != Last; ++E)
    ++SlotStart[static_cast<size_t>(E->L) * 4 + static_cast<size_t>(E->A) +
                1];
  for (size_t S = 1; S <= NumSlots; ++S)
    SlotStart[S] += SlotStart[S - 1];
}
