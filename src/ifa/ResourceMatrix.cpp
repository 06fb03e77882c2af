//===- ifa/ResourceMatrix.cpp ---------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ifa/ResourceMatrix.h"

#include <algorithm>
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

bool ResourceMatrix::insert(Resource N, LabelId L, Access A) {
  RMEntry E{L, A, N};
  if (std::binary_search(Entries.begin(), Entries.end(), E))
    return false;
  if (!PendingKeys.insert(keyOf(E)).second)
    return false;
  Pending.push_back(E);
  return true;
}

bool ResourceMatrix::contains(Resource N, LabelId L, Access A) const {
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

void ResourceMatrix::insertR0Rows(
    const std::vector<std::vector<uint32_t>> &Rows) {
  flush();
  // The rows stream in (label, resource) ascending order, which is entry
  // order for the fixed R0 access, so the whole batch is one set_union
  // with the present entries (duplicates — RMlo entries the closure
  // re-derived — collapse in the merge).
  std::vector<RMEntry> New;
  for (LabelId L = 0; L < Rows.size(); ++L)
    for (uint32_t Raw : Rows[L])
      New.push_back(RMEntry{L, Access::R0, Resource::fromRaw(Raw)});
  if (New.empty())
    return;
  std::vector<RMEntry> Merged;
  Merged.reserve(Entries.size() + New.size());
  std::set_union(Entries.begin(), Entries.end(), New.begin(), New.end(),
                 std::back_inserter(Merged));
  Entries.swap(Merged);
}

void ResourceMatrix::insertR0Rows(const std::vector<BitSet> &Rows,
                                  const std::vector<uint32_t> &Universe) {
  flush();
  std::vector<RMEntry> New;
  for (LabelId L = 0; L < Rows.size(); ++L)
    Rows[L].forEach([&](size_t I) {
      New.push_back(RMEntry{L, Access::R0, Resource::fromRaw(Universe[I])});
    });
  if (New.empty())
    return;
  std::vector<RMEntry> Merged;
  Merged.reserve(Entries.size() + New.size());
  std::set_union(Entries.begin(), Entries.end(), New.begin(), New.end(),
                 std::back_inserter(Merged));
  Entries.swap(Merged);
}

std::vector<Resource> ResourceMatrix::resourcesAt(LabelId L, Access A) const {
  flush();
  std::vector<Resource> Result;
  auto It = std::lower_bound(Entries.begin(), Entries.end(),
                             RMEntry{L, A, Resource()});
  for (; It != Entries.end() && It->L == L && It->A == A; ++It)
    Result.push_back(It->N);
  return Result;
}

std::vector<LabelId> ResourceMatrix::labels() const {
  flush();
  std::vector<LabelId> Result;
  for (const RMEntry &E : Entries)
    if (Result.empty() || Result.back() != E.L)
      Result.push_back(E.L);
  return Result;
}

void ResourceMatrix::print(std::ostream &OS,
                           const ElaboratedProgram &Program) const {
  flush();
  for (const RMEntry &E : Entries)
    OS << E.N.name(Program) << "@" << E.L << ":" << accessName(E.A) << '\n';
}

LabelIndexedRM::LabelIndexedRM(const ResourceMatrix &RM) {
  if (RM.empty())
    return;
  // begin() flushes, so the borrowed buffer is the final sorted storage.
  const RMEntry *First = RM.begin(), *Last = RM.end();
  Entries = First;
  MaxLabel = (Last - 1)->L;
  size_t NumSlots = (static_cast<size_t>(MaxLabel) + 1) * 4;
  SlotStart.assign(NumSlots + 1, 0);
  for (const RMEntry *E = First; E != Last; ++E)
    ++SlotStart[static_cast<size_t>(E->L) * 4 + static_cast<size_t>(E->A) +
                1];
  for (size_t S = 1; S <= NumSlots; ++S)
    SlotStart[S] += SlotStart[S - 1];
}
