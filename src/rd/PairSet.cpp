//===- rd/PairSet.cpp -----------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "rd/PairSet.h"

#include <algorithm>

using namespace vif;

std::string Resource::name(const ElaboratedProgram &Program) const {
  std::string Base = isVariable() ? Program.variable(id()).UniqueName
                                  : Program.signal(id()).UniqueName;
  if (isIncoming())
    return Base + "◦"; // ◦
  if (isOutgoing())
    return Base + "•"; // •
  return Base;
}

static bool endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

bool vif::hasInterfaceMark(std::string_view Name) {
  return endsWith(Name, "◦") || endsWith(Name, "•");
}

std::string_view vif::stripInterfaceMark(std::string_view Name) {
  for (std::string_view Mark : {std::string_view("◦"), std::string_view("•")})
    if (endsWith(Name, Mark))
      return Name.substr(0, Name.size() - Mark.size());
  return Name;
}

bool PairSet::insert(DefPair P) {
  auto It = std::lower_bound(Pairs.begin(), Pairs.end(), P);
  if (It != Pairs.end() && *It == P)
    return false;
  Pairs.insert(It, P);
  return true;
}

bool PairSet::contains(DefPair P) const {
  return std::binary_search(Pairs.begin(), Pairs.end(), P);
}

bool PairSet::unionWith(const PairSet &O) {
  if (O.Pairs.empty())
    return false;
  std::vector<DefPair> Merged;
  Merged.reserve(Pairs.size() + O.Pairs.size());
  std::set_union(Pairs.begin(), Pairs.end(), O.Pairs.begin(), O.Pairs.end(),
                 std::back_inserter(Merged));
  bool Grew = Merged.size() != Pairs.size();
  Pairs = std::move(Merged);
  return Grew;
}

void PairSet::intersectWith(const PairSet &O) {
  std::vector<DefPair> Result;
  std::set_intersection(Pairs.begin(), Pairs.end(), O.Pairs.begin(),
                        O.Pairs.end(), std::back_inserter(Result));
  Pairs = std::move(Result);
}

void PairSet::subtract(const PairSet &O) {
  if (O.Pairs.empty())
    return;
  std::vector<DefPair> Result;
  std::set_difference(Pairs.begin(), Pairs.end(), O.Pairs.begin(),
                      O.Pairs.end(), std::back_inserter(Result));
  Pairs = std::move(Result);
}

PairSet
PairSet::dottedIntersection(const std::vector<const PairSet *> &Sets) {
  PairSet Result;
  if (Sets.empty())
    return Result; // ⋂˙∅ = ∅
  Result = *Sets.front();
  for (size_t I = 1; I < Sets.size(); ++I)
    Result.intersectWith(*Sets[I]);
  return Result;
}

std::pair<std::vector<DefPair>::const_iterator,
          std::vector<DefPair>::const_iterator>
PairSet::equalRange(Resource N) const {
  auto It = std::lower_bound(Pairs.begin(), Pairs.end(),
                             DefPair{N, InitialLabel});
  auto End = It;
  while (End != Pairs.end() && End->N == N)
    ++End;
  return {It, End};
}
