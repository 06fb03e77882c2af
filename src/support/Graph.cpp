//===- support/Graph.cpp --------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "support/Graph.h"

#include "support/BitSet.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <ostream>
#include <sstream>

using namespace vif;

std::string_view Digraph::intern(std::string_view Name) {
  if (Name.empty())
    return std::string_view("", 0);
  if (Name.size() > ArenaCap - ArenaUsed || ArenaBlocks.empty()) {
    size_t Cap = std::max<size_t>(Name.size(), 4096);
    ArenaBlocks.push_back(std::make_unique<char[]>(Cap));
    ArenaCap = Cap;
    ArenaUsed = 0;
  }
  char *Slot = ArenaBlocks.back().get() + ArenaUsed;
  std::memcpy(Slot, Name.data(), Name.size());
  ArenaUsed += Name.size();
  return std::string_view(Slot, Name.size());
}

Digraph::Digraph(const Digraph &Other) {
  Other.flushEdges();
  reserveNodes(Other.Names.size());
  for (std::string_view Name : Other.Names)
    addNode(Name);
  Edges = Other.Edges;
}

Digraph::Digraph(Digraph &&Other) noexcept
    : ArenaBlocks(std::move(Other.ArenaBlocks)), ArenaUsed(Other.ArenaUsed),
      ArenaCap(Other.ArenaCap), Names(std::move(Other.Names)),
      Ids(std::move(Other.Ids)), Edges(std::move(Other.Edges)),
      Pending(std::move(Other.Pending)), RankOrder(std::move(Other.RankOrder)),
      RankOf(std::move(Other.RankOf)), EdgeOrder(std::move(Other.EdgeOrder)) {
  // The atomic flags are copied by value; the mutex is NOT moved — each
  // graph keeps its own (a moved-from graph must still be lockable).
  EdgesDirty.store(Other.EdgesDirty.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  RankValid.store(Other.RankValid.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  EdgeOrderValid.store(Other.EdgeOrderValid.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  Other.ArenaUsed = 0;
  Other.ArenaCap = 0;
  Other.EdgesDirty.store(false, std::memory_order_relaxed);
  Other.RankValid.store(false, std::memory_order_relaxed);
  Other.EdgeOrderValid.store(false, std::memory_order_relaxed);
}

Digraph &Digraph::operator=(Digraph &&Other) noexcept {
  if (this != &Other) {
    ArenaBlocks = std::move(Other.ArenaBlocks);
    ArenaUsed = Other.ArenaUsed;
    ArenaCap = Other.ArenaCap;
    Names = std::move(Other.Names);
    Ids = std::move(Other.Ids);
    Edges = std::move(Other.Edges);
    Pending = std::move(Other.Pending);
    RankOrder = std::move(Other.RankOrder);
    RankOf = std::move(Other.RankOf);
    EdgeOrder = std::move(Other.EdgeOrder);
    EdgesDirty.store(Other.EdgesDirty.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    RankValid.store(Other.RankValid.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    EdgeOrderValid.store(Other.EdgeOrderValid.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    Other.ArenaUsed = 0;
    Other.ArenaCap = 0;
    Other.EdgesDirty.store(false, std::memory_order_relaxed);
    Other.RankValid.store(false, std::memory_order_relaxed);
    Other.EdgeOrderValid.store(false, std::memory_order_relaxed);
  }
  return *this;
}

Digraph &Digraph::operator=(const Digraph &Other) {
  if (this != &Other) {
    Digraph Copy(Other);
    *this = std::move(Copy);
  }
  return *this;
}

Digraph::NodeId Digraph::addNode(std::string_view Name) {
  auto It = Ids.find(Name);
  if (It != Ids.end())
    return It->second;
  NodeId Id = static_cast<NodeId>(Names.size());
  std::string_view Stable = intern(Name);
  Names.push_back(Stable);
  Ids.emplace(Stable, Id);
  // Relative ranks survive, so EdgeOrder stays valid. Mutation is
  // single-threaded by contract, so relaxed stores suffice here.
  RankValid.store(false, std::memory_order_relaxed);
  return Id;
}

void Digraph::addEdge(std::string_view From, std::string_view To) {
  addEdge(addNode(From), addNode(To));
}

void Digraph::addEdge(NodeId From, NodeId To) {
  assert(From < Names.size() && To < Names.size() && "edge endpoint unknown");
  Pending.push_back({From, To});
  EdgesDirty.store(true, std::memory_order_relaxed);
  EdgeOrderValid.store(false, std::memory_order_relaxed);
}

void Digraph::addEdges(std::vector<std::pair<NodeId, NodeId>> EdgeList) {
#ifndef NDEBUG
  for (const auto &[From, To] : EdgeList)
    assert(From < Names.size() && To < Names.size() &&
           "edge endpoint unknown");
#endif
  if (EdgeList.empty())
    return;
  if (Pending.empty())
    Pending = std::move(EdgeList);
  else
    Pending.insert(Pending.end(), EdgeList.begin(), EdgeList.end());
  EdgesDirty.store(true, std::memory_order_relaxed);
  EdgeOrderValid.store(false, std::memory_order_relaxed);
}

// Each lazy view is built with double-checked locking: the acquire load on
// the fast path pairs with the release store after the build, so a reader
// that sees the flag set also sees the finished vectors. Concurrent const
// readers (two query threads over one cached session graph) serialize only
// on first use; after that the fast path is a single atomic load.

namespace {

using Edge = std::pair<Digraph::NodeId, Digraph::NodeId>;

/// The bucket offsets of a stable counting sort of \p Items by \p Key,
/// whose values lie below \p NumKeys: entry K is the number of items
/// keyed below K. Two scatters through such offsets, minor key first, are
/// an LSD radix sort, linear in items plus buckets.
template <typename T, typename KeyFn>
std::vector<uint32_t> bucketStarts(const std::vector<T> &Items,
                                   size_t NumKeys, KeyFn Key) {
  std::vector<uint32_t> Start(NumKeys + 1, 0);
  for (const T &X : Items)
    ++Start[Key(X) + 1];
  for (size_t K = 0; K < NumKeys; ++K)
    Start[K + 1] += Start[K];
  return Start;
}

} // namespace

void Digraph::flushEdges() const {
  if (!EdgesDirty.load(std::memory_order_acquire))
    return;
  std::lock_guard<std::mutex> Lock(*ViewMutex);
  if (!EdgesDirty.load(std::memory_order_relaxed))
    return;
  // (from, to) order by two counting passes over the node ids: to, then
  // from. The raw list may hold many duplicates (the Kemmerer and ALFP
  // extractions emit one pair per label and read), so the deduplicated
  // result keeps only its own size and the raw list is released. A list
  // that already ascends strictly (a decoded store blob) is taken as is.
  if (std::adjacent_find(Pending.begin(), Pending.end(),
                         std::greater_equal<Edge>()) != Pending.end()) {
    size_t N = Names.size();
    std::vector<uint32_t> ToStart =
        bucketStarts(Pending, N, [](const Edge &E) { return E.second; });
    std::vector<uint32_t> FromStart =
        bucketStarts(Pending, N, [](const Edge &E) { return E.first; });
    std::vector<Edge> ByTo(Pending.size());
    for (const Edge &E : Pending)
      ByTo[ToStart[E.second]++] = E;
    for (const Edge &E : ByTo)
      Pending[FromStart[E.first]++] = E;
    Pending.erase(std::unique(Pending.begin(), Pending.end()), Pending.end());
  }
  if (Edges.empty()) {
    Pending.shrink_to_fit();
    Edges.swap(Pending);
  } else {
    std::vector<Edge> Merged;
    Merged.reserve(Edges.size() + Pending.size());
    std::set_union(Edges.begin(), Edges.end(), Pending.begin(),
                   Pending.end(), std::back_inserter(Merged));
    Edges.swap(Merged);
  }
  std::vector<Edge>().swap(Pending);
  EdgeOrderValid.store(false, std::memory_order_relaxed);
  EdgesDirty.store(false, std::memory_order_release);
}

void Digraph::ensureRank() const {
  if (RankValid.load(std::memory_order_acquire))
    return;
  std::lock_guard<std::mutex> Lock(*ViewMutex);
  if (RankValid.load(std::memory_order_relaxed))
    return;
  RankOrder.resize(Names.size());
  std::iota(RankOrder.begin(), RankOrder.end(), NodeId(0));
  std::sort(RankOrder.begin(), RankOrder.end(),
            [this](NodeId A, NodeId B) { return Names[A] < Names[B]; });
  RankOf.resize(Names.size());
  for (size_t Rank = 0; Rank < RankOrder.size(); ++Rank)
    RankOf[RankOrder[Rank]] = static_cast<NodeId>(Rank);
  RankValid.store(true, std::memory_order_release);
}

void Digraph::ensureEdgeOrder() const {
  if (EdgeOrderValid.load(std::memory_order_acquire))
    return;
  std::lock_guard<std::mutex> Lock(*ViewMutex);
  if (EdgeOrderValid.load(std::memory_order_relaxed))
    return;
  // (rank[from], rank[to]) order one source row at a time: Edges is in
  // (from, to) id order, so a source's edges are one contiguous run, and
  // the runs are visited in rank order. A run at least as long as a
  // bitmap over the N ranks has words orders its targets through that
  // bitmap, whose scan it pays for; a shorter run sorts (rank, index)
  // keys. Only node-sized scratch is allocated besides EdgeOrder itself.
  size_t N = Names.size(), Words = (N + 63) / 64;
  std::vector<uint32_t> RowStart(N + 1, 0);
  auto RowEnd = Edges.begin();
  for (size_t From = 0; From < N; ++From) {
    RowEnd = std::partition_point(RowEnd, Edges.end(), [From](const Edge &E) {
      return E.first <= From;
    });
    RowStart[From + 1] = static_cast<uint32_t>(RowEnd - Edges.begin());
  }
  std::vector<uint64_t> Bitmap(Words, 0);
  std::vector<uint32_t> IndexAt(N);
  std::vector<uint64_t> Keys;
  EdgeOrder.resize(Edges.size());
  uint32_t *Out = EdgeOrder.data();
  for (NodeId From : RankOrder) {
    uint32_t Begin = RowStart[From], End = RowStart[From + 1];
    if (End - Begin >= Words) {
      for (uint32_t I = Begin; I < End; ++I) {
        NodeId Rank = RankOf[Edges[I].second];
        Bitmap[Rank >> 6] |= uint64_t(1) << (Rank & 63);
        IndexAt[Rank] = I;
      }
      for (size_t WI = 0; WI < Words; ++WI) {
        for (uint64_t Word = Bitmap[WI]; Word; Word &= Word - 1)
          *Out++ = IndexAt[(WI << 6) + __builtin_ctzll(Word)];
        Bitmap[WI] = 0;
      }
    } else {
      Keys.clear();
      for (uint32_t I = Begin; I < End; ++I)
        Keys.push_back(uint64_t(RankOf[Edges[I].second]) << 32 | I);
      std::sort(Keys.begin(), Keys.end());
      for (uint64_t Key : Keys)
        *Out++ = static_cast<uint32_t>(Key);
    }
  }
  EdgeOrderValid.store(true, std::memory_order_release);
}

size_t Digraph::memoryBytes() const {
  // intern() sizes every block at max(name, 4096) and only tracks the
  // open block's capacity (ArenaCap), so closed blocks are counted at
  // the 4096 floor — exact except for individual names beyond 4K.
  size_t Arena = (ArenaBlocks.empty()
                      ? 0
                      : (ArenaBlocks.size() - 1) * size_t(4096)) +
                 ArenaCap;
  size_t Map = Ids.bucket_count() * sizeof(void *) +
               Ids.size() * (sizeof(std::pair<std::string_view, NodeId>) +
                             2 * sizeof(void *));
  return Arena + Names.capacity() * sizeof(std::string_view) + Map +
         (Edges.capacity() + Pending.capacity()) *
             sizeof(std::pair<NodeId, NodeId>) +
         (RankOrder.capacity() + RankOf.capacity()) * sizeof(NodeId) +
         EdgeOrder.capacity() * sizeof(uint32_t) + sizeof(std::mutex);
}

void Digraph::reserveNodes(size_t N) {
  Names.reserve(N);
  Ids.reserve(N);
}

bool Digraph::hasNode(std::string_view Name) const {
  return Ids.count(Name) != 0;
}

bool Digraph::hasEdge(std::string_view From, std::string_view To) const {
  auto F = Ids.find(From), T = Ids.find(To);
  if (F == Ids.end() || T == Ids.end())
    return false;
  return hasEdge(F->second, T->second);
}

bool Digraph::hasEdge(NodeId From, NodeId To) const {
  flushEdges();
  return std::binary_search(Edges.begin(), Edges.end(),
                            std::make_pair(From, To));
}

Digraph::NodeId Digraph::id(std::string_view Name) const {
  auto It = Ids.find(Name);
  assert(It != Ids.end() && "unknown node name");
  return It->second;
}

std::vector<Digraph::NodeId> Digraph::successors(NodeId Id) const {
  flushEdges();
  std::vector<NodeId> Result;
  for (auto It = std::lower_bound(Edges.begin(), Edges.end(),
                                  std::make_pair(Id, NodeId(0)));
       It != Edges.end() && It->first == Id; ++It)
    Result.push_back(It->second);
  return Result;
}

std::vector<Digraph::NodeId> Digraph::predecessors(NodeId Id) const {
  flushEdges();
  std::vector<NodeId> Result;
  for (const auto &[From, To] : Edges)
    if (To == Id)
      Result.push_back(From);
  return Result;
}

bool Digraph::reachable(std::string_view From, std::string_view To) const {
  auto F = Ids.find(From), T = Ids.find(To);
  if (F == Ids.end() || T == Ids.end())
    return false;
  // Plain DFS from From; a path must have length >= 1, so To is only
  // accepted once reached over an edge.
  std::vector<bool> Seen(Names.size(), false);
  std::vector<NodeId> Stack = {F->second};
  while (!Stack.empty()) {
    NodeId N = Stack.back();
    Stack.pop_back();
    for (NodeId Succ : successors(N)) {
      if (Succ == T->second)
        return true;
      if (!Seen[Succ]) {
        Seen[Succ] = true;
        Stack.push_back(Succ);
      }
    }
  }
  return false;
}

void Digraph::reachabilityClosure(BitMatrix &Out) const {
  flushEdges();
  // Warshall closure over packed bit rows: the BitMatrix holds the N x N
  // reachability matrix, and the inner J loop collapses to a word-parallel
  // row union M[I] |= M[K] guarded by M[I][K] — a 64x constant cut over
  // the bool-matrix formulation ("the traditional method of Kemmerer" is
  // the remaining cubic family; see DESIGN.md). BitMatrix pads each row
  // to a multiple of 4 words so the unrolled union kernel (bits::orWords)
  // runs tail-free; padding bits stay zero.
  size_t N = Names.size();
  Out.reset(N, N);
  size_t W = Out.wordsPerRow();
  for (const auto &[From, To] : Edges)
    Out.set(From, To);
  for (size_t K = 0; K < N; ++K) {
    const uint64_t *RowK = Out.row(K);
    for (size_t I = 0; I < N; ++I) {
      if (I == K)
        continue; // RowI |= RowI is a no-op (and would alias)
      uint64_t *RowI = Out.row(I);
      if (!((RowI[K >> 6] >> (K & 63)) & 1))
        continue;
      bits::orWords(RowI, RowK, W);
    }
  }
}

Digraph Digraph::transitiveClosure() const {
  Digraph Result;
  Result.reserveNodes(Names.size());
  for (std::string_view Name : Names)
    Result.addNode(Name);
  BitMatrix M;
  reachabilityClosure(M);
  // Row-major set-bit order is exactly the sorted edge order, so the
  // result's edge vector is materialized directly, already flushed.
  size_t N = Names.size();
  size_t W = M.wordsPerRow();
  for (size_t I = 0; I < N; ++I) {
    const uint64_t *RowI = M.row(I);
    for (size_t WI = 0; WI < W; ++WI) {
      uint64_t Word = RowI[WI];
      while (Word) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Word));
        Result.Edges.emplace_back(static_cast<NodeId>(I),
                                  static_cast<NodeId>((WI << 6) + Bit));
        Word &= Word - 1;
      }
    }
  }
  return Result;
}

bool Digraph::isTransitive() const {
  flushEdges();
  for (const auto &[A, B] : Edges)
    for (NodeId C : successors(B))
      if (!hasEdge(A, C))
        return false;
  return true;
}

Digraph Digraph::mergeNodes(
    const std::function<std::string(std::string_view)> &Rename) const {
  flushEdges();
  Digraph Result;
  for (std::string_view Name : Names)
    Result.addNode(Rename(Name));
  for (const auto &[From, To] : Edges) {
    std::string F = Rename(Names[From]), T = Rename(Names[To]);
    // Merging must not fabricate self-flows: an edge between two distinct
    // nodes that collapse onto one name (e.g. a◦ -> a•) states that the
    // incoming value may flow to the outgoing value, which the merged node
    // represents implicitly, not as a loop.
    if (F == T && From != To)
      continue;
    Result.addEdge(F, T);
  }
  return Result;
}

Digraph Digraph::inducedSubgraph(
    const std::function<bool(std::string_view)> &Keep) const {
  flushEdges();
  Digraph Result;
  for (std::string_view Name : Names)
    if (Keep(Name))
      Result.addNode(Name);
  for (const auto &[From, To] : Edges)
    if (Keep(Names[From]) && Keep(Names[To]))
      Result.addEdge(Names[From], Names[To]);
  return Result;
}

std::vector<std::pair<std::string, std::string>>
Digraph::edgesNotIn(const Digraph &Other) const {
  std::vector<std::pair<std::string, std::string>> Result;
  forEachSortedEdge([&](std::string_view From, std::string_view To) {
    if (!Other.hasEdge(From, To))
      Result.emplace_back(From, To);
  });
  return Result;
}

bool Digraph::sameFlows(const Digraph &Other) const {
  ensureSortedViews();
  Other.ensureSortedViews();
  if (Names.size() != Other.Names.size() || Edges.size() != Other.Edges.size())
    return false;
  for (size_t I = 0; I < RankOrder.size(); ++I)
    if (Names[RankOrder[I]] != Other.Names[Other.RankOrder[I]])
      return false;
  for (size_t I = 0; I < EdgeOrder.size(); ++I) {
    const auto &[From, To] = Edges[EdgeOrder[I]];
    const auto &[OFrom, OTo] = Other.Edges[Other.EdgeOrder[I]];
    if (Names[From] != Other.Names[OFrom] || Names[To] != Other.Names[OTo])
      return false;
  }
  return true;
}

void Digraph::printDOT(std::ostream &OS, std::string_view Title) const {
  OS << "digraph \"" << Title << "\" {\n";
  ensureRank();
  for (NodeId Id : RankOrder)
    OS << "  \"" << Names[Id] << "\";\n";
  forEachSortedEdge([&OS](std::string_view From, std::string_view To) {
    OS << "  \"" << From << "\" -> \"" << To << "\";\n";
  });
  OS << "}\n";
}

std::string Digraph::dot(std::string_view Title) const {
  std::ostringstream OS;
  printDOT(OS, Title);
  return OS.str();
}
