//===- ifa/InformationFlow.cpp --------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ifa/InformationFlow.h"

#include "ifa/LocalDeps.h"
#include "rd/Incremental.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

using namespace vif;

Digraph IFAResult::interfaceGraph() const {
  // Interface nodes carry the ◦ / • suffix (see Resource::name).
  return Graph.inducedSubgraph(
      [](std::string_view Name) { return hasInterfaceMark(Name); });
}

namespace {

/// Dense raw-resource-id -> graph-node-id table: one slot per (kind, id)
/// pair the program can name. Each node's name is materialized exactly
/// once, on first sighting; edges then flow as id pairs.
class FlowNodeTable {
public:
  FlowNodeTable(const ElaboratedProgram &Program, Digraph &G)
      : Program(Program), G(G),
        Stride(std::max(Program.Variables.size(), Program.Signals.size())),
        Ids(Stride * 6, NoNode) {
    // Plain resources dominate the node set; decorated ◦/• nodes are the
    // overshoot the vector absorbs.
    G.reserveNodes(Program.Variables.size() + Program.Signals.size());
  }

  Digraph::NodeId nodeOf(uint32_t Raw) {
    Digraph::NodeId &Id = Ids[(Raw >> 28) * Stride + (Raw & 0x0fffffff)];
    if (Id == NoNode)
      Id = G.addNode(Resource::fromRaw(Raw).name(Program));
    return Id;
  }

private:
  static constexpr Digraph::NodeId NoNode = ~Digraph::NodeId(0);
  const ElaboratedProgram &Program;
  Digraph &G;
  size_t Stride;
  std::vector<Digraph::NodeId> Ids;
};

} // namespace

Digraph vif::extractFlowGraph(const ResourceMatrix &RM,
                              const ElaboratedProgram &Program) {
  // One pass over the ordered entry set: per label, the M0/M1 range comes
  // first and is buffered, then each R0 entry fans out. No per-label
  // vectors are allocated and no names are built per edge.
  Digraph G;
  FlowNodeTable Nodes(Program, G);
  std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>> EdgeList;
  std::vector<uint32_t> Mods; // scratch, reused across labels
  for (auto It = RM.begin(), End = RM.end(); It != End;) {
    LabelId L = It->L;
    Mods.clear();
    for (; It != End && It->L == L &&
           (It->A == Access::M0 || It->A == Access::M1);
         ++It)
      Mods.push_back(It->N.raw());
    for (; It != End && It->L == L && It->A == Access::R0; ++It) {
      if (Mods.empty())
        continue;
      Digraph::NodeId From = Nodes.nodeOf(It->N.raw());
      for (uint32_t M : Mods)
        EdgeList.emplace_back(From, Nodes.nodeOf(M));
    }
    for (; It != End && It->L == L; ++It) {
      // Skip the R1 range; synchronization reads don't induce edges here.
    }
  }
  G.addEdges(std::move(EdgeList));
  return G;
}

namespace {

/// Builds the static copy graph described in the header: an edge
/// (Src -> Dst) means every (n, Src, R0) entry of RMgl induces
/// (n, Dst, R0). Adjacency is a dense vector indexed by source label;
/// duplicate detection is a hash probe on the packed edge.
struct CopyGraph {
  /// Adjacency: for each source label, the labels it feeds.
  std::vector<std::vector<LabelId>> Succs;
  std::unordered_set<uint64_t> Present;

  void addEdge(LabelId Src, LabelId Dst) {
    if (Src == Dst)
      return;
    if (!Present.insert((static_cast<uint64_t>(Src) << 32) | Dst).second)
      return;
    if (Succs.size() <= Src)
      Succs.resize(static_cast<size_t>(Src) + 1);
    Succs[Src].push_back(Dst);
  }

  bool hasSuccs(LabelId Src) const {
    return Src < Succs.size() && !Succs[Src].empty();
  }
};

} // namespace

ResourceRows vif::tableSevenReads(const ResourceMatrix &RMlo,
                                  size_t NumLabels) {
  ResourceRows Reads(NumLabels + 1);
  LabelIndexedRM LoIdx(RMlo);
  for (LabelId L = 0; L <= NumLabels; ++L) {
    for (uint32_t Raw : LoIdx.at(L, Access::R0))
      Reads.Items.push_back(Resource::fromRaw(Raw));
    Reads.closeRow();
  }
  return Reads;
}

IFAResult vif::analyzeInformationFlow(const ElaboratedProgram &Program,
                                      const ProgramCFG &CFG,
                                      const IFAOptions &Opts,
                                      ProcessArtifactTable *Table,
                                      IncrementalStats *Stats) {
  ResourceMatrix RMlo = computeLocalDeps(Program, CFG);
  ActiveSignalsResult Active;
  ReachingDefsResult RD;
  if (Opts.RD.ReferenceSolver) {
    Active = analyzeActiveSignalsReference(Program, CFG);
    RD = analyzeReachingDefsReference(Program, CFG, Active, Opts.RD);
  } else {
    ResourceRows Reads = tableSevenReads(RMlo, CFG.numLabels());
    analyzeIncremental(Program, CFG, Opts.RD, Table, Active, RD, Stats,
                       &Reads);
  }
  return composeInformationFlow(Program, CFG, Opts, std::move(RMlo),
                                std::move(Active), std::move(RD));
}

IFAResult vif::composeInformationFlow(const ElaboratedProgram &Program,
                                      const ProgramCFG &CFG,
                                      const IFAOptions &Opts,
                                      ResourceMatrix RMlo,
                                      ActiveSignalsResult Active,
                                      ReachingDefsResult RD) {
  IFAResult R;
  R.RMlo = std::move(RMlo);
  R.Active = std::move(Active);
  R.RD = std::move(RD);

  size_t NumLabels = CFG.numLabels();
  R.RDDagger = PairRows(NumLabels + 1);
  R.RDDaggerPhi = PairRows(NumLabels + 1);
  R.RDDagger.closeRow(); // label 0
  R.RDDaggerPhi.closeRow();

  // Table 7: specialize the RD results to actual uses. Driven by the small
  // per-label read sets, answered straight off the dense RD representation
  // (forEachPairOf), so the full Entry sets are never materialized here.
  // The read sets ascend by resource, so each label's row comes out in
  // DefPair order.
  {
    LabelIndexedRM LoIdx(R.RMlo);
    for (LabelId L = 1; L <= NumLabels; ++L) {
      for (uint32_t Raw : LoIdx.at(L, Access::R0)) {
        Resource N = Resource::fromRaw(Raw);
        R.RD.Entry.forEachPairOf(L, N, [&](LabelId DefL) {
          R.RDDagger.Items.push_back(DefPair{N, DefL});
        });
      }
      R.RDDagger.closeRow();
      if (CFG.isWaitLabel(L))
        for (uint32_t Raw : LoIdx.at(L, Access::R1)) {
          Resource N = Resource::fromRaw(Raw);
          R.Active.MayEntry.forEachPairOf(L, N, [&](LabelId DefL) {
            R.RDDaggerPhi.Items.push_back(DefPair{N, DefL});
          });
        }
      R.RDDaggerPhi.closeRow();
    }
  }

  // [Initialization].
  R.RMgl = R.RMlo;

  bool Improved = Opts.Improved || Opts.ProgramEndOutgoing;

  // Allocate the outgoing pseudo-labels l_{n•} (Table 9) above all real
  // labels.
  LabelId NextLabel = static_cast<LabelId>(NumLabels) + 1;
  auto outgoingLabel = [&](Resource N) -> LabelId {
    auto [It, New] = R.OutgoingLabels.try_emplace(N, NextLabel);
    if (New)
      ++NextLabel;
    return It->second;
  };

  CopyGraph Copies;

  // [Present values and local variables]: copy edge l' -> l for every
  // (n', l') ∈ RD†(l) with l' a real label.
  for (LabelId L = 1; L <= NumLabels; ++L)
    for (const DefPair &P : R.RDDagger[L])
      if (P.L != InitialLabel)
        Copies.addEdge(P.L, L);

  // [Synchronized values]: for (s', l_i) ∈ RD†(l) with l_i a wait label,
  // and any cf-compatible wait l_j with (s', l'') ∈ RD†ϕ(l_j): copy edge
  // l'' -> l. Under the Hsieh-Levitan emulation (ABL-HL), definitions of
  // other processes are only visible at their final synchronization, so
  // l_j is then restricted to each foreign process's last wait.
  //
  // The RD†ϕ tables are queried per resource here and again for the
  // outgoing rules below, so build the resource-indexed view once: for
  // every resource raw id, all its (wait label l_j, def label l'') pairs.
  std::vector<LabelId> WaitLabels = CFG.allWaitLabels();
  std::unordered_map<uint32_t, std::vector<std::pair<LabelId, LabelId>>>
      PhiByResource;
  for (LabelId LJ : WaitLabels)
    for (const DefPair &Phi : R.RDDaggerPhi[LJ])
      PhiByResource[Phi.N.raw()].emplace_back(LJ, Phi.L);
  auto PhiOf = [&PhiByResource](Resource N)
      -> const std::vector<std::pair<LabelId, LabelId>> * {
    auto It = PhiByResource.find(N.raw());
    return It == PhiByResource.end() ? nullptr : &It->second;
  };

  std::vector<LabelId> LastWaitOf(CFG.processes().size(), InitialLabel);
  for (const ProcessCFG &Proc : CFG.processes())
    if (!Proc.WaitLabels.empty())
      LastWaitOf[Proc.ProcessId] = Proc.WaitLabels.back();
  for (LabelId L = 1; L <= NumLabels; ++L)
    for (const DefPair &P : R.RDDagger[L]) {
      if (P.L == InitialLabel || !CFG.isWaitLabel(P.L))
        continue;
      const auto *Phis = PhiOf(P.N);
      if (!Phis)
        continue;
      for (const auto &[LJ, PhiL] : *Phis) {
        if (!CFG.cfCompatible(P.L, LJ))
          continue;
        if (Opts.RD.HsiehLevitanCrossFlow &&
            CFG.processOf(LJ) != CFG.processOf(P.L) &&
            LJ != LastWaitOf[CFG.processOf(LJ)])
          continue;
        Copies.addEdge(PhiL, L);
      }
    }

  if (Improved) {
    // [Initial values]: (n, ?) ∈ RD†(l) ⟹ (n◦, l, R0).
    for (LabelId L = 1; L <= NumLabels; ++L)
      for (const DefPair &P : R.RDDagger[L])
        if (P.L == InitialLabel)
          R.RMgl.insert(P.N.incoming(), L, Access::R0);

    // [Incoming values]: a present value defined at a synchronization point
    // may have been driven by the environment — for input ports, which are
    // exactly the signals the π process feeds (n, l') ∈ RD†(l), l' ∈ WS
    // ⟹ (n◦, l, R0).
    for (LabelId L = 1; L <= NumLabels; ++L)
      for (const DefPair &P : R.RDDagger[L]) {
        if (P.L == InitialLabel || !CFG.isWaitLabel(P.L))
          continue;
        if (P.N.isSignal() && Program.signal(P.N.id()).isInput())
          R.RMgl.insert(P.N.incoming(), L, Access::R0);
      }

    // [Outgoing values] and [Outcoming values]: per out-port n, a pseudo
    // label l_{n•} with (n•, l_{n•}, M1); every active definition of n
    // reaching any wait feeds its reads into l_{n•}.
    for (unsigned Sig : Program.outputSignals()) {
      Resource N = Resource::signal(Sig);
      LabelId LOut = outgoingLabel(N);
      R.RMgl.insert(N.outgoing(), LOut, Access::M1);
      if (const auto *Phis = PhiOf(N))
        for (const auto &[LJ, PhiL] : *Phis) {
          (void)LJ; // any wait feeds the outgoing pseudo-label
          Copies.addEdge(PhiL, LOut);
        }
    }
  }

  if (Opts.ProgramEndOutgoing) {
    // Figure 4(b) extension: the end of a non-looped process is an
    // outgoing synchronization point for all its variables and signals.
    for (const ProcessCFG &P : CFG.processes()) {
      if (Program.process(P.ProcessId).Looped)
        continue;
      PairSet EndDefs = R.RD.atProcessEnd(P);
      std::vector<Resource> All;
      for (unsigned V : P.FreeVars)
        All.push_back(Resource::variable(V));
      for (unsigned S : P.FreeSigs)
        All.push_back(Resource::signal(S));
      for (Resource N : All) {
        LabelId LOut = outgoingLabel(N);
        R.RMgl.insert(N.outgoing(), LOut,
                      N.isVariable() ? Access::M0 : Access::M1);
        auto [It, End] = EndDefs.equalRange(N);
        for (; It != End; ++It) {
          if (It->L == InitialLabel)
            R.RMgl.insert(N.incoming(), LOut, Access::R0);
          else
            Copies.addEdge(It->L, LOut);
        }
      }
    }
  }

  // Fixpoint: propagate R0 sets along the copy graph. Since each edge
  // copies the entire R0 set, this is a union-dataflow over labels. The
  // carrier is a design-level analogue of rd/DenseDomain: every resource
  // with an R0 entry anywhere gets a bit in one shared numbering (sorted
  // by raw id, so set-bit order is entry order), each label's row is a
  // row of one support/BitMatrix over it, and a copy-edge propagation is
  // one word-parallel orInto whose grew bit drives the worklist. RMgl
  // then adopts the rows. The sorted-vector rows (per-edge
  // set_union) are retained behind Opts.ReferenceClosure as the oracle
  // for the differential tests; they are adopted through the same path.
  //
  // FIFO worklist seeded in ascending label order: copy edges mostly point
  // from textually earlier definitions to later uses, so this approximates
  // a topological sweep and each label's set is usually complete before it
  // is propagated onward (a LIFO seeded the same way pops the *last*
  // sources first and re-propagates every downstream suffix per source —
  // O(n³) worth of copying on an n-assignment chain instead of O(n²)).
  LabelId MaxLabel = NextLabel - 1;
  std::deque<LabelId> Work;
  std::vector<char> InWork(static_cast<size_t>(MaxLabel) + 1, 0);
  for (LabelId Src = 0; Src < Copies.Succs.size(); ++Src)
    if (!Copies.Succs[Src].empty()) {
      Work.push_back(Src);
      InWork[Src] = 1;
    }

  if (Opts.ReferenceClosure) {
    std::vector<std::vector<uint32_t>> R0(static_cast<size_t>(MaxLabel) + 1);
    for (const RMEntry &E : R.RMgl)
      if (E.A == Access::R0)
        // Entry order is (label, access, resource), so each R0[L] fills
        // ascending and stays a sorted set.
        R0[E.L].push_back(E.N.raw());

    std::vector<uint32_t> Merged;
    while (!Work.empty()) {
      LabelId Src = Work.front();
      Work.pop_front();
      InWork[Src] = 0;
      const std::vector<uint32_t> &SrcSet = R0[Src];
      if (SrcSet.empty())
        continue;
      for (LabelId Dst : Copies.Succs[Src]) {
        std::vector<uint32_t> &DstSet = R0[Dst];
        Merged.clear();
        std::set_union(DstSet.begin(), DstSet.end(), SrcSet.begin(),
                       SrcSet.end(), std::back_inserter(Merged));
        if (Merged.size() == DstSet.size())
          continue;
        DstSet.swap(Merged);
        if (!InWork[Dst] && Copies.hasSuccs(Dst)) {
          Work.push_back(Dst);
          InWork[Dst] = 1;
        }
      }
    }

    R.RMgl.insertR0Rows(R0);
    R.Graph = extractFlowGraph(R.RMgl, Program);
  } else {
    // The R0 universe: every resource the rows can ever mention is
    // already in some R0 entry (propagation only copies).
    R0Rows Fix;
    for (const RMEntry &E : R.RMgl)
      if (E.A == Access::R0)
        Fix.name(E.N.raw());
    Fix.number();
    Fix.layout(static_cast<size_t>(MaxLabel) + 1);
    for (const RMEntry &E : R.RMgl)
      if (E.A == Access::R0)
        Fix.set(E.L, E.N.raw());
    const std::vector<uint32_t> &Universe = Fix.Universe;
    BitMatrix &R0 = Fix.Bits;
    size_t K = Universe.size(), W = R0.wordsPerRow();

    while (!Work.empty()) {
      LabelId Src = Work.front();
      Work.pop_front();
      InWork[Src] = 0;
      const uint64_t *SrcSet = R0.row(Src);
      if (BitMatrix::none(SrcSet, W))
        continue;
      for (LabelId Dst : Copies.Succs[Src]) {
        if (!BitMatrix::orInto(R0.row(Dst), SrcSet, W))
          continue;
        if (!InWork[Dst] && Copies.hasSuccs(Dst)) {
          Work.push_back(Dst);
          InWork[Dst] = 1;
        }
      }
    }

    // Graph extraction straight off the bitset rows: the rows carry every
    // R0 entry (they were seeded from RMgl and only grew), so the
    // pre-adoption view is only consulted for the M0/M1 runs. Node ids
    // keep their first-sighting order — per label the first mod, then the
    // read bits not named before, then the other mods — because the
    // store's design blobs record the graph by node id. PredsOf holds each
    // modified node's reads (one word-OR per label), and the edge list is
    // written from it in ascending (from, to) id order, so the graph
    // adopts it without sorting: each source's run starts after the
    // out-degrees of the sources before it, and PredsOf is transposed 64
    // targets at a time into one word per read bit, whose set bits are
    // that read's targets in the block, ascending.
    Digraph G;
    {
      std::vector<Digraph::NodeId> ReadNode(K);
      BitMatrix PredsOf;
      {
        // The naming tables die before the edge list is written, so the
        // list and its scratch reuse their memory.
        FlowNodeTable Nodes(Program, G);
        LabelIndexedRM GlIdx(R.RMgl);
        BitMatrix Scratch(2, K);
        uint64_t *Named = Scratch.row(0), *Fresh = Scratch.row(1);
        // (modified node, label) per M0/M1 entry at a label with reads.
        std::vector<std::pair<Digraph::NodeId, LabelId>> ModsAt;
        for (LabelId L = InitialLabel; L <= GlIdx.maxLabel(); ++L) {
          const uint64_t *Reads = R0.row(L);
          if (BitMatrix::none(Reads, W))
            continue;
          bool ReadsNamed = false;
          for (Access MA : {Access::M0, Access::M1})
            for (uint32_t M : GlIdx.at(L, MA)) {
              ModsAt.emplace_back(Nodes.nodeOf(M), L);
              if (ReadsNamed)
                continue;
              ReadsNamed = true;
              BitMatrix::copy(Fresh, Reads, W);
              BitMatrix::subtract(Fresh, Named, W);
              BitMatrix::forEachBit(Fresh, W, [&](size_t I) {
                ReadNode[I] = Nodes.nodeOf(Universe[I]);
              });
              BitMatrix::orInto(Named, Fresh, W);
            }
        }
        PredsOf.reset(G.numNodes(), K);
        for (const auto &[To, L] : ModsAt)
          BitMatrix::orInto(PredsOf.row(To), R0.row(L), W);
      }
      size_t NumNodes = PredsOf.numRows();
      std::vector<uint32_t> Cursor(NumNodes + 1, 0);
      for (Digraph::NodeId To = 0; To < NumNodes; ++To)
        BitMatrix::forEachBit(PredsOf.row(To), W,
                              [&](size_t I) { ++Cursor[ReadNode[I] + 1]; });
      for (size_t From = 0; From < NumNodes; ++From)
        Cursor[From + 1] += Cursor[From];
      std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>> EdgeList(
          Cursor[NumNodes]);
      std::vector<uint64_t> TargetsOf(K, 0);
      std::vector<uint32_t> Touched;
      for (Digraph::NodeId Base = 0; Base < NumNodes; Base += 64) {
        Digraph::NodeId End = std::min<size_t>(Base + 64, NumNodes);
        for (Digraph::NodeId To = Base; To < End; ++To)
          BitMatrix::forEachBit(PredsOf.row(To), W, [&](size_t I) {
            if (!TargetsOf[I])
              Touched.push_back(static_cast<uint32_t>(I));
            TargetsOf[I] |= uint64_t(1) << (To - Base);
          });
        for (uint32_t I : Touched) {
          Digraph::NodeId From = ReadNode[I];
          uint32_t &At = Cursor[From];
          for (uint64_t Word = TargetsOf[I]; Word; Word &= Word - 1)
            EdgeList[At++] = {From, Base + static_cast<Digraph::NodeId>(
                                               __builtin_ctzll(Word))};
          TargetsOf[I] = 0;
        }
        Touched.clear();
      }
      G.addEdges(std::move(EdgeList));
    }
    R.Graph = std::move(G);

    // RMgl keeps the fixpoint rows as they are: the closed matrix is the
    // flat pre-closure entries plus these rows (entered flat only where
    // the rows are too sparse to pay, see ResourceMatrix::rowsPay).
    R.RMgl.insertR0Rows(std::move(Fix));
  }

  // Ensure every resource appears as a node even when isolated, matching
  // the paper's figures which show unconnected nodes.
  for (const ElabVariable &V : Program.Variables)
    R.Graph.addNode(V.UniqueName);
  for (const ElabSignal &S : Program.Signals)
    R.Graph.addNode(S.UniqueName);
  if (Improved) {
    auto AddInterfaceNodes = [&](Resource N) {
      R.Graph.addNode(N.incoming().name(Program));
      R.Graph.addNode(N.outgoing().name(Program));
    };
    if (Opts.ProgramEndOutgoing) {
      for (const ProcessCFG &P : CFG.processes()) {
        if (Program.process(P.ProcessId).Looped)
          continue;
        for (unsigned V : P.FreeVars)
          AddInterfaceNodes(Resource::variable(V));
        for (unsigned S : P.FreeSigs)
          AddInterfaceNodes(Resource::signal(S));
      }
    }
    if (Opts.Improved) {
      for (unsigned Sig : Program.inputSignals())
        R.Graph.addNode(Resource::signal(Sig).incoming().name(Program));
      for (unsigned Sig : Program.outputSignals())
        R.Graph.addNode(Resource::signal(Sig).outgoing().name(Program));
    }
  }

  return R;
}
