//===- tests/rm_differential_test.cpp - Dense matrix & closure oracles ----===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
// The ResourceMatrix runs on a dense sorted-run backend (flat entry
// vector + lazily merged insert buffer, plus adopted R0 bit rows); the
// historical std::set backend is the test-only oracle
// ReferenceResourceMatrix (tests/oracle/).
// Likewise the Table 8 closure propagates BitSet R0 rows over a
// design-level resource numbering, with the sorted-vector rows retained
// behind IFAOptions::ReferenceClosure.
// These tests drive both backends through identical operation streams on
// the paper figures and the synthetic families and assert byte-identical
// entry sequences, equal flow graphs, and — for Digraph's Warshall
// closure — agreement with a naive DFS reachability oracle on random
// digraphs across word-boundary sizes.
//
//===----------------------------------------------------------------------===//

#include "ifa/AlfpClosure.h"
#include "ifa/InformationFlow.h"
#include "ifa/Kemmerer.h"
#include "oracle/Oracles.h"
#include "parse/Parser.h"
#include "workloads/AesVhdl.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace vif;

namespace {

ElaboratedProgram elaborate(const std::string &Source, bool IsDesign) {
  DiagnosticEngine Diags;
  std::optional<ElaboratedProgram> P;
  if (IsDesign) {
    DesignFile F = parseDesign(Source, Diags);
    if (!Diags.hasErrors())
      P = elaborateDesign(F, Diags);
  } else {
    StatementProgram Prog = parseStatementProgram(Source, Diags);
    if (!Diags.hasErrors())
      P = elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
  }
  EXPECT_TRUE(P.has_value()) << Diags.str();
  return std::move(*P);
}

/// The workload corpus both backend differentials sweep: the paper's
/// figure programs plus one representative of each synthetic family.
struct Workload {
  const char *Name;
  std::string Source;
  bool IsDesign;
};

std::vector<Workload> corpus() {
  std::vector<Workload> C;
  C.push_back({"fig3(a)", "c := b; b := a;", false});
  C.push_back({"fig3(b)", "b := a; c := b;", false});
  C.push_back({"fig5", workloads::shiftRowsStatements(), false});
  C.push_back({"fig5-design", workloads::shiftRowsDesign(), true});
  C.push_back({"chain", workloads::chainStatements(48), false});
  C.push_back({"ladder", workloads::tempReuseLadder(5, 4), false});
  C.push_back({"pipeline", workloads::pipelineDesign(5), true});
  C.push_back({"mesh", workloads::syncMeshDesign(3, 3, 4), true});
  for (uint64_t Seed = 1; Seed <= 4; ++Seed)
    C.push_back({"random", workloads::randomDesign(Seed, 3, 6, 3), true});
  return C;
}

/// Deterministic xorshift for shuffled replay orders.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed ? Seed : 1) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
};

std::vector<RMEntry> entriesOf(const ResourceMatrix &RM) {
  return std::vector<RMEntry>(RM.begin(), RM.end());
}

std::vector<RMEntry> entriesOf(const ReferenceResourceMatrix &RM) {
  return std::vector<RMEntry>(RM.begin(), RM.end());
}

//===----------------------------------------------------------------------===//
// Matrix backend differential
//===----------------------------------------------------------------------===//

/// Replays \p Entries (shuffled, with duplicate re-inserts and
/// interleaved reads that force flush boundaries) into both backends and
/// asserts identical behavior and identical final entry streams.
void expectBackendsAgree(std::vector<RMEntry> Entries, uint64_t Seed,
                         const char *What) {
  Rng R(Seed);
  for (size_t I = Entries.size(); I > 1; --I)
    std::swap(Entries[I - 1], Entries[R.next() % I]);

  ResourceMatrix Dense;
  ReferenceResourceMatrix Ref;
  size_t Op = 0;
  for (const RMEntry &E : Entries) {
    EXPECT_EQ(Dense.insert(E.N, E.L, E.A), Ref.insert(E.N, E.L, E.A))
        << What << ": first insert disagrees";
    // Re-insert a previously inserted entry now and then: both backends
    // must report it as present.
    if (++Op % 3 == 0) {
      const RMEntry &Dup = Entries[R.next() % Op];
      EXPECT_EQ(Dense.insert(Dup.N, Dup.L, Dup.A),
                Ref.insert(Dup.N, Dup.L, Dup.A))
          << What << ": duplicate insert disagrees";
    }
    // Interleave reads so the dense backend's pending buffer flushes at
    // arbitrary points in the stream.
    if (Op % 7 == 0) {
      EXPECT_EQ(Dense.size(), Ref.size()) << What;
      EXPECT_TRUE(Dense.contains(E.N, E.L, E.A)) << What;
    }
  }
  EXPECT_EQ(Dense.size(), Ref.size()) << What;
  std::vector<RMEntry> DenseStream = entriesOf(Dense);
  std::vector<RMEntry> RefStream = entriesOf(Ref);
  ASSERT_EQ(DenseStream.size(), RefStream.size()) << What;
  for (size_t I = 0; I < DenseStream.size(); ++I)
    EXPECT_TRUE(DenseStream[I] == RefStream[I])
        << What << ": entry stream diverges at " << I;
}

TEST(RmBackendDifferential, ShuffledReplayOnCorpus) {
  for (const Workload &W : corpus()) {
    ElaboratedProgram P = elaborate(W.Source, W.IsDesign);
    ProgramCFG CFG = ProgramCFG::build(P);
    IFAOptions Opts;
    Opts.Improved = true;
    IFAResult R = analyzeInformationFlow(P, CFG, Opts);
    expectBackendsAgree(entriesOf(R.RMlo), 7, W.Name);
    expectBackendsAgree(entriesOf(R.RMgl), 1234567, W.Name);
  }
}

TEST(RmBackendDifferential, BulkR0RowsAgree) {
  // insertR0Rows from per-label vector rows and from R0Rows bit rows, and
  // the reference hinted sweep, must land the same entry stream on top of
  // the same RMlo.
  for (const Workload &W : corpus()) {
    ElaboratedProgram P = elaborate(W.Source, W.IsDesign);
    ProgramCFG CFG = ProgramCFG::build(P);
    IFAResult R = analyzeInformationFlow(P, CFG);

    // The closure's post-fixpoint R0 rows, reconstructed from RMgl.
    std::vector<LabelId> Labels = R.RMgl.labels();
    LabelId MaxLabel = Labels.empty() ? 0 : Labels.back();
    std::vector<std::vector<uint32_t>> Rows(static_cast<size_t>(MaxLabel) +
                                            1);
    for (const RMEntry &E : R.RMgl)
      if (E.A == Access::R0)
        Rows[E.L].push_back(E.N.raw());

    // The bitset form: R0Rows over the rows' shared universe.
    R0Rows BitRows;
    for (const auto &Row : Rows)
      for (uint32_t Raw : Row)
        BitRows.name(Raw);
    BitRows.number();
    BitRows.layout(Rows.size());
    for (size_t L = 0; L < Rows.size(); ++L)
      for (uint32_t Raw : Rows[L])
        BitRows.set(static_cast<LabelId>(L), Raw);

    ResourceMatrix DenseVec, DenseBits;
    ReferenceResourceMatrix Ref;
    for (const RMEntry &E : R.RMlo) {
      DenseVec.insert(E.N, E.L, E.A);
      DenseBits.insert(E.N, E.L, E.A);
      Ref.insert(E.N, E.L, E.A);
    }
    DenseVec.insertR0Rows(Rows);
    DenseBits.insertR0Rows(std::move(BitRows));
    Ref.insertR0Rows(Rows);

    std::vector<RMEntry> FromVec = entriesOf(DenseVec);
    std::vector<RMEntry> FromBits = entriesOf(DenseBits);
    std::vector<RMEntry> FromRef = entriesOf(Ref);
    ASSERT_EQ(FromVec.size(), FromRef.size()) << W.Name;
    ASSERT_EQ(FromBits.size(), FromRef.size()) << W.Name;
    for (size_t I = 0; I < FromRef.size(); ++I) {
      EXPECT_TRUE(FromVec[I] == FromRef[I]) << W.Name << " at " << I;
      EXPECT_TRUE(FromBits[I] == FromRef[I]) << W.Name << " at " << I;
    }
    // And the rebuilt matrix carries the same flows as the pipeline's.
    EXPECT_TRUE(extractFlowGraph(DenseBits, P).sameFlows(
        extractFlowGraph(R.RMgl, P)))
        << W.Name;
  }
}

/// Checks a closed RMgl (flat entries plus adopted R0 rows) against a
/// ReferenceResourceMatrix built entry by entry from its per-slot answers
/// (resourcesAt), four ways: size(), the iterated entry sequence, the
/// print bytes, and contains/resourcesAt on every (label, access) slot —
/// empty slots and labels past the last one included. Each reader walks
/// the factored form by a different path, so they must all agree with
/// the one std::set relation.
void expectMatchesEntryByEntry(const ResourceMatrix &RM,
                               const ElaboratedProgram &P,
                               const std::string &What) {
  std::vector<LabelId> Labels = RM.labels();
  LabelId Past = (Labels.empty() ? 0 : Labels.back()) + 3;
  const Access Accesses[] = {Access::M0, Access::M1, Access::R0, Access::R1};
  ReferenceResourceMatrix Ref;
  std::vector<Resource> Seen[4]; // every resource named per access
  for (LabelId L = 0; L <= Past; ++L)
    for (Access A : Accesses)
      for (Resource N : RM.resourcesAt(L, A)) {
        EXPECT_TRUE(Ref.insert(N, L, A)) << What << ": slot repeats " << L;
        Seen[static_cast<size_t>(A)].push_back(N);
      }
  for (std::vector<Resource> &S : Seen) {
    std::sort(S.begin(), S.end());
    S.erase(std::unique(S.begin(), S.end()), S.end());
  }

  // 1. size.
  ASSERT_EQ(RM.size(), Ref.size()) << What;
  // 2. entry sequence.
  std::vector<RMEntry> Stream = entriesOf(RM), RefStream = entriesOf(Ref);
  ASSERT_EQ(Stream.size(), RefStream.size()) << What;
  for (size_t I = 0; I < Stream.size(); ++I)
    ASSERT_TRUE(Stream[I] == RefStream[I]) << What << ": entry " << I;
  std::vector<LabelId> RefLabels;
  for (const RMEntry &E : RefStream)
    if (RefLabels.empty() || RefLabels.back() != E.L)
      RefLabels.push_back(E.L);
  EXPECT_EQ(Labels, RefLabels) << What;
  // 3. print bytes.
  std::ostringstream Printed, RefPrinted;
  RM.print(Printed, P);
  for (const RMEntry &E : RefStream)
    RefPrinted << E.N.name(P) << "@" << E.L << ":" << accessName(E.A)
               << '\n';
  EXPECT_EQ(Printed.str(), RefPrinted.str()) << What;
  // 4. per-slot answers: contains on every member and on 16 other
  // resources the access names somewhere, rotating with the label.
  LabelIndexedRM View(RM);
  EXPECT_EQ(View.maxLabel(), Labels.empty() ? 0 : Labels.back()) << What;
  for (LabelId L = 0; L <= Past; ++L)
    for (Access A : Accesses) {
      std::vector<Resource> At = RM.resourcesAt(L, A);
      LabelIndexedRM::RawRun Run = View.at(L, A);
      ASSERT_EQ(Run.size(), At.size()) << What << " @" << L;
      size_t I = 0;
      for (uint32_t Raw : Run)
        EXPECT_EQ(Raw, At[I++].raw()) << What << " @" << L;
      for (Resource N : At)
        ASSERT_TRUE(RM.contains(N, L, A)) << What << " @" << L;
      const std::vector<Resource> &Names = Seen[static_cast<size_t>(A)];
      for (size_t K = 0; K < std::min<size_t>(16, Names.size()); ++K) {
        Resource N = Names[(L * 7 + K) % Names.size()];
        ASSERT_EQ(RM.contains(N, L, A), Ref.contains(N, L, A))
            << What << ": " << N.name(P) << "@" << L << ":"
            << accessName(A);
      }
    }
}

TEST(RmBackendDifferential, FactoredRmglMatchesReferenceEntryByEntry) {
  std::vector<Workload> All = corpus();
  All.push_back({"aes-core", workloads::aesCoreDesign(1), true});
  All.push_back({"chain300", workloads::chainStatements(300), false});
  All.push_back({"pipeline64", workloads::pipelineDesign(64), true});
  // Wide sparse rows: RMgl enters them flat (ResourceMatrix::rowsPay).
  All.push_back({"copies256", workloads::independentCopies(256), false});
  for (const Workload &W : All) {
    ElaboratedProgram P = elaborate(W.Source, W.IsDesign);
    ProgramCFG CFG = ProgramCFG::build(P);
    // Plain, --improved, --end-out, and the reference closure's
    // sorted-vector rows going through the same adoption.
    for (int Mode = 0; Mode < 4; ++Mode) {
      IFAOptions Opts;
      Opts.Improved = Mode == 1;
      Opts.ProgramEndOutgoing = Mode == 2;
      Opts.ReferenceClosure = Mode == 3;
      IFAResult R = analyzeInformationFlow(P, CFG, Opts);
      std::string What = std::string(W.Name) + " mode " +
                         std::to_string(Mode);
      expectMatchesEntryByEntry(R.RMgl, P, What);
      // RMlo has no rows; it answers through the flat part alone.
      if (Mode == 0)
        expectMatchesEntryByEntry(R.RMlo, P, What + " RMlo");
    }
  }
}

TEST(RmBackendDifferential, AdoptedRowsStayOneSet) {
  // One adoption amid an insert stream, as the closure does it: the rows
  // start from the present R0 entries at their labels and add more, and
  // later R0 inserts at row labels name resources of the rows' universe.
  // Odd seeds lay out dense rows (kept as rows), even seeds sparse ones
  // (entered flat, see ResourceMatrix::rowsPay): the same set as the
  // reference either way.
  const Access Accesses[] = {Access::M0, Access::M1, Access::R0, Access::R1};
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Rng R(Seed);
    auto randomResource = [&R] {
      unsigned Id = static_cast<unsigned>(R.next() % 12);
      return R.next() % 2 ? Resource::variable(Id) : Resource::signal(Id);
    };
    ResourceMatrix Dense;
    ReferenceResourceMatrix Ref;
    size_t NumRows = 4 + R.next() % 16;
    std::vector<uint32_t> Universe;
    auto insertSome = [&](size_t Count) {
      for (size_t I = 0; I < Count; ++I) {
        Resource N = randomResource();
        LabelId L = static_cast<LabelId>(R.next() % 24);
        Access A = Accesses[R.next() % 4];
        if (A == Access::R0 && L < NumRows && !Universe.empty())
          N = Resource::fromRaw(Universe[R.next() % Universe.size()]);
        EXPECT_EQ(Dense.insert(N, L, A), Ref.insert(N, L, A)) << Seed;
      }
    };
    auto expectSame = [&](const char *When) {
      ASSERT_EQ(Dense.size(), Ref.size()) << Seed << " " << When;
      std::vector<RMEntry> A = entriesOf(Dense), B = entriesOf(Ref);
      ASSERT_EQ(A.size(), B.size()) << Seed << " " << When;
      for (size_t I = 0; I < A.size(); ++I)
        ASSERT_TRUE(A[I] == B[I]) << Seed << " " << When << " at " << I;
      for (size_t I = 0; I < 200; ++I) {
        Resource N = randomResource();
        LabelId L = static_cast<LabelId>(R.next() % 26);
        Access Acc = Accesses[R.next() % 4];
        ASSERT_EQ(Dense.contains(N, L, Acc), Ref.contains(N, L, Acc))
            << Seed << " " << When;
      }
    };
    insertSome(60);
    std::vector<RMEntry> Present = entriesOf(Ref);
    auto atRowLabel = [NumRows](const RMEntry &E) {
      return E.A == Access::R0 && E.L < NumRows;
    };
    R0Rows New;
    for (size_t I = 0; I < 8; ++I)
      New.name(randomResource().raw());
    for (const RMEntry &E : Present)
      if (atRowLabel(E))
        New.name(E.N.raw());
    New.number();
    New.layout(NumRows);
    for (const RMEntry &E : Present)
      if (atRowLabel(E))
        New.set(E.L, E.N.raw());
    unsigned OneIn = Seed % 2 ? 2 : 24;
    for (size_t L = 0; L < NumRows; ++L)
      for (size_t B = 0; B < New.Universe.size(); ++B)
        if (R.next() % OneIn == 0) {
          New.Bits.set(L, B);
          Ref.insert(Resource::fromRaw(New.Universe[B]),
                     static_cast<LabelId>(L), Access::R0);
        }
    Universe = New.Universe;
    Dense.insertR0Rows(std::move(New));
    expectSame("after the adoption");
    insertSome(60);
    expectSame("after inserts over the rows");
  }
}

//===----------------------------------------------------------------------===//
// BitSet closure vs sorted-vector closure
//===----------------------------------------------------------------------===//

void expectClosuresAgree(const Workload &W, IFAOptions Opts) {
  ElaboratedProgram P = elaborate(W.Source, W.IsDesign);
  ProgramCFG CFG = ProgramCFG::build(P);
  IFAOptions RefOpts = Opts;
  RefOpts.ReferenceClosure = true;
  IFAResult Dense = analyzeInformationFlow(P, CFG, Opts);
  IFAResult Ref = analyzeInformationFlow(P, CFG, RefOpts);
  EXPECT_TRUE(Dense.RMlo == Ref.RMlo) << W.Name << ": RMlo differs";
  EXPECT_TRUE(Dense.RMgl == Ref.RMgl) << W.Name << ": RMgl differs";
  EXPECT_TRUE(Dense.Graph.sameFlows(Ref.Graph)) << W.Name << ": graph";
}

TEST(ClosureDifferential, BitsetVsSortedVectorRows) {
  for (const Workload &W : corpus()) {
    expectClosuresAgree(W, {});
    IFAOptions Improved;
    Improved.Improved = true;
    expectClosuresAgree(W, Improved);
  }
}

TEST(ClosureDifferential, EndOutVariant) {
  IFAOptions EndOut;
  EndOut.ProgramEndOutgoing = true;
  expectClosuresAgree({"fig4(b)", "b := a; c := b;", false}, EndOut);
  expectClosuresAgree({"fig5", workloads::shiftRowsStatements(), false},
                      EndOut);
  expectClosuresAgree({"ladder", workloads::tempReuseLadder(4, 4), false},
                      EndOut);
}

/// The copy edges of [Present values] and [Synchronized values] as the
/// rules name them, one per premise instance, repeats and self edges
/// included.
std::vector<std::pair<LabelId, LabelId>> ruleCopyEdges(const IFAResult &R,
                                                       const ProgramCFG &CFG) {
  std::vector<std::pair<LabelId, LabelId>> Edges;
  for (LabelId L = 1; L <= CFG.numLabels(); ++L)
    for (const DefPair &P : R.RDDagger[L]) {
      if (P.L == InitialLabel)
        continue;
      Edges.emplace_back(P.L, L);
      if (!CFG.isWaitLabel(P.L))
        continue;
      for (LabelId LJ : CFG.allWaitLabels())
        if (CFG.cfCompatible(P.L, LJ))
          for (const DefPair &Phi : R.RDDaggerPhi[LJ])
            if (Phi.N == P.N)
              Edges.emplace_back(Phi.L, L);
    }
  return Edges;
}

TEST(ClosureDifferential, RepeatedAndSelfCopyEdges) {
  // Both rules name the same copy edge more than once: y reads s and t,
  // defined at the same wait ([Present values] twice), and s defined at
  // two waits whose RD†ϕ both hold s's one assignment ([Synchronized
  // values] twice). The loop body reads the x it defines (a self edge),
  // and q / the end of the statement program get outgoing pseudo-labels.
  std::vector<Workload> Cases = {
      {"statements",
       "x := a; while c loop x := x xor b; end loop; s <= x; t <= a; "
       "if c then wait on s; else wait on s, t; end if; y := s xor t; "
       "s <= y; wait on s; z := s xor y;",
       false},
      {"design",
       "entity e is port(clk : in std_logic; a : in std_logic; "
       "q : out std_logic); end e;\n"
       "architecture rtl of e is\n"
       "  signal s, t : std_logic;\n"
       "begin\n"
       "  p1 : process\n"
       "    variable x : std_logic;\n"
       "  begin\n"
       "    x := x xor a; s <= x; t <= a;\n"
       "    if clk = '1' then wait on clk; else wait on a; end if;\n"
       "  end process p1;\n"
       "  p2 : process\n"
       "    variable y : std_logic;\n"
       "  begin\n"
       "    y := s xor t; q <= y; wait on s, t;\n"
       "    y := s; q <= y; wait on clk;\n"
       "  end process p2;\n"
       "end rtl;",
       true}};
  for (const Workload &W : Cases) {
    ElaboratedProgram P = elaborate(W.Source, W.IsDesign);
    ProgramCFG CFG = ProgramCFG::build(P);
    for (int Mode = 0; Mode < 3; ++Mode) {
      IFAOptions Opts;
      Opts.Improved = Mode != 2;
      Opts.ProgramEndOutgoing = Mode != 1 && !W.IsDesign;
      std::string What = std::string(W.Name) + " mode " +
                         std::to_string(Mode);
      IFAOptions RefOpts = Opts;
      RefOpts.ReferenceClosure = true;
      IFAResult Dense = analyzeInformationFlow(P, CFG, Opts);
      IFAResult Ref = analyzeInformationFlow(P, CFG, RefOpts);

      // The shapes the case is for are really there.
      std::vector<std::pair<LabelId, LabelId>> Edges =
          ruleCopyEdges(Dense, CFG);
      EXPECT_TRUE(std::any_of(Edges.begin(), Edges.end(), [](const auto &E) {
        return E.first == E.second;
      })) << What << ": no self edge";
      std::sort(Edges.begin(), Edges.end());
      EXPECT_NE(std::adjacent_find(Edges.begin(), Edges.end()), Edges.end())
          << What << ": no repeated edge";
      // l_{q•} under --improved, l_{n•} per variable and signal at the
      // end of the statement program under --end-out.
      if (Opts.ProgramEndOutgoing || (Opts.Improved && W.IsDesign)) {
        EXPECT_FALSE(Dense.OutgoingLabels.empty()) << What;
      }

      EXPECT_TRUE(Dense.RMgl == Ref.RMgl) << What << ": RMgl differs";
      EXPECT_TRUE(Dense.Graph.sameFlows(Ref.Graph)) << What << ": graph";
      // The ALFP encoding derives RMgl from the rules themselves, with no
      // copy graph in between.
      AlfpClosureResult Alfp = closeWithAlfp(P, CFG, Dense, Opts);
      ASSERT_TRUE(Alfp.Solved) << Alfp.Error;
      EXPECT_TRUE(Alfp.RMgl == Dense.RMgl) << What << ": ALFP differs";
    }
  }
}

//===----------------------------------------------------------------------===//
// Warshall transitive closure vs DFS reachability
//===----------------------------------------------------------------------===//

/// The oracle: an edge a -> b for every path of length >= 1, computed by
/// one DFS per source over the successor lists.
Digraph naiveClosure(const Digraph &G) {
  Digraph C;
  for (std::string_view Name : G.nodes())
    C.addNode(Name);
  size_t N = G.numNodes();
  for (Digraph::NodeId S = 0; S < N; ++S) {
    std::vector<bool> Seen(N, false);
    std::vector<Digraph::NodeId> Stack = {S};
    while (!Stack.empty()) {
      Digraph::NodeId Cur = Stack.back();
      Stack.pop_back();
      for (Digraph::NodeId Succ : G.successors(Cur))
        if (!Seen[Succ]) {
          Seen[Succ] = true;
          C.addEdge(S, Succ);
          Stack.push_back(Succ);
        }
    }
  }
  return C;
}

TEST(TransitiveClosure, MatchesDfsOracleAcrossWordBoundaries) {
  // 0/63/64/65 probe the BitSet word boundaries; the rest are ordinary
  // sizes with varying densities.
  for (size_t N : {0u, 1u, 2u, 7u, 63u, 64u, 65u, 80u}) {
    for (uint64_t Seed : {1u, 2u, 3u}) {
      Rng R(Seed * 977 + N);
      Digraph G;
      for (size_t I = 0; I < N; ++I)
        G.addNode("n" + std::to_string(I));
      if (N > 0) {
        // ~2N random edges, self-loops allowed (the closure must keep
        // them and only them as length->= 1 self-paths on cycles).
        for (size_t E = 0; E < 2 * N; ++E)
          G.addEdge(static_cast<Digraph::NodeId>(R.next() % N),
                    static_cast<Digraph::NodeId>(R.next() % N));
      }
      Digraph Fast = G.transitiveClosure();
      Digraph Oracle = naiveClosure(G);
      EXPECT_TRUE(Fast.sameFlows(Oracle))
          << "N=" << N << " seed=" << Seed << ": " << Fast.numEdges()
          << " vs " << Oracle.numEdges() << " edges";
      EXPECT_TRUE(Fast.isTransitive()) << "N=" << N;
      // Idempotence: closing a closure changes nothing.
      EXPECT_TRUE(Fast.transitiveClosure().sameFlows(Fast)) << "N=" << N;
    }
  }
}

TEST(TransitiveClosure, KemmererChainStillQuadratic) {
  // The chain's closure is the full order relation — N(N+1)/2 edges with
  // the self-free path interpretation: x_i -> x_j for i < j.
  ElaboratedProgram P = elaborate(workloads::chainStatements(70), false);
  ProgramCFG CFG = ProgramCFG::build(P);
  KemmererResult R = analyzeKemmerer(P, CFG);
  EXPECT_EQ(R.Graph.numEdges(), 70u * 71u / 2u);
}

} // namespace
