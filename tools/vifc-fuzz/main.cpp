//===- tools/vifc-fuzz/main.cpp - Differential fuzzing driver -------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// vifc-fuzz: drive randomized designs (src/gen) through every retained
/// dense/reference oracle pair and through destructive source mutation.
///
///   vifc-fuzz [--mode oracle|query|mutate|incremental|blob|all]
///             [--start N] [--count N]
///             [--seed N] [--mutants N] [--minimize] [--dump DIR] [--quiet]
///
/// Oracle mode, per seed: generate a valid-by-construction design, then
/// assert (1) parse + elaborate succeed, (2) the rows the production Table
/// 4/5 driver keeps == ReferenceSolver's restricted alike, and its
/// full-row view == ReferenceSolver, label by label, (3) --jobs
/// invariance of the kept rows, (4) full
/// IFA through the dense solvers == through the reference solvers,
/// (5) BitSet closure == IFAOptions::ReferenceClosure, (6) sorted-run
/// ResourceMatrix == ReferenceResourceMatrix under shuffled replay,
/// (7) Digraph::transitiveClosure == DFS reachability on the flow graph,
/// (8) determinism: regeneration and reanalysis are byte/set identical,
/// (9) the factored Table 5 kill/gen == the cf-tuple enumeration oracle
/// (tests/oracle/Oracles.h), set for set per label, with and without
/// the RD∩ϕ kill (on designs whose cf-tuple product is at most
/// MaxEnumeratedTuples).
///
/// Query mode, per seed: build a FlowQueryEngine over the improved flow
/// graph and check it against first-principles graph walks — reaches()
/// against DFS for a deterministic sample of ordered node pairs, every
/// positive witness validated edge by edge and against the exact BFS
/// distance, reachableFrom/whatReaches against per-node DFS sets.
///
/// Mutate mode, per seed: corrupt the generated source (truncation, token
/// splicing, byte flips — src/gen/Mutator.h) and require the frontend to
/// diagnose cleanly or succeed; crashes, hangs and sanitizer reports are
/// the failures this mode exists to surface. A mutant that elaborates
/// must elaborate the same from a copy of its tree (the const overload,
/// whose source tree is gone before the copy is read) as from the tree
/// itself.
///
/// Incremental mode, per seed: route the Table 4/5 solvers through a
/// ProcessArtifactTable (rd/Incremental.h) — once against a cold table and
/// once against the warmed table, which must reuse every artifact — and
/// require the kept rows to match the reference solvers' rows restricted
/// alike, set for set, label by label, and the composed IFA to match a
/// cold run.
/// The table persists across seeds, so cross-design artifact sharing is
/// fuzzed too.
///
/// Blob mode, per seed: encode the design blob ("dsgn", driver/
/// ArtifactStore.h) of the plain and the improved analysis, require it to
/// decode to the same matrices and graph and re-encode byte for byte,
/// then apply seeded bit flips, truncations and insertions to its
/// sections (re-framed, so the section decoders see them) and to the
/// whole payload. Every mutant must either fail to decode or re-encode to
/// exactly its own bytes: the decoder accepts only canonical payloads.
///
/// Any failing seed prints a one-line reproducer (`vifc-fuzz --seed N`)
/// and, with --minimize, a greedily reduced source. Exit code: 0 clean,
/// 1 failures found, 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "driver/ArtifactStore.h"
#include "gen/Generator.h"
#include "gen/Minimizer.h"
#include "gen/Mutator.h"
#include "ifa/InformationFlow.h"
#include "oracle/Oracles.h"
#include "parse/Parser.h"
#include "query/FlowQueryEngine.h"
#include "rd/Incremental.h"
#include "support/BinaryIO.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace vif;

namespace {

struct Options {
  enum class Mode { Oracle, Query, Mutate, Incremental, Blob, All };
  Mode M = Mode::All;
  uint64_t Start = 1;
  uint64_t Count = 50;
  bool SingleSeed = false;
  unsigned Mutants = 2;
  bool Minimize = false;
  bool Quiet = false;
  std::string DumpDir;
};

int usage() {
  std::cerr
      << "usage: vifc-fuzz [options]\n"
         "  --mode oracle|query|mutate|incremental|blob|all\n"
         "                            which battery to run (default all)\n"
         "  --start N                 first seed (default 1)\n"
         "  --count N                 number of seeds (default 50)\n"
         "  --seed N                  run exactly seed N (reproducer)\n"
         "  --mutants N               mutated variants per seed (default 2)\n"
         "  --minimize                reduce any failing source greedily\n"
         "  --dump DIR                write generated designs to "
         "DIR/gen_<seed>.vhd\n"
         "  --quiet                   only report failures and the summary\n";
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (!End || *End)
    return false;
  Out = V;
  return true;
}

/// Parse + elaborate \p Source as a design file. On failure returns
/// nullopt with the diagnostics in \p Err.
std::optional<ElaboratedProgram> frontend(const std::string &Source,
                                          std::string &Err) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(Source, Diags);
  std::optional<ElaboratedProgram> P;
  if (!Diags.hasErrors())
    P = elaborateDesign(F, Diags);
  if (!P)
    Err = Diags.str();
  return P;
}

/// DFS reachability oracle for Digraph::transitiveClosure.
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

std::vector<RMEntry> entriesOf(const ResourceMatrix &RM) {
  return std::vector<RMEntry>(RM.begin(), RM.end());
}

/// Oracle (9) runs only below this cf-tuple product: the enumeration walks
/// every tuple at every wait label.
constexpr size_t MaxEnumeratedTuples = 4096;

/// Oracle (9): the factored kill/gen sets against explicit cf-tuple
/// enumeration, the independent definition of the wait quantifications.
std::string killGenFailure(const ProgramCFG &CFG,
                           const ActiveSignalsResult &Active) {
  for (bool MustKill : {true, false}) {
    ReachingDefsOptions Opts;
    Opts.UseMustActiveKill = MustKill;
    std::optional<ReachingDefsKillGen> KE =
        computeReachingDefsKillGenEnumerated(CFG, Active, Opts,
                                             MaxEnumeratedTuples);
    if (!KE)
      return ""; // cf too large to enumerate
    ReachingDefsKillGen KF = computeReachingDefsKillGen(CFG, Active, Opts);
    for (LabelId L = 1; L <= CFG.numLabels(); ++L)
      if (!(KF.Kill[L] == KE->Kill[L]) || !(KF.Gen[L] == KE->Gen[L]))
        return std::string("factored kill/gen differs from cf enumeration "
                           "(must-kill=") +
               (MustKill ? "1" : "0") + ") at label " + std::to_string(L);
  }
  return "";
}

/// Runs the whole oracle battery on \p Source. Returns an empty string on
/// agreement, a description of the first disagreement otherwise. This is
/// also the minimizer predicate for oracle failures, so it must depend on
/// nothing but the source text.
std::string oracleFailure(const std::string &Source) {
  std::string Err;
  std::optional<ElaboratedProgram> P = frontend(Source, Err);
  if (!P)
    return "generator emitted an invalid design:\n" + Err;
  ProgramCFG CFG = ProgramCFG::build(*P);

  // (2) the rows the production driver keeps (cold, over a fresh table)
  // vs the reference solvers' rows restricted alike, label by label, and
  // its full-row view vs the reference rows everywhere; (3) the kept rows
  // again on 4 threads.
  ActiveSignalsResult Ref = analyzeActiveSignalsReference(*P, CFG);
  ReachingDefsResult RDRef = analyzeReachingDefsReference(*P, CFG, Ref);
  IFAOptions Jobs4;
  Jobs4.RD.Jobs = 4;
  for (const IFAOptions &O : {IFAOptions(), Jobs4})
    if (std::string Why = keptRowsFailure(
            *P, CFG, analyzeInformationFlow(*P, CFG, O), Ref, RDRef);
        !Why.empty())
      return "kept rows (jobs=" + std::to_string(O.RD.Jobs) + "): " + Why;
  ActiveSignalsResult Dense;
  ReachingDefsResult RDDense;
  {
    ProcessArtifactTable Fresh;
    analyzeIncremental(*P, CFG, {}, Fresh, Dense, RDDense);
  }
  if (std::string Why = fullRowsFailure(CFG, Dense, RDDense, Ref, RDRef);
      !Why.empty())
    return "full rows: " + Why;

  // (4) full IFA dense vs routed through the reference solvers.
  IFAOptions Plain;
  IFAOptions RefRD;
  RefRD.RD.ReferenceSolver = true;
  IFAResult IfaDense = analyzeInformationFlow(*P, CFG, Plain);
  IFAResult IfaRef = analyzeInformationFlow(*P, CFG, RefRD);
  if (!(IfaDense.RMgl == IfaRef.RMgl))
    return "IFA RMgl differs between dense and reference RD";
  if (!IfaDense.Graph.sameFlows(IfaRef.Graph))
    return "IFA flow graph differs between dense and reference RD";

  // (5) BitSet closure vs ReferenceClosure, plain and improved. The
  // improved result (richer matrix: interface nodes) feeds (6)-(8).
  IFAResult IfaImproved;
  for (bool Improved : {false, true}) {
    IFAOptions ClosOpts;
    ClosOpts.Improved = Improved;
    IFAOptions RefC = ClosOpts;
    RefC.ReferenceClosure = true;
    IFAResult A = analyzeInformationFlow(*P, CFG, ClosOpts);
    IFAResult B = analyzeInformationFlow(*P, CFG, RefC);
    if (!(A.RMlo == B.RMlo) || !(A.RMgl == B.RMgl))
      return std::string("closure matrices disagree (improved=") +
             (Improved ? "1)" : "0)");
    if (!A.Graph.sameFlows(B.Graph))
      return std::string("closure graphs disagree (improved=") +
             (Improved ? "1)" : "0)");
    if (Improved)
      IfaImproved = std::move(A);
  }

  // (6) matrix backends under shuffled replay of the global matrix.
  {
    std::vector<RMEntry> Entries = entriesOf(IfaImproved.RMgl);
    uint64_t S = 0x243f6a8885a308d3ull;
    for (size_t I = Entries.size(); I > 1; --I) {
      S ^= S << 13;
      S ^= S >> 7;
      S ^= S << 17;
      std::swap(Entries[I - 1], Entries[S % I]);
    }
    ResourceMatrix DenseRM;
    ReferenceResourceMatrix RefRM;
    size_t Op = 0;
    for (const RMEntry &E : Entries) {
      if (DenseRM.insert(E.N, E.L, E.A) != RefRM.insert(E.N, E.L, E.A))
        return "matrix backends disagree on insert";
      if (++Op % 5 == 0 && DenseRM.size() != RefRM.size())
        return "matrix backends disagree on size";
    }
    std::vector<RMEntry> FromDense = entriesOf(DenseRM);
    std::vector<RMEntry> FromRef(RefRM.begin(), RefRM.end());
    if (FromDense.size() != FromRef.size())
      return "matrix backends disagree on entry count";
    for (size_t I = 0; I < FromDense.size(); ++I)
      if (!(FromDense[I] == FromRef[I]))
        return "matrix entry streams diverge at " + std::to_string(I);
  }

  // (7) Warshall closure vs DFS oracle on this design's flow graph.
  {
    Digraph Fast = IfaImproved.Graph.transitiveClosure();
    Digraph Oracle = naiveClosure(IfaImproved.Graph);
    if (!Fast.sameFlows(Oracle))
      return "transitive closure disagrees with DFS reachability";
    if (!Fast.isTransitive())
      return "transitive closure is not transitive";
  }

  // (8) determinism: a second analysis run over a fresh elaboration must
  // reproduce the matrices and graph exactly.
  {
    std::string Err2;
    std::optional<ElaboratedProgram> P2 = frontend(Source, Err2);
    if (!P2)
      return "re-elaboration failed:\n" + Err2;
    ProgramCFG CFG2 = ProgramCFG::build(*P2);
    IFAOptions Improved;
    Improved.Improved = true;
    IFAResult Again = analyzeInformationFlow(*P2, CFG2, Improved);
    if (!(Again.RMgl == IfaImproved.RMgl) ||
        !Again.Graph.sameFlows(IfaImproved.Graph))
      return "re-analysis is not deterministic";
  }

  // (9) factored vs enumerated kill/gen, on the dense Table 4 results.
  return killGenFailure(CFG, Dense);
}

/// A splitmix64 stream seeded by an FNV-1a hash of a source text, so the
/// batteries that sample (query pairs, blob mutants) stay pure functions
/// of the source.
class SourceStream {
public:
  explicit SourceStream(std::string_view Source) {
    for (char C : Source) {
      H ^= static_cast<unsigned char>(C);
      H *= 0x100000001b3ull;
    }
  }
  uint64_t operator()() {
    H += 0x9e3779b97f4a7c15ull;
    uint64_t Z = H;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }

private:
  uint64_t H = 0xcbf29ce484222325ull;
};

/// Exact BFS distance (in edges, length >= 1) from \p Src to \p Sink, or
/// SIZE_MAX when unreachable. Matches FlowQueryEngine's witness semantics:
/// Src == Sink asks for the shortest cycle through the node.
size_t bfsDistance(const Digraph &G, Digraph::NodeId Src,
                   Digraph::NodeId Sink) {
  std::vector<size_t> Dist(G.numNodes(), SIZE_MAX);
  std::vector<Digraph::NodeId> Queue;
  for (Digraph::NodeId S : G.successors(Src)) {
    if (S == Sink)
      return 1;
    if (Dist[S] == SIZE_MAX) {
      Dist[S] = 1;
      Queue.push_back(S);
    }
  }
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    Digraph::NodeId Cur = Queue[Head];
    for (Digraph::NodeId S : G.successors(Cur)) {
      if (S == Sink)
        return Dist[Cur] + 1;
      if (Dist[S] == SIZE_MAX) {
        Dist[S] = Dist[Cur] + 1;
        Queue.push_back(S);
      }
    }
  }
  return SIZE_MAX;
}

/// Query battery: a FlowQueryEngine over the improved flow graph must agree
/// with first-principles DFS/BFS walks of the same graph. Like
/// oracleFailure this doubles as the minimizer predicate, so the pair
/// sample is a pure function of the source text.
std::string queryFailure(const std::string &Source) {
  std::string Err;
  std::optional<ElaboratedProgram> P = frontend(Source, Err);
  if (!P)
    return "generator emitted an invalid design:\n" + Err;
  ProgramCFG CFG = ProgramCFG::build(*P);
  IFAOptions Improved;
  Improved.Improved = true;
  IFAResult R = analyzeInformationFlow(*P, CFG, Improved);
  const Digraph &G = R.Graph;
  query::FlowQueryEngine Q(G);

  size_t N = G.numNodes();
  const std::vector<std::string_view> &Names = G.nodes();
  auto pairName = [&](Digraph::NodeId A, Digraph::NodeId B) {
    return "(" + std::string(Names[A]) + ", " + std::string(Names[B]) + ")";
  };

  // Ordered pair sample: exhaustive on small graphs, otherwise 256 pairs
  // drawn from the source's SourceStream.
  std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>> Pairs;
  if (N == 0)
    return Q.reaches("a", "a") ? "empty graph answers reaches" : "";
  if (N <= 24) {
    for (Digraph::NodeId A = 0; A < N; ++A)
      for (Digraph::NodeId B = 0; B < N; ++B)
        Pairs.emplace_back(A, B);
  } else {
    SourceStream Next(Source);
    for (size_t I = 0; I < 256; ++I)
      Pairs.emplace_back(Next() % N, Next() % N);
  }

  for (auto [A, B] : Pairs) {
    std::string_view NA = Names[A], NB = Names[B];
    bool Fast = Q.reaches(NA, NB);
    if (Fast != G.reachable(NA, NB))
      return "reaches" + pairName(A, B) + " disagrees with DFS";
    std::optional<std::vector<query::WitnessStep>> W = Q.witnessPath(NA, NB);
    if (W.has_value() != Fast)
      return "witness presence disagrees with reaches" + pairName(A, B);
    if (!W)
      continue;
    if (W->size() < 2 || W->front().Node != NA || W->back().Node != NB)
      return "witness endpoints wrong for " + pairName(A, B);
    for (size_t I = 0; I + 1 < W->size(); ++I)
      if (!G.hasEdge((*W)[I].Node, (*W)[I + 1].Node))
        return "witness uses a non-edge for " + pairName(A, B);
    if (W->size() != bfsDistance(G, A, B) + 1)
      return "witness is not a shortest path for " + pairName(A, B);
    for (const query::WitnessStep &Step : *W)
      if (!(query::makeWitnessStep(Step.Node) == Step))
        return "witness step mark not canonical for " + pairName(A, B);
  }

  // Forward/backward sets against per-node DFS, for a prefix of node ids.
  for (Digraph::NodeId S = 0; S < N && S < 8; ++S) {
    std::vector<std::string> Fwd, Bwd;
    for (Digraph::NodeId T = 0; T < N; ++T) {
      if (G.reachable(Names[S], Names[T]))
        Fwd.push_back(std::string(Names[T]));
      if (G.reachable(Names[T], Names[S]))
        Bwd.push_back(std::string(Names[T]));
    }
    std::sort(Fwd.begin(), Fwd.end());
    std::sort(Bwd.begin(), Bwd.end());
    if (Q.reachableFrom(Names[S]) != Fwd)
      return "reachableFrom(" + std::string(Names[S]) +
             ") disagrees with DFS";
    if (Q.whatReaches(Names[S]) != Bwd)
      return "whatReaches(" + std::string(Names[S]) + ") disagrees with DFS";
  }

  // Unknown names answer negatively everywhere.
  if (Q.reaches("<no-such-node>", Names[0]) ||
      Q.witnessPath(Names[0], "<no-such-node>") ||
      !Q.reachableFrom("<no-such-node>").empty() ||
      !Q.whatReaches("<no-such-node>").empty())
    return "unknown node name did not answer negatively";
  return "";
}

/// Mutation battery: the frontend must terminate with either success or
/// diagnostics on arbitrary corruptions. Returns a failure description or
/// empty. Crashes/hangs are caught by the harness (sanitizers + ctest
/// timeout), not here.
std::string mutationFailure(const std::string &Mutant) {
  DiagnosticEngine Diags;
  std::optional<ElaboratedProgram> P;
  {
    DesignFile F = parseDesign(Mutant, Diags);
    if (Diags.hasErrors())
      return ""; // cleanly diagnosed
    P = elaborateDesign(F, Diags);
  }
  if (!P) {
    if (!Diags.hasErrors())
      return "elaboration failed without diagnostics";
    return "";
  }
  DiagnosticEngine Again;
  std::optional<ElaboratedProgram> Adopted =
      elaborateDesign(parseDesign(Mutant, Again), Again);
  if (!Adopted || dumpProgram(*Adopted) != dumpProgram(*P))
    return "elaborating a copy of the tree differs from adopting it";
  // Valid by accident: the analyses must cope too (bounded — mutants are
  // capped at 64KB by the mutator).
  ProgramCFG CFG = ProgramCFG::build(*P);
  analyzeInformationFlow(*P, CFG);
  return "";
}

/// Incremental battery: the production pipeline with Tables 4/5 through
/// \p Table — its kept rows vs the reference solvers' rows restricted
/// alike, label by label, then the composed IFA vs a cold run. When
/// \p ExpectFullReuse (the table was warmed by a previous run of the same
/// source) additionally require that no fixpoint ran. Returns a failure
/// description or empty.
std::string incrementalFailure(const std::string &Source,
                               ProcessArtifactTable &Table,
                               bool ExpectFullReuse) {
  std::string Err;
  std::optional<ElaboratedProgram> P = frontend(Source, Err);
  if (!P)
    return "generator emitted an invalid design:\n" + Err;
  ProgramCFG CFG = ProgramCFG::build(*P);

  IFAOptions IfaOpts;
  IncrementalStats Stats;
  IFAResult Inc = analyzeInformationFlow(*P, CFG, IfaOpts, &Table, &Stats);
  size_t NumProcs = CFG.processes().size();
  if (Stats.ActiveSolved + Stats.ActiveReused != NumProcs ||
      Stats.RdSolved + Stats.RdReused != NumProcs)
    return "incremental stats do not sum to the process count";
  if (ExpectFullReuse && (Stats.ActiveSolved || Stats.RdSolved))
    return "warm table re-solved " + std::to_string(Stats.ActiveSolved) +
           "/" + std::to_string(Stats.RdSolved) +
           " processes on an unchanged design";

  // The kept rows vs the reference solvers' rows restricted alike.
  ActiveSignalsResult Ref = analyzeActiveSignalsReference(*P, CFG);
  if (std::string Why = keptRowsFailure(
          *P, CFG, Inc, Ref,
          analyzeReachingDefsReference(*P, CFG, Ref, IfaOpts.RD));
      !Why.empty())
    return "incremental " + Why;

  IFAResult Cold = analyzeInformationFlow(*P, CFG, IfaOpts);
  if (Inc.Active.Iterations != Cold.Active.Iterations ||
      Inc.RD.Iterations != Cold.RD.Iterations)
    return "incremental iteration totals differ from the cold run";
  if (!(Inc.RMlo == Cold.RMlo) || !(Inc.RMgl == Cold.RMgl))
    return "composed IFA matrices differ from the cold pipeline";
  if (!Inc.Graph.sameFlows(Cold.Graph))
    return "composed IFA flow graph differs from the cold pipeline";
  return "";
}

/// True if \p M iterates strictly ascending, size() entries in all.
bool strictlyAscending(const ResourceMatrix &M) {
  size_t N = 0;
  RMEntry Prev;
  for (const RMEntry &E : M) {
    if (N++ && !(Prev < E))
      return false;
    Prev = E;
  }
  return N == M.size();
}

/// Blob mutants per design blob.
constexpr unsigned BlobMutants = 48;

/// Blob battery: the design blob of \p Source round-trips, and each
/// seeded mutant of it fails to decode or re-encodes to its own bytes
/// (and decodes to matrices that are sets). A pure function of the
/// source, so it doubles as the minimizer predicate.
std::string blobFailure(const std::string &Source) {
  std::string Err;
  std::optional<ElaboratedProgram> P = frontend(Source, Err);
  if (!P)
    return "generator emitted an invalid design:\n" + Err;
  ProgramCFG CFG = ProgramCFG::build(*P);
  SourceStream Next(Source);
  auto decode = [](std::string_view Payload, IFAResult &R) {
    return driver::decodeDesignArtifact(Payload, R.RMlo, R.RMgl, R.Graph);
  };

  for (bool Improved : {false, true}) {
    IFAOptions Opts;
    Opts.Improved = Improved;
    IFAResult IR = analyzeInformationFlow(*P, CFG, Opts);
    std::string Payload = driver::encodeDesignArtifact(IR);
    std::string Mode = Improved ? " (improved)" : " (plain)";
    IFAResult Back;
    if (!decode(Payload, Back))
      return "design blob does not decode" + Mode;
    if (!(Back.RMlo == IR.RMlo) || !(Back.RMgl == IR.RMgl) ||
        !Back.Graph.sameFlows(IR.Graph))
      return "design blob decodes to a different result" + Mode;
    if (driver::encodeDesignArtifact(Back) != Payload)
      return "design blob does not re-encode byte for byte" + Mode;

    // The sections, so a mutated body can be re-framed and reach the
    // section decoders.
    std::vector<std::pair<std::string, std::string>> Sections;
    ByteReader Frame(Payload);
    while (Frame.ok() && !Frame.atEnd()) {
      char Tag[4];
      Frame.bytes(Tag, 4);
      Sections.emplace_back(std::string(Tag, 4), std::string(Frame.str()));
    }
    for (unsigned K = 0; K < BlobMutants; ++K) {
      size_t Target = Next() % (Sections.size() + 1); // the last: all
      std::string Bytes =
          Target < Sections.size() ? Sections[Target].second : Payload;
      switch (Next() % 3) {
      case 0: // flip 1-3 bits
        for (uint64_t F = 0, NF = 1 + Next() % 3; F < NF && !Bytes.empty();
             ++F)
          Bytes[Next() % Bytes.size()] ^= static_cast<char>(1 << (Next() % 8));
        break;
      case 1: // truncate
        Bytes.resize(Bytes.empty() ? 0 : Next() % Bytes.size());
        break;
      default: // insert 1-4 copies of a random byte
        Bytes.insert(Bytes.empty() ? 0 : Next() % (Bytes.size() + 1),
                     std::string(1 + Next() % 4, static_cast<char>(Next())));
        break;
      }
      std::string Mutant = Bytes;
      if (Target < Sections.size()) {
        ByteWriter W;
        for (size_t I = 0; I < Sections.size(); ++I) {
          W.bytes(Sections[I].first.data(), 4);
          W.str(I == Target ? Bytes : Sections[I].second);
        }
        Mutant = W.take();
      }
      IFAResult M;
      if (!decode(Mutant, M))
        continue;
      std::string What = "blob mutant " + std::to_string(K);
      if (driver::encodeDesignArtifact(M) != Mutant)
        return What + " decodes but does not re-encode to its bytes" + Mode;
      if (!strictlyAscending(M.RMlo) || !strictlyAscending(M.RMgl))
        return What + " decodes to a matrix that is not a set" + Mode;
    }
  }
  return "";
}

void reportFailure(uint64_t Seed, const std::string &What,
                   const std::string &Source, const Options &Opts,
                   const std::function<bool(const std::string &)> &Pred) {
  std::cerr << "FAIL seed " << Seed << ": " << What << "\n"
            << "  reproduce: vifc-fuzz --seed " << Seed << "\n";
  if (Opts.Minimize) {
    std::string Min = gen::minimizeSource(Source, Pred);
    std::cerr << "  minimized to " << Min.size() << " bytes:\n"
              << "----------------------------------------\n"
              << Min
              << (Min.empty() || Min.back() == '\n' ? "" : "\n")
              << "----------------------------------------\n";
  }
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else if (A == "--mode") {
      const char *V = value();
      if (!V)
        return usage();
      std::string M = V;
      if (M == "oracle")
        Opts.M = Options::Mode::Oracle;
      else if (M == "query")
        Opts.M = Options::Mode::Query;
      else if (M == "mutate")
        Opts.M = Options::Mode::Mutate;
      else if (M == "incremental")
        Opts.M = Options::Mode::Incremental;
      else if (M == "blob")
        Opts.M = Options::Mode::Blob;
      else if (M == "all")
        Opts.M = Options::Mode::All;
      else
        return usage();
    } else if (A == "--start") {
      const char *V = value();
      if (!V || !parseU64(V, Opts.Start))
        return usage();
    } else if (A == "--count") {
      const char *V = value();
      if (!V || !parseU64(V, Opts.Count))
        return usage();
    } else if (A == "--seed") {
      const char *V = value();
      if (!V || !parseU64(V, Opts.Start))
        return usage();
      Opts.Count = 1;
      Opts.SingleSeed = true;
    } else if (A == "--mutants") {
      uint64_t N;
      const char *V = value();
      if (!V || !parseU64(V, N))
        return usage();
      Opts.Mutants = static_cast<unsigned>(N);
    } else if (A == "--minimize") {
      Opts.Minimize = true;
    } else if (A == "--quiet") {
      Opts.Quiet = true;
    } else if (A == "--dump") {
      const char *V = value();
      if (!V)
        return usage();
      Opts.DumpDir = V;
    } else {
      std::cerr << "vifc-fuzz: unknown argument '" << A << "'\n";
      return usage();
    }
  }

  bool RunOracle =
      Opts.M == Options::Mode::Oracle || Opts.M == Options::Mode::All;
  bool RunQuery =
      Opts.M == Options::Mode::Query || Opts.M == Options::Mode::All;
  bool RunMutate =
      Opts.M == Options::Mode::Mutate || Opts.M == Options::Mode::All;
  bool RunIncremental = Opts.M == Options::Mode::Incremental ||
                        Opts.M == Options::Mode::All;
  bool RunBlob =
      Opts.M == Options::Mode::Blob || Opts.M == Options::Mode::All;
  unsigned Failures = 0;
  uint64_t OracleRuns = 0, QueryRuns = 0, MutantRuns = 0,
           IncrementalRuns = 0, BlobRuns = 0;
  // Shared across seeds so cross-design artifact reuse is fuzzed too;
  // content-hashed keys make false sharing a reportable failure.
  ProcessArtifactTable SharedTable;

  for (uint64_t Seed = Opts.Start; Seed < Opts.Start + Opts.Count; ++Seed) {
    std::string Source = gen::generateDesign(Seed);
    if (Source != gen::generateDesign(Seed)) {
      std::cerr << "FAIL seed " << Seed << ": generator not deterministic\n";
      ++Failures;
      continue;
    }
    if (!Opts.DumpDir.empty()) {
      std::string Path =
          Opts.DumpDir + "/gen_" + std::to_string(Seed) + ".vhd";
      std::ofstream Out(Path, std::ios::binary);
      Out << Source;
      if (!Out) {
        std::cerr << "vifc-fuzz: cannot write " << Path << "\n";
        return 2;
      }
    }
    if (RunOracle) {
      ++OracleRuns;
      std::string What = oracleFailure(Source);
      if (!What.empty()) {
        ++Failures;
        reportFailure(Seed, What, Source, Opts, [](const std::string &S) {
          return !oracleFailure(S).empty();
        });
      } else if (!Opts.Quiet) {
        std::cout << "seed " << Seed << ": " << Source.size()
                  << " bytes, oracle battery ok\n";
      }
    }
    if (RunQuery) {
      ++QueryRuns;
      std::string What = queryFailure(Source);
      if (!What.empty()) {
        ++Failures;
        reportFailure(Seed, What, Source, Opts, [](const std::string &S) {
          return !queryFailure(S).empty();
        });
      } else if (!Opts.Quiet) {
        std::cout << "seed " << Seed << ": query battery ok\n";
      }
    }
    if (RunIncremental) {
      ++IncrementalRuns;
      // First pass may reuse cross-seed artifacts; the second, over the
      // table the first just warmed, must reuse everything.
      std::string What = incrementalFailure(Source, SharedTable, false);
      if (What.empty())
        What = incrementalFailure(Source, SharedTable, true);
      if (!What.empty()) {
        ++Failures;
        reportFailure(Seed, What, Source, Opts, [](const std::string &S) {
          ProcessArtifactTable Fresh;
          return !incrementalFailure(S, Fresh, false).empty();
        });
      } else if (!Opts.Quiet) {
        std::cout << "seed " << Seed << ": incremental battery ok\n";
      }
    }
    if (RunBlob) {
      ++BlobRuns;
      std::string What = blobFailure(Source);
      if (!What.empty()) {
        ++Failures;
        reportFailure(Seed, What, Source, Opts, [](const std::string &S) {
          return !blobFailure(S).empty();
        });
      } else if (!Opts.Quiet) {
        std::cout << "seed " << Seed << ": blob battery ok\n";
      }
    }
    if (RunMutate) {
      for (unsigned K = 0; K < Opts.Mutants; ++K) {
        gen::MutateOptions MOpts;
        MOpts.Seed = Seed * 0x10001 + K;
        std::string Mutant = gen::mutateSource(Source, MOpts);
        ++MutantRuns;
        std::string What = mutationFailure(Mutant);
        if (!What.empty()) {
          ++Failures;
          reportFailure(Seed, What + " (mutant " + std::to_string(K) + ")",
                        Mutant, Opts, [](const std::string &S) {
                          return !mutationFailure(S).empty();
                        });
        }
      }
      if (!Opts.Quiet)
        std::cout << "seed " << Seed << ": " << Opts.Mutants
                  << " mutants diagnosed cleanly\n";
    }
  }

  std::cout << "vifc-fuzz: " << OracleRuns << " oracle seeds, " << QueryRuns
            << " query seeds, " << IncrementalRuns << " incremental seeds, "
            << BlobRuns << " blob seeds, " << MutantRuns << " mutants, "
            << Failures << " failure(s)\n";
  return Failures ? 1 : 0;
}
