//===- tests/artifact_store_test.cpp - On-disk artifact persistence -------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `--store` persistence layer end-to-end: VIFS blob round-trips and
/// the corruption battery (truncated, bit-flipped, version-bumped files
/// must all read as misses, never as wrong data), the design/query-index
/// codecs, restart survival (a fresh session over a warm store produces
/// byte-identical results without invoking any solver), and the
/// incremental path (editing one process of an N-process design re-solves
/// exactly one process, with results equal to a cold run), and a store
/// written by an earlier build (tests/inputs/store) that must keep serving
/// byte for byte.
///
//===----------------------------------------------------------------------===//

#include "driver/AnalysisSession.h"
#include "driver/ArtifactStore.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

using namespace vif;
using namespace vif::driver;

namespace {

/// A unique store directory per test, removed on scope exit.
struct TempStoreDir {
  std::string Path;
  TempStoreDir() {
    std::string Templ = ::testing::TempDir() + "vif-store-XXXXXX";
    std::vector<char> Buf(Templ.begin(), Templ.end());
    Buf.push_back('\0');
    const char *P = ::mkdtemp(Buf.data());
    EXPECT_NE(P, nullptr);
    Path = P ? P : "";
  }
  ~TempStoreDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

const char MuxSource[] =
    "entity mux is port(d0 : in std_logic; d1 : in std_logic;"
    " sel : in std_logic; q : out std_logic); end mux;"
    " architecture rtl of mux is begin p : process begin"
    " if sel = '1' then q <= d1; else q <= d0; end if;"
    " wait on d0, d1, sel; end process p; end rtl;";

/// Renders everything the dsgn blob covers — both matrices and the sorted
/// flow-graph edge list — so runs can be compared byte for byte.
std::string renderIfa(AnalysisSession &S) {
  const IFAResult *R = S.ifa();
  const ElaboratedProgram *P = S.program();
  EXPECT_NE(R, nullptr);
  EXPECT_NE(P, nullptr);
  if (!R || !P)
    return "";
  std::ostringstream OS;
  R->RMlo.print(OS, *P);
  R->RMgl.print(OS, *P);
  R->Graph.forEachSortedEdge(
      [&OS](std::string_view From, std::string_view To) {
        OS << From << " -> " << To << '\n';
      });
  return OS.str();
}

TEST(ArtifactStore, RawBlobRoundTrip) {
  TempStoreDir Dir;
  ArtifactStore Store(Dir.Path);
  ASSERT_TRUE(Store.usable());

  std::string Payload = "per-process artifact bytes \x01\x02\x00 etc";
  Payload.push_back('\0'); // embedded NULs must survive
  Store.store("actv", 0xdeadbeef12345678ull, Payload);

  std::string Back;
  EXPECT_TRUE(Store.load("actv", 0xdeadbeef12345678ull, Back));
  EXPECT_EQ(Back, Payload);

  // Same key under another kind is a distinct blob.
  EXPECT_FALSE(Store.load("rdpr", 0xdeadbeef12345678ull, Back));
  // Absent key: miss.
  EXPECT_FALSE(Store.load("actv", 1, Back));

  ArtifactStore::Counters C = Store.counters();
  EXPECT_EQ(C.Hits, 1u);
  EXPECT_EQ(C.Misses, 2u);
  EXPECT_EQ(C.Writes, 1u);
  EXPECT_GT(C.BytesRead, Payload.size());
  EXPECT_GT(C.BytesWritten, Payload.size());
}

TEST(ArtifactStore, SurvivesReopenAndOverwrites) {
  TempStoreDir Dir;
  {
    ArtifactStore S1(Dir.Path);
    S1.store("dsgn", 7, "first");
    S1.store("dsgn", 7, "second"); // overwrite is the fresher value
  }
  ArtifactStore S2(Dir.Path);
  std::string Back;
  EXPECT_TRUE(S2.load("dsgn", 7, Back));
  EXPECT_EQ(Back, "second");
}

TEST(ArtifactStore, UnusableDirectoryIsInert) {
  TempStoreDir Dir;
  std::string FilePath = Dir.Path + "/not-a-directory";
  writeFile(FilePath, "plain file");
  ArtifactStore Store(FilePath);
  EXPECT_FALSE(Store.usable());
  Store.store("dsgn", 1, "payload"); // must not throw or create anything
  std::string Back;
  EXPECT_FALSE(Store.load("dsgn", 1, Back));
}

TEST(ArtifactStore, CorruptTruncatedAndVersionBumpedFilesAreMisses) {
  TempStoreDir Dir;
  ArtifactStore Store(Dir.Path);
  ASSERT_TRUE(Store.usable());
  std::string Payload(64, 'x');
  Store.store("dsgn", 42, Payload);
  std::string File =
      Dir.Path + "/" + ArtifactStore::fileName("dsgn", 42);
  std::string Good = readFile(File);
  ASSERT_GT(Good.size(), 28u); // magic+version+kind+key+len

  std::string Back;
  ASSERT_TRUE(Store.load("dsgn", 42, Back));

  // Truncation anywhere — inside the header, the payload, the checksum.
  for (size_t Len : {0ul, 3ul, 16ul, Good.size() / 2, Good.size() - 1}) {
    writeFile(File, Good.substr(0, Len));
    EXPECT_FALSE(Store.load("dsgn", 42, Back)) << "truncated to " << Len;
  }

  // A flipped payload byte fails the checksum.
  std::string Flipped = Good;
  Flipped[30] ^= 0x40;
  writeFile(File, Flipped);
  EXPECT_FALSE(Store.load("dsgn", 42, Back));

  // A future format version is a miss, not an error.
  std::string Bumped = Good;
  Bumped[4] = char(ArtifactStoreVersion + 1);
  writeFile(File, Bumped);
  EXPECT_FALSE(Store.load("dsgn", 42, Back));

  // Bad magic.
  std::string BadMagic = Good;
  BadMagic[0] = 'X';
  writeFile(File, BadMagic);
  EXPECT_FALSE(Store.load("dsgn", 42, Back));

  // A key mismatch (file renamed / hash collision) is caught by the
  // envelope, which records the key it was written under.
  std::string Moved = Dir.Path + "/" + ArtifactStore::fileName("dsgn", 43);
  writeFile(Moved, Good);
  EXPECT_FALSE(Store.load("dsgn", 43, Back));

  // Restoring the original bytes restores the hit.
  writeFile(File, Good);
  EXPECT_TRUE(Store.load("dsgn", 42, Back));
  EXPECT_EQ(Back, Payload);
}

TEST(ArtifactCodec, DesignBlobRoundTrips) {
  AnalysisSession S =
      AnalysisSession::fromSource("mux.vhd", MuxSource, SessionOptions());
  const IFAResult *R = S.ifa();
  ASSERT_NE(R, nullptr);

  std::string Blob = encodeDesignArtifact(*R);
  ResourceMatrix RMlo, RMgl;
  Digraph Graph;
  ASSERT_TRUE(decodeDesignArtifact(Blob, RMlo, RMgl, Graph));

  const ElaboratedProgram *P = S.program();
  std::ostringstream Want, Got;
  R->RMlo.print(Want, *P);
  R->RMgl.print(Want, *P);
  RMlo.print(Got, *P);
  RMgl.print(Got, *P);
  EXPECT_EQ(Got.str(), Want.str());
  EXPECT_EQ(Graph.numNodes(), R->Graph.numNodes());
  EXPECT_EQ(Graph.numEdges(), R->Graph.numEdges());

  // Every strict prefix is undecodable — the framing is fully
  // length-prefixed, so truncation can never produce a partial result.
  for (size_t Len = 0; Len < Blob.size(); ++Len) {
    ResourceMatrix A, B;
    Digraph G;
    EXPECT_FALSE(decodeDesignArtifact(Blob.substr(0, Len), A, B, G))
        << "prefix of " << Len << " bytes decoded";
  }
  // Trailing garbage is rejected too (atEnd discipline).
  ResourceMatrix A, B;
  Digraph G;
  EXPECT_FALSE(decodeDesignArtifact(Blob + "z", A, B, G));
}

TEST(ArtifactCodec, QueryIndexRoundTripsAndValidatesShape) {
  AnalysisSession S = AnalysisSession::fromSource(
      "pipe.vhd", workloads::pipelineDesign(5), SessionOptions());
  const query::FlowQueryEngine *Q = S.queryEngine();
  ASSERT_NE(Q, nullptr);
  const Digraph &Graph = S.ifa()->Graph;

  std::string Blob = encodeQueryIndex(*Q);
  std::optional<query::FlowQueryEngine> Back =
      decodeQueryIndex(Blob, Graph);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->numNodes(), Q->numNodes());
  EXPECT_EQ(Back->numEdges(), Q->numEdges());
  EXPECT_TRUE(Back->reaches("s_0", "s_5"));
  EXPECT_FALSE(Back->reaches("s_5", "s_0"));
  EXPECT_EQ(Back->reachableFrom("s_0"), Q->reachableFrom("s_0"));
  EXPECT_EQ(Back->whatReaches("s_5"), Q->whatReaches("s_5"));

  // The blob only fits the graph it was built over: a mismatched node
  // count is a miss, not a crash or a wrong engine.
  AnalysisSession Other =
      AnalysisSession::fromSource("mux.vhd", MuxSource, SessionOptions());
  EXPECT_FALSE(
      decodeQueryIndex(Blob, Other.ifa()->Graph).has_value());

  for (size_t Len = 0; Len < Blob.size(); ++Len)
    EXPECT_FALSE(decodeQueryIndex(Blob.substr(0, Len), Graph).has_value())
        << "prefix of " << Len << " bytes decoded";
}

TEST(RestartSurvival, WarmDiskRunInvokesNoSolver) {
  TempStoreDir Dir;
  std::string Source = workloads::pipelineDesign(6);
  std::string Cold;
  {
    ArtifactStore Store(Dir.Path);
    ProcessArtifactTable Table;
    Table.setBacking(&Store);
    AnalysisSession S =
        AnalysisSession::fromSource("pipe.vhd", Source, SessionOptions());
    S.setArtifacts(&Table, &Store);
    Cold = renderIfa(S);
    EXPECT_GT(S.timings().IfaMs, 0.0);
    ASSERT_NE(S.queryEngine(), nullptr);
    EXPECT_GE(Store.counters().Writes, 2u); // dsgn + qidx at least
  } // "process exit": every in-memory artifact is gone

  ArtifactStore Store(Dir.Path);
  ProcessArtifactTable Table;
  Table.setBacking(&Store);
  AnalysisSession S =
      AnalysisSession::fromSource("pipe.vhd", Source, SessionOptions());
  S.setArtifacts(&Table, &Store);
  std::string Warm = renderIfa(S);

  // Byte-identical results, no solver invocation: the ifa stage timing
  // never ran — only store I/O time was spent.
  EXPECT_EQ(Warm, Cold);
  EXPECT_TRUE(S.ifaPartial());
  EXPECT_EQ(S.timings().IfaMs, 0.0);
  EXPECT_GT(S.timings().StoreMs, 0.0);
  EXPECT_EQ(S.incrementalStats().RdSolved, 0u);
  EXPECT_EQ(S.incrementalStats().ActiveSolved, 0u);

  // The query index is served from disk too: no closure rebuild.
  const query::FlowQueryEngine *Q = S.queryEngine();
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(S.timings().QueryMs, 0.0);
  EXPECT_TRUE(Q->reaches("s_0", "s_6"));
  EXPECT_GE(Store.counters().Hits, 2u);
  EXPECT_EQ(Store.counters().Writes, 0u);
}

TEST(RestartSurvival, RdRequestUpgradesThePartialResultInPlace) {
  TempStoreDir Dir;
  std::string Source = workloads::pipelineDesign(4);
  size_t ColdIterations = 0;
  {
    ArtifactStore Store(Dir.Path);
    AnalysisSession S =
        AnalysisSession::fromSource("pipe.vhd", Source, SessionOptions());
    S.setArtifacts(nullptr, &Store);
    ASSERT_NE(S.ifa(), nullptr);
    ColdIterations = S.reachingDefs()->Iterations;
  }

  ArtifactStore Store(Dir.Path);
  AnalysisSession S =
      AnalysisSession::fromSource("pipe.vhd", Source, SessionOptions());
  S.setArtifacts(nullptr, &Store);
  const IFAResult *R = S.ifa();
  ASSERT_NE(R, nullptr);
  EXPECT_TRUE(S.ifaPartial());
  const Digraph *GraphBefore = &R->Graph;

  // Asking for the RD tier upgrades the partial result without
  // disturbing the artifacts already handed out: same IFAResult, same
  // graph object, and the solved RD matches the cold run.
  const ReachingDefsResult *RD = S.reachingDefs();
  ASSERT_NE(RD, nullptr);
  EXPECT_FALSE(S.ifaPartial());
  EXPECT_EQ(S.ifa(), R);
  EXPECT_EQ(&S.ifa()->Graph, GraphBefore);
  EXPECT_EQ(RD->Iterations, ColdIterations);
}

TEST(Incremental, EditingOneProcessResolvesExactlyOne) {
  std::string Base = workloads::pipelineDesign(8);
  // An expression-level edit confined to the last process: same labels,
  // same resolved ids everywhere else, so only st_8's slice hash moves.
  std::string Edited = Base;
  size_t At = Edited.find("s_8 <= s_7;");
  ASSERT_NE(At, std::string::npos);
  Edited.replace(At, 11, "s_8 <= s_7 and s_7;");

  ProcessArtifactTable Table;
  AnalysisSession A =
      AnalysisSession::fromSource("pipe.vhd", Base, SessionOptions());
  A.setArtifacts(&Table, nullptr);
  ASSERT_NE(A.ifa(), nullptr);
  EXPECT_EQ(A.incrementalStats().ActiveSolved, 8u);
  EXPECT_EQ(A.incrementalStats().ActiveReused, 0u);
  EXPECT_EQ(A.incrementalStats().RdSolved, 8u);
  EXPECT_EQ(A.incrementalStats().RdReused, 0u);

  AnalysisSession B =
      AnalysisSession::fromSource("pipe.vhd", Edited, SessionOptions());
  B.setArtifacts(&Table, nullptr);
  ASSERT_NE(B.ifa(), nullptr);
  EXPECT_EQ(B.incrementalStats().ActiveSolved, 1u);
  EXPECT_EQ(B.incrementalStats().ActiveReused, 7u);
  EXPECT_EQ(B.incrementalStats().RdSolved, 1u);
  EXPECT_EQ(B.incrementalStats().RdReused, 7u);

  // The recomposed results are exactly the cold run's (set for set).
  AnalysisSession Cold =
      AnalysisSession::fromSource("pipe.vhd", Edited, SessionOptions());
  EXPECT_EQ(renderIfa(B), renderIfa(Cold));
  EXPECT_EQ(B.reachingDefs()->Iterations, Cold.reachingDefs()->Iterations);
}

TEST(Incremental, UnchangedReanalysisReusesEverything) {
  std::string Source = workloads::pipelineDesign(5);
  ProcessArtifactTable Table;
  AnalysisSession A =
      AnalysisSession::fromSource("pipe.vhd", Source, SessionOptions());
  A.setArtifacts(&Table, nullptr);
  ASSERT_NE(A.ifa(), nullptr);

  AnalysisSession B =
      AnalysisSession::fromSource("pipe.vhd", Source, SessionOptions());
  B.setArtifacts(&Table, nullptr);
  ASSERT_NE(B.ifa(), nullptr);
  EXPECT_EQ(B.incrementalStats().ActiveSolved, 0u);
  EXPECT_EQ(B.incrementalStats().ActiveReused, 5u);
  EXPECT_EQ(B.incrementalStats().RdSolved, 0u);
  EXPECT_EQ(B.incrementalStats().RdReused, 5u);
  EXPECT_EQ(renderIfa(A), renderIfa(B));
}

//===----------------------------------------------------------------------===//
// A store written by an earlier build
//===----------------------------------------------------------------------===//

// tests/inputs/store holds what `vifc flows --store` wrote for smoke.vhd
// and corpus/gen_2.vhd (6 processes) before Tables 4 and 5 shared one
// solver, one artifact type and one codec. The store format promises that
// such a store keeps serving: every blob re-encodes to the same bytes, and
// a fresh run finds every design and per-process artifact in it.
const std::string GoldenStore = std::string(VIFC_INPUTS_DIR) + "/store";

std::vector<std::filesystem::path> goldenFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(GoldenStore))
    Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

TEST(GoldenStore, EveryBlobReencodesByteForByte) {
  ArtifactStore Store(GoldenStore);
  TempStoreDir Out;
  ArtifactStore Copy(Out.Path);
  size_t PerProcess = 0, Designs = 0;
  for (const std::filesystem::path &File : goldenFiles()) {
    std::string Name = File.filename().string(); // "<kind>-<16 hex>.bin"
    ASSERT_EQ(Name.size(), 25u) << Name;
    const char Kind[5] = {Name[0], Name[1], Name[2], Name[3], '\0'};
    uint64_t Key = std::stoull(Name.substr(5, 16), nullptr, 16);
    std::string Payload, Again;
    ASSERT_TRUE(Store.load(Kind, Key, Payload)) << Name;
    std::string_view K(Kind);
    if (K == "actv" || K == "rdpr") {
      RdProcessArtifact A;
      ASSERT_TRUE(decodeProcessArtifact(Payload, K == "actv", A)) << Name;
      EXPECT_EQ(A.MustEntry != nullptr, K == "actv" && A.Dom->size() > 0)
          << Name;
      Again = encodeProcessArtifact(A);
      ++PerProcess;
    } else {
      ASSERT_EQ(K, "dsgn") << Name;
      IFAResult R;
      ASSERT_TRUE(decodeDesignArtifact(Payload, R.RMlo, R.RMgl, R.Graph));
      Again = encodeDesignArtifact(R);
      ++Designs;
    }
    EXPECT_EQ(Again, Payload) << Name;
    // The envelope (header, checksum) is byte-identical too.
    Copy.store(Kind, Key, Again);
    EXPECT_EQ(readFile(Out.Path + "/" + Name), readFile(File.string()))
        << Name;
  }
  EXPECT_EQ(PerProcess, 14u); // 1 + 6 processes, Tables 4 and 5
  EXPECT_EQ(Designs, 2u);
  EXPECT_EQ(Store.counters().Misses, 0u);
}

TEST(GoldenStore, ServedAsAllHits) {
  for (const char *Input : {"smoke.vhd", "corpus/gen_2.vhd"}) {
    std::string Source = readFile(std::string(VIFC_INPUTS_DIR) + "/" + Input);
    TempStoreDir Dir; // a copy, so a miss could never write into the tree
    for (const std::filesystem::path &File : goldenFiles())
      std::filesystem::copy_file(File,
                                 Dir.Path + "/" + File.filename().string());

    ArtifactStore Store(Dir.Path);
    AnalysisSession S = AnalysisSession::fromSource(Input, Source);
    S.setArtifacts(nullptr, &Store);
    AnalysisSession Cold = AnalysisSession::fromSource(Input, Source);
    // The dsgn blob answers the flow request without any solver.
    EXPECT_EQ(renderIfa(S), renderIfa(Cold)) << Input;
    EXPECT_TRUE(S.ifaPartial()) << Input;

    // Tables 4 and 5 through the store: every actv and rdpr artifact is
    // found, and the served sets are the cold solution's.
    const ElaboratedProgram &P = *Cold.program();
    const ProgramCFG &C = *Cold.cfg();
    ProcessArtifactTable Table, Fresh;
    Table.setBacking(&Store);
    ActiveSignalsResult Active, ColdActive;
    ReachingDefsResult RD, ColdRD;
    IncrementalStats Stats;
    analyzeIncremental(P, C, {}, Table, Active, RD, &Stats);
    analyzeIncremental(P, C, {}, Fresh, ColdActive, ColdRD);
    size_t Procs = C.processes().size();
    EXPECT_EQ(Stats.ActiveReused, Procs) << Input;
    EXPECT_EQ(Stats.ActiveSolved, 0u) << Input;
    EXPECT_EQ(Stats.RdReused, Procs) << Input;
    EXPECT_EQ(Stats.RdSolved, 0u) << Input;
    EXPECT_EQ(Table.misses(), 0u) << Input;
    EXPECT_EQ(Store.counters().Misses, 0u) << Input;
    EXPECT_EQ(Store.counters().Writes, 0u) << Input;
    EXPECT_EQ(Active.Iterations, ColdActive.Iterations) << Input;
    EXPECT_EQ(RD.Iterations, ColdRD.Iterations) << Input;
    for (LabelId L = 1; L <= C.numLabels(); ++L) {
      EXPECT_TRUE(Active.MayEntry[L] == ColdActive.MayEntry[L]) << L;
      EXPECT_TRUE(Active.MayExit[L] == ColdActive.MayExit[L]) << L;
      EXPECT_TRUE(Active.MustEntry[L] == ColdActive.MustEntry[L]) << L;
      EXPECT_TRUE(Active.MustExit[L] == ColdActive.MustExit[L]) << L;
      EXPECT_TRUE(RD.Entry[L] == ColdRD.Entry[L]) << L;
      EXPECT_TRUE(RD.Exit[L] == ColdRD.Exit[L]) << L;
    }
  }
}

} // namespace
