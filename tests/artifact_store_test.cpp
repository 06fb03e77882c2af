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
/// exactly one process, with results equal to a cold run; a served
/// artifact whose layout disagrees with the process is a miss), a store
/// written by an earlier build in the current format (tests/inputs/
/// store-v2) that must keep serving byte for byte, and one in format 1
/// (tests/inputs/store) that must read as clean misses.
///
//===----------------------------------------------------------------------===//

#include "driver/AnalysisSession.h"
#include "driver/ArtifactStore.h"
#include "parse/Parser.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
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
// Layout checks on served per-process artifacts
//===----------------------------------------------------------------------===//

/// An in-memory blob store that serves every per-process payload back
/// with Tamper applied to the decoded artifact.
struct TamperingStore final : ArtifactBlobStore {
  std::map<std::pair<std::string, uint64_t>, std::string> Blobs;
  std::function<void(RdProcessArtifact &)> Tamper;

  bool load(const char (&Kind)[5], uint64_t Key,
            std::string &Payload) override {
    auto It = Blobs.find({Kind, Key});
    RdProcessArtifact A;
    if (It == Blobs.end() || !decodeProcessArtifact(It->second, A))
      return false;
    Tamper(A);
    Payload = encodeProcessArtifact(A);
    return true;
  }
  void store(const char (&Kind)[5], uint64_t Key,
             std::string_view Payload) override {
    Blobs[{Kind, Key}] = std::string(Payload);
  }
};

/// \p R with \p F applied to a copy of its rows (null stays null).
std::shared_ptr<const PairRows>
editRows(const std::shared_ptr<const PairRows> &R,
         const std::function<void(PairRows &)> &F) {
  if (!R)
    return R;
  auto Copy = std::make_shared<PairRows>(*R);
  F(*Copy);
  return Copy;
}

TEST(Incremental, ServedArtifactWithTheWrongLayoutIsAMiss) {
  std::string Source = workloads::pipelineDesign(4);
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(Source, Diags);
  std::optional<ElaboratedProgram> P = elaborateDesign(F, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ProgramCFG CFG = ProgramCFG::build(*P);
  IFAResult Cold = analyzeInformationFlow(*P, CFG);
  size_t Procs = CFG.processes().size();

  TamperingStore Store;
  {
    ProcessArtifactTable Writer;
    Writer.setBacking(&Store);
    analyzeInformationFlow(*P, CFG, {}, &Writer);
  }
  ASSERT_EQ(Store.Blobs.size(), 2 * Procs);

  auto appendRow = [](PairRows &R) { R.closeRow(); };
  // A fact no keep-set of this design asks for, at the first label.
  auto foreignFact = [](PairRows &R) {
    R.Items.insert(R.Items.begin() + R.Start[1],
                   DefPair{Resource::signal(0x0ffffff0), 1});
    for (size_t I = 1; I < R.Start.size(); ++I)
      ++R.Start[I];
  };
  const std::pair<const char *, std::function<void(RdProcessArtifact &)>>
      Tampers[] = {
          {"untouched", [](RdProcessArtifact &) {}},
          {"one label too many",
           [&](RdProcessArtifact &A) {
             for (auto &T : A.Tables)
               T = editRows(T, appendRow);
           }},
          {"a fact outside the keep-set",
           [&](RdProcessArtifact &A) {
             A.Tables[A.Entry] = editRows(A.Tables[A.Entry], foreignFact);
           }},
          {"must tables toggled",
           [](RdProcessArtifact &A) {
             auto &Must = A.Tables[A.MustEntry];
             Must = Must ? nullptr : A.Tables[A.Entry];
           }}};
  for (const auto &[What, Tamper] : Tampers) {
    Store.Tamper = Tamper;
    ProcessArtifactTable Table;
    Table.setBacking(&Store);
    IncrementalStats Stats;
    IFAResult R = analyzeInformationFlow(*P, CFG, {}, &Table, &Stats);
    bool Served = std::string(What) == "untouched";
    EXPECT_EQ(Stats.ActiveReused, Served ? Procs : 0u) << What;
    EXPECT_EQ(Stats.RdReused, Served ? Procs : 0u) << What;
    EXPECT_TRUE(R.RMgl == Cold.RMgl) << What;
    EXPECT_TRUE(R.Graph.sameFlows(Cold.Graph)) << What;
    for (LabelId L = 1; L <= CFG.numLabels(); ++L) {
      EXPECT_TRUE(R.RD.Entry[L] == Cold.RD.Entry[L]) << What << " " << L;
      EXPECT_TRUE(R.Active.MayEntry[L] == Cold.Active.MayEntry[L])
          << What << " " << L;
    }
  }
}

//===----------------------------------------------------------------------===//
// Stores written by earlier builds
//===----------------------------------------------------------------------===//

// tests/inputs/store-v2 holds what `vifc flows --store` wrote for smoke.vhd
// and corpus/gen_2.vhd (6 processes) in store format 2, whose per-process
// blobs carry the kept rows. The store format promises that such a store
// keeps serving: every blob re-encodes to the same bytes, and a fresh run
// finds every design and per-process artifact in it. tests/inputs/store
// holds the same designs in format 1 (dense matrices): every blob of it
// must read as a clean miss.
const std::string GoldenStore = std::string(VIFC_INPUTS_DIR) + "/store-v2";
const std::string FormatOneStore = std::string(VIFC_INPUTS_DIR) + "/store";

std::vector<std::filesystem::path> goldenFiles(const std::string &Dir) {
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// Splits "<kind>-<16 hex>.bin" into its kind and key.
std::pair<std::string, uint64_t> blobName(const std::filesystem::path &File) {
  std::string Name = File.filename().string();
  EXPECT_EQ(Name.size(), 25u) << Name;
  return {Name.substr(0, 4), std::stoull(Name.substr(5, 16), nullptr, 16)};
}

TEST(GoldenStore, EveryBlobReencodesByteForByte) {
  ArtifactStore Store(GoldenStore);
  TempStoreDir Out;
  ArtifactStore Copy(Out.Path);
  size_t PerProcess = 0, Designs = 0;
  for (const std::filesystem::path &File : goldenFiles(GoldenStore)) {
    auto [K, Key] = blobName(File);
    const char Kind[5] = {K[0], K[1], K[2], K[3], '\0'};
    std::string Payload, Again;
    ASSERT_TRUE(Store.load(Kind, Key, Payload)) << File;
    if (K == "actv" || K == "rdpr") {
      RdProcessArtifact A;
      ASSERT_TRUE(decodeProcessArtifact(Payload, A)) << File;
      EXPECT_EQ(A.Tables[A.MustEntry] != nullptr, K == "actv") << File;
      Again = encodeProcessArtifact(A);
      ++PerProcess;
    } else {
      ASSERT_EQ(K, "dsgn") << File;
      IFAResult R;
      ASSERT_TRUE(decodeDesignArtifact(Payload, R.RMlo, R.RMgl, R.Graph));
      Again = encodeDesignArtifact(R);
      ++Designs;
    }
    EXPECT_EQ(Again, Payload) << File;
    // The envelope (header, checksum) is byte-identical too.
    Copy.store(Kind, Key, Again);
    EXPECT_EQ(readFile(Out.Path + "/" + File.filename().string()),
              readFile(File.string()))
        << File;
  }
  EXPECT_EQ(PerProcess, 14u); // 1 + 6 processes, Tables 4 and 5
  EXPECT_EQ(Designs, 2u);
  EXPECT_EQ(Store.counters().Misses, 0u);
}

/// What serveFromCopy saw of the store.
struct Served {
  IncrementalStats Stats;          ///< Tables 4 and 5 through the store
  ArtifactStore::Counters Counters; ///< the store, after Tables 4 and 5
  size_t Misses = 0;               ///< the artifact table's misses
  bool Partial = false; ///< a session's flow request came from a dsgn blob
};

/// Runs \p Input over a copy of the store in \p Dir, checking the answers
/// against a cold run.
Served serveFromCopy(const std::string &Dir, const char *Input) {
  std::string Source = readFile(std::string(VIFC_INPUTS_DIR) + "/" + Input);
  TempStoreDir Copy; // so a miss could never write into the tree
  for (const std::filesystem::path &File : goldenFiles(Dir))
    std::filesystem::copy_file(File,
                               Copy.Path + "/" + File.filename().string());
  AnalysisSession Cold = AnalysisSession::fromSource(Input, Source);
  const ElaboratedProgram &P = *Cold.program();
  const ProgramCFG &C = *Cold.cfg();

  // Tables 4 and 5 through the store, set for set against the cold run.
  ArtifactStore Store(Copy.Path);
  ProcessArtifactTable Table;
  Table.setBacking(&Store);
  Served Out;
  IFAResult R = analyzeInformationFlow(P, C, {}, &Table, &Out.Stats);
  const IFAResult &ColdR = *Cold.ifa();
  EXPECT_EQ(R.Active.Iterations, ColdR.Active.Iterations) << Input;
  EXPECT_EQ(R.RD.Iterations, ColdR.RD.Iterations) << Input;
  for (LabelId L = 1; L <= C.numLabels(); ++L) {
    EXPECT_TRUE(R.Active.MayEntry[L] == ColdR.Active.MayEntry[L]) << L;
    EXPECT_TRUE(R.Active.MustEntry[L] == ColdR.Active.MustEntry[L]) << L;
    EXPECT_TRUE(R.RD.Entry[L] == ColdR.RD.Entry[L]) << L;
    EXPECT_TRUE(R.RD.Exit[L] == ColdR.RD.Exit[L]) << L;
  }
  Out.Counters = Store.counters();
  Out.Misses = Table.misses();

  AnalysisSession S = AnalysisSession::fromSource(Input, Source);
  S.setArtifacts(nullptr, &Store);
  EXPECT_EQ(renderIfa(S), renderIfa(Cold)) << Input;
  Out.Partial = S.ifaPartial();
  return Out;
}

TEST(GoldenStore, ServedAsAllHits) {
  for (const char *Input : {"smoke.vhd", "corpus/gen_2.vhd"}) {
    Served S = serveFromCopy(GoldenStore, Input);
    EXPECT_EQ(S.Stats.ActiveSolved, 0u) << Input;
    EXPECT_EQ(S.Stats.RdSolved, 0u) << Input;
    EXPECT_GT(S.Stats.ActiveReused, 0u) << Input;
    EXPECT_EQ(S.Misses, 0u) << Input;
    EXPECT_EQ(S.Counters.Misses, 0u) << Input;
    EXPECT_EQ(S.Counters.Writes, 0u) << Input;
    EXPECT_TRUE(S.Partial) << Input;
  }
}

TEST(GoldenStore, FormatOneBlobsAreCleanMisses) {
  ArtifactStore Store(FormatOneStore);
  size_t Files = 0;
  for (const std::filesystem::path &File : goldenFiles(FormatOneStore)) {
    auto [K, Key] = blobName(File);
    const char Kind[5] = {K[0], K[1], K[2], K[3], '\0'};
    std::string Payload;
    EXPECT_FALSE(Store.load(Kind, Key, Payload)) << File;
    ++Files;
  }
  EXPECT_EQ(Files, 16u);
  EXPECT_EQ(Store.counters().Hits, 0u);
  // A run over the old store re-solves everything, right.
  for (const char *Input : {"smoke.vhd", "corpus/gen_2.vhd"}) {
    Served S = serveFromCopy(FormatOneStore, Input);
    EXPECT_EQ(S.Stats.ActiveReused + S.Stats.RdReused, 0u) << Input;
    EXPECT_EQ(S.Counters.Hits, 0u) << Input;
    EXPECT_FALSE(S.Partial) << Input;
  }
}

} // namespace
