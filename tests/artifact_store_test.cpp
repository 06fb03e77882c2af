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
/// in-memory incremental path (editing one process of an N-process
/// design re-solves exactly one process, with results equal to a cold
/// run; a table artifact whose layout disagrees with the process is a
/// miss), a store written by an earlier build in the current format
/// (tests/inputs/store-v3) whose design blobs must keep serving byte for
/// byte, and ones in formats 2 and 1 (tests/inputs/store-v2,
/// tests/inputs/store) that must read as clean misses.
///
//===----------------------------------------------------------------------===//

#include "driver/AnalysisSession.h"
#include "driver/ArtifactStore.h"
#include "driver/Batch.h"
#include "driver/Serve.h"
#include "driver/SessionCache.h"
#include "gen/Generator.h"
#include "parse/Parser.h"
#include "support/BinaryIO.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "workloads/AesVhdl.h"
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

/// The design blob's tagged sections, split and re-joined byte for byte.
std::vector<std::pair<std::string, std::string>>
splitSections(std::string_view Payload) {
  std::vector<std::pair<std::string, std::string>> Sections;
  ByteReader R(Payload);
  while (R.ok() && !R.atEnd()) {
    char Tag[4];
    R.bytes(Tag, 4);
    std::string_view Body = R.str();
    Sections.emplace_back(std::string(Tag, 4), std::string(Body));
  }
  EXPECT_TRUE(R.ok());
  return Sections;
}

std::string
joinSections(const std::vector<std::pair<std::string, std::string>> &S) {
  ByteWriter W;
  for (const auto &[Tag, Body] : S) {
    W.bytes(Tag.data(), 4);
    W.str(Body);
  }
  return W.take();
}

/// A matrix section's parts, written by the test in the section grammar
/// of docs/SCHEMA.md with every delta taken mod 2^32, so a fault can put
/// any value anywhere: an entry out of order becomes a delta that wraps
/// past 32 bits.
struct MatrixParts {
  std::vector<RMEntry> Flat;
  std::vector<uint8_t> Access; ///< the access byte of each flat entry
  std::vector<uint32_t> Universe;
  uint32_t NumRows = 0;
  std::vector<uint64_t> Words; ///< NumRows × ceil(|Universe| / 64)

  MatrixParts(const ResourceMatrix &M) : Flat(M.flatEntries()) {
    for (const RMEntry &E : Flat)
      Access.push_back(static_cast<uint8_t>(E.A));
    Universe = M.rowUniverse();
    if (Universe.empty())
      return;
    NumRows = static_cast<uint32_t>(M.rows().numRows());
    size_t W = (Universe.size() + 63) / 64;
    for (uint32_t L = 0; L < NumRows; ++L)
      Words.insert(Words.end(), M.rows().row(L), M.rows().row(L) + W);
  }

  std::string write(bool WithRows, uint32_t ExtraCount = 0,
                    uint32_t ExtraRows = 0) const {
    ByteWriter W;
    W.varint(static_cast<uint32_t>(Flat.size()) + ExtraCount);
    uint32_t PrevL = 0, PrevN = 0;
    int PrevA = -1;
    for (size_t I = 0; I < Flat.size(); ++I) {
      const RMEntry &E = Flat[I];
      bool SameRun = E.L == PrevL && Access[I] == PrevA;
      W.varint(E.L - PrevL);
      W.u8(Access[I]);
      W.varint(SameRun ? E.N.raw() - PrevN : E.N.raw());
      PrevL = E.L;
      PrevA = Access[I];
      PrevN = E.N.raw();
    }
    if (!WithRows)
      return W.take();
    W.varint(static_cast<uint32_t>(Universe.size()));
    if (Universe.empty())
      return W.take();
    uint32_t Prev = 0;
    for (uint32_t Raw : Universe) {
      W.varint(Raw - Prev);
      Prev = Raw;
    }
    W.varint(NumRows + ExtraRows);
    for (uint64_t Word : Words)
      W.u64(Word);
    return W.take();
  }
};

/// The flow graph's parts, written alike: names, then each node's
/// out-degree and successor deltas (mod 2^32) in edge-list order.
struct GraphParts {
  std::vector<std::string> Names;
  std::vector<std::pair<uint32_t, uint32_t>> Edges;

  GraphParts(const Digraph &G) {
    for (std::string_view Name : G.nodes())
      Names.emplace_back(Name);
    G.forEachEdgeId([&](Digraph::NodeId From, Digraph::NodeId To) {
      Edges.emplace_back(From, To);
    });
  }

  std::string write() const {
    ByteWriter W;
    W.varint(static_cast<uint32_t>(Names.size()));
    for (const std::string &Name : Names) {
      W.varint(static_cast<uint32_t>(Name.size()));
      W.bytes(Name.data(), Name.size());
    }
    size_t E = 0;
    for (uint32_t From = 0; From < Names.size(); ++From) {
      size_t First = E;
      while (E < Edges.size() && Edges[E].first == From)
        ++E;
      W.varint(static_cast<uint32_t>(E - First));
      for (size_t K = First; K < E; ++K)
        W.varint(Edges[K].second - (K == First ? 0 : Edges[K - 1].second));
    }
    return W.take();
  }
};

/// \p Body with its leading varint \p V rewritten as \p Bytes.
std::string replaceLeadingVarint(const std::string &Body, uint32_t V,
                                 std::string Bytes) {
  ByteWriter W;
  W.varint(V);
  return Bytes + Body.substr(W.size());
}

TEST(ArtifactCodec, CorruptMatrixSectionsAreMisses) {
  // Every fault below must make the whole design blob undecodable, so
  // the store reads it as a miss — in RMLO (flat) and in RMGL (flat
  // entries plus the Table 8 rows) alike, and in GRPH. The faults are
  // built from the decoded parts and re-written in the section grammar;
  // the unfaulted parts must write back to the encoder's exact bytes.
  // pipelineDesign(16) is the smallest pipeline whose RMgl keeps rows.
  size_t RowDesigns = 0, OutOfOrder = 0;
  for (const std::string &Source :
       {std::string(MuxSource), workloads::pipelineDesign(4),
        workloads::pipelineDesign(16)}) {
    AnalysisSession S =
        AnalysisSession::fromSource("d.vhd", Source, SessionOptions());
    const IFAResult *R = S.ifa();
    ASSERT_NE(R, nullptr);
    std::string Blob = encodeDesignArtifact(*R);
    auto Sections = splitSections(Blob);
    ASSERT_EQ(Sections.size(), 3u);
    ASSERT_EQ(joinSections(Sections), Blob);

    auto decodes = [](const std::string &Payload) {
      ResourceMatrix Lo, Gl;
      Digraph G;
      return decodeDesignArtifact(Payload, Lo, Gl, G);
    };
    ASSERT_TRUE(decodes(Blob));
    auto expectMiss = [&](size_t SI, std::string Faulty,
                          const std::string &What) {
      auto Copy = Sections;
      Copy[SI].second = std::move(Faulty);
      EXPECT_FALSE(decodes(joinSections(Copy)))
          << Sections[SI].first << ": " << What;
    };

    for (size_t SI : {size_t(0), size_t(1)}) {
      bool WithRows = SI == 1;
      const MatrixParts Parts(WithRows ? R->RMgl : R->RMlo);
      const std::string &Body = Sections[SI].second;
      ASSERT_EQ(Parts.write(WithRows), Body) << Sections[SI].first;
      size_t N = Parts.Flat.size();
      ASSERT_GE(N, 3u) << Sections[SI].first;
      // Probe the ends, the middle and the first flat R0 entry.
      std::vector<size_t> Probes = {0, N / 2, N - 2};
      for (size_t I = 0; I + 1 < N; ++I)
        if (Parts.Flat[I].A == Access::R0) {
          Probes.push_back(I);
          break;
        }
      for (size_t I : Probes) {
        std::string At = " at entry " + std::to_string(I);
        MatrixParts Swapped = Parts;
        std::swap(Swapped.Flat[I], Swapped.Flat[I + 1]);
        std::swap(Swapped.Access[I], Swapped.Access[I + 1]);
        expectMiss(SI, Swapped.write(WithRows), "two entries swapped" + At);

        MatrixParts Repeated = Parts;
        Repeated.Flat.insert(Repeated.Flat.begin() + I + 1, Parts.Flat[I]);
        Repeated.Access.insert(Repeated.Access.begin() + I + 1,
                               Parts.Access[I]);
        expectMiss(SI, Repeated.write(WithRows), "an entry repeated" + At);

        MatrixParts BadAccess = Parts;
        BadAccess.Access[I] = 4;
        expectMiss(SI, BadAccess.write(WithRows), "access byte 4" + At);
      }
      expectMiss(SI, Parts.write(WithRows, 1),
                 "entry count past the payload");
      uint32_t Count = static_cast<uint32_t>(N);
      ByteWriter Short;
      Short.varint(Count);
      std::string Long = Short.take(); // the count, with one more group
      Long.back() |= static_cast<char>(0x80);
      Long.push_back('\0');
      expectMiss(SI, replaceLeadingVarint(Body, Count, Long),
                 "an overlong varint");
      std::string Wide; // the count in five bytes, plus bit 32
      for (int Shift = 0; Shift < 28; Shift += 7)
        Wide.push_back(static_cast<char>(((Count >> Shift) & 0x7f) | 0x80));
      Wide.push_back(static_cast<char>((Count >> 28) | 0x10));
      expectMiss(SI, replaceLeadingVarint(Body, Count, Wide),
                 "a varint past 32 bits");
    }

    // GRPH: an edge repeated, two edges out of order, an edge past the
    // node count.
    const GraphParts G(R->Graph);
    ASSERT_EQ(G.write(), Sections[2].second);
    ASSERT_FALSE(G.Edges.empty());
    GraphParts Dup = G;
    Dup.Edges.insert(Dup.Edges.begin(), G.Edges[0]);
    expectMiss(2, Dup.write(), "a duplicate edge");
    for (size_t I = 0; I + 1 < G.Edges.size(); ++I)
      if (G.Edges[I].first == G.Edges[I + 1].first) {
        // Two successors of one node (none in the mux).
        GraphParts Swapped = G;
        std::swap(Swapped.Edges[I], Swapped.Edges[I + 1]);
        expectMiss(2, Swapped.write(), "an out-of-order edge");
        ++OutOfOrder;
        break;
      }
    GraphParts Far = G;
    Far.Edges.back().second = static_cast<uint32_t>(G.Names.size());
    expectMiss(2, Far.write(), "an out-of-range edge");

    // The RMGL rows: universe, padding, a flat entry the rows hold, and
    // the row count.
    const MatrixParts Gl(R->RMgl);
    if (Gl.NumRows == 0) // rows too sparse to pay, entered flat
      continue;
    ++RowDesigns;
    ASSERT_GE(Gl.Universe.size(), 2u);
    ASSERT_GT(Gl.NumRows, 1u);
    ASSERT_NE(Gl.Universe.size() % 64, 0u);
    MatrixParts Unsorted = Gl;
    std::swap(Unsorted.Universe[0], Unsorted.Universe[1]);
    expectMiss(1, Unsorted.write(true), "a universe not ascending");
    MatrixParts RepeatedId = Gl;
    RepeatedId.Universe[1] = RepeatedId.Universe[0];
    expectMiss(1, RepeatedId.write(true), "a universe id repeated");
    size_t W = (Gl.Universe.size() + 63) / 64;
    for (uint32_t L : {uint32_t(0), Gl.NumRows - 1}) {
      MatrixParts Padded = Gl;
      Padded.Words[L * W + W - 1] |= uint64_t(1)
                                     << (Gl.Universe.size() % 64);
      expectMiss(1, Padded.write(true),
                 "a row padding bit set in row " + std::to_string(L));
    }
    MatrixParts AtRow = Gl;
    RMEntry Extra{Gl.NumRows - 1, Access::R0,
                  Resource::fromRaw(Gl.Universe[0])};
    auto Pos = std::lower_bound(AtRow.Flat.begin(), AtRow.Flat.end(), Extra);
    AtRow.Access.insert(AtRow.Access.begin() + (Pos - AtRow.Flat.begin()),
                        static_cast<uint8_t>(Access::R0));
    AtRow.Flat.insert(Pos, Extra);
    expectMiss(1, AtRow.write(true), "a flat R0 entry at a row label");
    expectMiss(1, Gl.write(true, 0, 1), "a row count past the payload");
  }
  EXPECT_EQ(RowDesigns, 1u);
  EXPECT_EQ(OutOfOrder, 2u);
}

TEST(ArtifactCodec, DesignBlobTracksTheRows) {
  // The dsgn payload is the matrices' and the graph's in-memory shape:
  // dense Table 8 rows travel as their words, so the payload shrinks
  // with them, and sparse rows (entered flat) cost no more than the
  // 9-byte entries and 8-byte edges of store format 2.
  auto payload = [](const std::string &Source, bool Statements) {
    SessionOptions Opts;
    Opts.Statements = Statements;
    AnalysisSession S = AnalysisSession::fromSource("d.vhd", Source, Opts);
    const IFAResult *R = S.ifa();
    EXPECT_NE(R, nullptr);
    if (!R)
      return std::make_pair(size_t(0), size_t(0));
    size_t FormatTwo = 3 * 12 + 2 * 8 + (R->RMlo.size() + R->RMgl.size()) * 9 +
                       8 + 8 + R->Graph.numEdges() * 8;
    for (std::string_view Name : R->Graph.nodes())
      FormatTwo += 8 + Name.size();
    return std::make_pair(encodeDesignArtifact(*R).size(), FormatTwo);
  };
  auto [Pipeline, PipelineTwo] = payload(workloads::pipelineDesign(256), false);
  EXPECT_LE(Pipeline, size_t(160) << 10);
  EXPECT_GT(PipelineTwo, size_t(800) << 10); // 877 KB in format 2
  auto [Aes, AesTwo] = payload(workloads::aesCoreDesign(1), false);
  EXPECT_LE(Aes, size_t(1536) << 10);
  EXPECT_GT(AesTwo, size_t(8) << 20); // 8.4 MB in format 2
  auto [Copies, CopiesTwo] = payload(workloads::independentCopies(4096), true);
  EXPECT_LE(Copies, CopiesTwo);
}

TEST(ArtifactCodec, WideSparseRowsRoundTripAsHits) {
  // 4 096 independent copies: the closed RMgl's Table 8 rows would be
  // ~2N bits wide and one bit deep, so both the closure and the decoder
  // keep those R0 entries flat (ResourceMatrix::rowsPay). The blob the
  // store wrote must decode as a hit, re-encode byte for byte, and serve
  // a restart without a solver.
  SessionOptions Opts;
  Opts.Statements = true;
  std::string Source = workloads::independentCopies(4096);
  TempStoreDir Dir;
  std::string Cold;
  {
    ArtifactStore Store(Dir.Path);
    AnalysisSession S = AnalysisSession::fromSource("c.vhd", Source, Opts);
    S.setArtifacts(nullptr, &Store);
    Cold = renderIfa(S);
    const IFAResult *R = S.ifa();
    ASSERT_NE(R, nullptr);
    std::string Blob = encodeDesignArtifact(*R);
    ResourceMatrix Lo, Gl;
    Digraph G;
    ASSERT_TRUE(decodeDesignArtifact(Blob, Lo, Gl, G));
    EXPECT_TRUE(Gl == R->RMgl);
    EXPECT_LE(Gl.memoryBytes(), 2 * Gl.size() * sizeof(RMEntry));
    IFAResult Decoded;
    Decoded.RMlo = std::move(Lo);
    Decoded.RMgl = std::move(Gl);
    Decoded.Graph = std::move(G);
    EXPECT_EQ(encodeDesignArtifact(Decoded), Blob);
  }
  ArtifactStore Store(Dir.Path);
  AnalysisSession S = AnalysisSession::fromSource("c.vhd", Source, Opts);
  S.setArtifacts(nullptr, &Store);
  EXPECT_EQ(renderIfa(S), Cold);
  EXPECT_EQ(S.timings().IfaMs, 0.0);
  EXPECT_GE(Store.counters().Hits, 1u);
  EXPECT_EQ(Store.counters().Misses, 0u);
  EXPECT_EQ(Store.counters().Writes, 0u);
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

TEST(ArtifactCodec, QueryIndexWithAdjacencyIsAMiss) {
  // Earlier builds wrote the same format-3 envelope around a QIDX section
  // that followed the closure with a CSR copy of the graph's edges (row
  // starts, then successors). Such a payload must read as a clean miss:
  // the engine is rebuilt from the graph and the blob rewritten.
  std::string Source = workloads::pipelineDesign(5);
  AnalysisSession S =
      AnalysisSession::fromSource("pipe.vhd", Source, SessionOptions());
  const query::FlowQueryEngine *Q = S.queryEngine();
  ASSERT_NE(Q, nullptr);
  const Digraph &Graph = S.ifa()->Graph;
  std::vector<std::pair<std::string, std::string>> Sections =
      splitSections(encodeQueryIndex(*Q));
  ASSERT_EQ(Sections.size(), 1u);
  std::vector<uint32_t> RowStart(Graph.numNodes() + 1, 0), Succ;
  Graph.forEachEdgeId([&](Digraph::NodeId From, Digraph::NodeId To) {
    ++RowStart[From + 1];
    Succ.push_back(To);
  });
  for (size_t I = 0; I < Graph.numNodes(); ++I)
    RowStart[I + 1] += RowStart[I];
  ByteWriter W;
  W.bytes(Sections[0].second.data(), Sections[0].second.size());
  W.u64(RowStart.size());
  for (uint32_t V : RowStart)
    W.u32(V);
  W.u64(Succ.size());
  for (uint32_t V : Succ)
    W.u32(V);
  Sections[0].second = W.take();
  std::string Old = joinSections(Sections);
  EXPECT_FALSE(decodeQueryIndex(Old, Graph).has_value());

  TempStoreDir Dir;
  ArtifactStore Store(Dir.Path);
  Store.store("qidx", sessionCacheKey(Source, SessionOptions()), Old);
  AnalysisSession Fresh =
      AnalysisSession::fromSource("pipe.vhd", Source, SessionOptions());
  Fresh.setArtifacts(nullptr, &Store);
  const query::FlowQueryEngine *E = Fresh.queryEngine();
  ASSERT_NE(E, nullptr);
  EXPECT_GT(Fresh.timings().QueryMs, 0.0); // rebuilt, not served
  EXPECT_EQ(E->reachableFrom("s_0"), Q->reachableFrom("s_0"));
  EXPECT_EQ(Store.counters().Writes, 3u); // Old, then dsgn and qidx
  std::string Payload;
  ASSERT_TRUE(
      Store.load("qidx", sessionCacheKey(Source, SessionOptions()), Payload));
  EXPECT_EQ(Payload, encodeQueryIndex(*Q));
}

TEST(ArtifactStore, UndecodablePayloadIsAMissNotAHit) {
  // A sound envelope around a payload the decoder rejects is a miss: the
  // hit is settled after decoding, in the session and in serve's stats.
  TempStoreDir Dir;
  std::string Source = workloads::pipelineDesign(5);
  uint64_t Key = sessionCacheKey(Source, SessionOptions());
  {
    ArtifactStore Store(Dir.Path);
    AnalysisSession S =
        AnalysisSession::fromSource("pipe.vhd", Source, SessionOptions());
    S.setArtifacts(nullptr, &Store);
    ASSERT_NE(S.queryEngine(), nullptr);
    // Overwrite the primed qidx blob: valid framing, garbage payload.
    Store.store("qidx", Key, "not a query index");
  }
  ArtifactStore Store(Dir.Path);
  AnalysisSession S =
      AnalysisSession::fromSource("pipe.vhd", Source, SessionOptions());
  S.setArtifacts(nullptr, &Store);
  ASSERT_NE(S.queryEngine(), nullptr);
  ArtifactStore::Counters C = Store.counters();
  EXPECT_EQ(C.Hits, 1u);   // dsgn
  EXPECT_EQ(C.Misses, 1u); // qidx
  EXPECT_EQ(C.Writes, 1u); // qidx rewritten
  EXPECT_EQ(C.BytesRead,
            std::filesystem::file_size(std::filesystem::path(Dir.Path) /
                                       ArtifactStore::fileName("dsgn", Key)));

  // The same store traffic through serve, after breaking qidx again.
  Store.store("qidx", Key, "not a query index");
  ServeOptions SO;
  SO.StoreDir = Dir.Path;
  Server Srv(SO);
  std::string Query = R"({"command":"query","source":")" +
                      jsonEscape(Source) +
                      R"(","options":{"from":"s_0","to":"s_1"}})";
  ASSERT_NE(Srv.handleLine(Query).find("\"status\":\"ok\""),
            std::string::npos);
  std::string Stats = Srv.handleLine(R"({"command":"stats"})");
  EXPECT_NE(Stats.find(R"("store":{"hits":1,"misses":1,"writes":1,)"),
            std::string::npos)
      << Stats;
}

TEST(RestartSurvival, WarmDiskRunInvokesNoSolver) {
  TempStoreDir Dir;
  std::string Source = workloads::pipelineDesign(6);
  std::string Cold;
  {
    ArtifactStore Store(Dir.Path);
    ProcessArtifactTable Table;
    AnalysisSession S =
        AnalysisSession::fromSource("pipe.vhd", Source, SessionOptions());
    S.setArtifacts(&Table, &Store);
    Cold = renderIfa(S);
    EXPECT_GT(S.timings().IfaMs, 0.0);
    ASSERT_NE(S.queryEngine(), nullptr);
    EXPECT_EQ(Store.counters().Writes, 2u); // dsgn + qidx, nothing per process
  } // "process exit": every in-memory artifact is gone

  ArtifactStore Store(Dir.Path);
  ProcessArtifactTable Table;
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
  EXPECT_EQ(Store.counters().Hits, 2u); // dsgn + qidx
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

TEST(RestartSurvival, DesignHitSkipsTheCfgUntilAsked) {
  TempStoreDir Dir;
  std::string Source = workloads::pipelineDesign(4);
  std::string Cold;
  size_t ColdLabels = 0;
  {
    ArtifactStore Store(Dir.Path);
    AnalysisSession S =
        AnalysisSession::fromSource("pipe.vhd", Source, SessionOptions());
    S.setArtifacts(nullptr, &Store);
    Cold = renderIfa(S);
    ColdLabels = S.cfg()->numLabels();
    EXPECT_GT(S.timings().CfgMs, 0.0);
  }

  // The hit answers from the blob and the program alone: no CFG is built.
  ArtifactStore Store(Dir.Path);
  AnalysisSession S =
      AnalysisSession::fromSource("pipe.vhd", Source, SessionOptions());
  S.setArtifacts(nullptr, &Store);
  EXPECT_EQ(renderIfa(S), Cold);
  EXPECT_EQ(Store.counters().Hits, 1u);
  EXPECT_EQ(S.timings().CfgMs, 0.0);
  EXPECT_EQ(S.timings().IfaMs, 0.0);

  // A later consumer still gets the CFG, built on demand.
  const ProgramCFG *C = S.cfg();
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->numLabels(), ColdLabels);
}

TEST(RestartSurvival, DesignHitPrintsRmAndAlfpAsACleanRun) {
  // `rm` and `flows --alfp` read the matrices, the RD tier and the CFG a
  // dsgn hit does not build; they must print what a run without a store
  // prints.
  std::string Source = workloads::pipelineDesign(4);
  auto render = [&](BatchMode Mode, FlowMethod Method, ArtifactStore *Store) {
    SessionCache Cache;
    Cache.setArtifacts(nullptr, Store);
    BatchOptions Opts;
    Opts.Mode = Mode;
    Opts.Method = Method;
    Opts.Cache = &Cache;
    BatchResult R = runBatch({{"pipe.vhd", Source}}, Opts);
    EXPECT_EQ(R.NumOk, 1u);
    std::ostringstream OS;
    printDesignText(OS, R.Designs[0], Opts, /*Shape=*/true);
    return OS.str();
  };
  for (auto [Mode, Method] : {std::pair{BatchMode::Matrices, FlowMethod::Native},
                              std::pair{BatchMode::Flows, FlowMethod::Alfp}}) {
    TempStoreDir Dir;
    std::string Clean = render(Mode, Method, nullptr);
    ArtifactStore Prime(Dir.Path);
    EXPECT_EQ(render(Mode, Method, &Prime), Clean);
    ArtifactStore Store(Dir.Path);
    EXPECT_EQ(render(Mode, Method, &Store), Clean);
    EXPECT_EQ(Store.counters().Hits, 1u);
    EXPECT_EQ(Store.counters().Writes, 0u);
  }
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
// Layout checks on per-process artifacts served from the table
//===----------------------------------------------------------------------===//

/// Folds a BitSet into a key as rd/Incremental.cpp does: its words,
/// trimmed of trailing zero words.
void hashBitSet(HashBuilder &H, const BitSet &S) {
  H.words(S.words().data(), S.words().size());
}

/// A cold run (no table) solves every process, reuses none, and gives
/// the RD†, RMgl and graph of a run through a fresh table.
void expectColdMatchesFreshTable(const ElaboratedProgram &P,
                                 const std::string &What) {
  ProgramCFG CFG = ProgramCFG::build(P);
  size_t Procs = CFG.processes().size();
  IncrementalStats ColdStats, TableStats;
  IFAResult Cold = analyzeInformationFlow(P, CFG, {}, nullptr, &ColdStats);
  ProcessArtifactTable Fresh;
  IFAResult Keyed = analyzeInformationFlow(P, CFG, {}, &Fresh, &TableStats);
  EXPECT_EQ(ColdStats.ActiveSolved, Procs) << What;
  EXPECT_EQ(ColdStats.RdSolved, Procs) << What;
  EXPECT_EQ(ColdStats.ActiveReused + ColdStats.RdReused, 0u) << What;
  EXPECT_EQ(Fresh.hits() + Fresh.misses(), 2 * Procs) << What;
  EXPECT_EQ(Cold.RD.Iterations, Keyed.RD.Iterations) << What;
  EXPECT_EQ(Cold.Active.Iterations, Keyed.Active.Iterations) << What;
  EXPECT_EQ(Cold.RDDagger.Start, Keyed.RDDagger.Start) << What;
  EXPECT_EQ(Cold.RDDagger.Items, Keyed.RDDagger.Items) << What;
  EXPECT_EQ(Cold.RDDaggerPhi.Items, Keyed.RDDaggerPhi.Items) << What;
  EXPECT_TRUE(Cold.RMgl == Keyed.RMgl) << What;
  auto edges = [](const IFAResult &R) {
    std::string Out;
    R.Graph.forEachSortedEdge([&Out](std::string_view F, std::string_view T) {
      Out.append(F).append(" -> ").append(T).append("\n");
    });
    return Out;
  };
  EXPECT_EQ(edges(Cold), edges(Keyed)) << What;
}

TEST(Incremental, ColdRunWithoutATableMatchesAFreshTable) {
  auto design = [](const std::string &Source, const std::string &What) {
    DiagnosticEngine Diags;
    DesignFile F = parseDesign(Source, Diags);
    std::optional<ElaboratedProgram> P = elaborateDesign(F, Diags);
    ASSERT_TRUE(P.has_value()) << What << ": " << Diags.str();
    expectColdMatchesFreshTable(*P, What);
  };
  auto statements = [](const std::string &Source, const std::string &What) {
    DiagnosticEngine Diags;
    StatementProgram Prog = parseStatementProgram(Source, Diags);
    std::optional<ElaboratedProgram> P =
        elaborateStatements(*Prog.Body, Diags, &Prog.Decls);
    ASSERT_TRUE(P.has_value()) << What << ": " << Diags.str();
    expectColdMatchesFreshTable(*P, What);
  };
  statements(workloads::shiftRowsStatements(), "shiftRows");
  statements(workloads::addRoundKeyStatements(), "addRoundKey");
  statements(workloads::subBytesStatements(2), "subBytes/2");
  statements(workloads::mixColumnsStatements(), "mixColumns");
  design(workloads::shiftRowsDesign(), "shiftRows design");
  design(workloads::leakyCoreDesign(), "leaky core");
  design(workloads::aesCoreDesign(1), "AES core, 1 round");
  design(workloads::pipelineDesign(64), "pipeline/64");
  for (uint64_t Seed = 1; Seed <= 16; ++Seed)
    design(gen::generateDesign(Seed), "gen " + std::to_string(Seed));
}

TEST(Incremental, KeyFoldIgnoresUniversePadding) {
  BitSet Narrow(70), Wide(1000), Other(1000);
  for (size_t I : {3u, 65u}) {
    Narrow.set(I);
    Wide.set(I);
    Other.set(I);
  }
  Other.set(900);
  auto key = [](const BitSet &S) {
    HashBuilder H;
    hashBitSet(H, S);
    return H.value();
  };
  EXPECT_EQ(key(Narrow), key(Wide));
  EXPECT_NE(key(Wide), key(Other));
  EXPECT_EQ(key(BitSet(0)), key(BitSet(512)));
  EXPECT_NE(key(BitSet(64)), key(Narrow));
}

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

  // The keys analyzeIncremental files each process's Table 4 and Table 5
  // artifacts under (production: read sets given, so the full-row flag
  // is false), recomputed here from the public slice hashes and wait
  // aggregates, and what a cold run filed under them. The "untouched"
  // case below fails if these drift from rd/Incremental.cpp.
  std::vector<uint64_t> Slice = hashProcessSlices(*P, CFG);
  ReachingDefsOptions RDOpts;
  WaitAggregates Agg = computeWaitAggregates(CFG, Cold.Active, RDOpts);
  ProcessArtifactTable Writer;
  analyzeInformationFlow(*P, CFG, {}, &Writer);
  std::vector<std::pair<uint64_t, std::shared_ptr<const RdProcessArtifact>>>
      Filed;
  for (const ProcessCFG &PC : CFG.processes()) {
    unsigned Id = PC.ProcessId;
    HashBuilder Rdpr;
    Rdpr.str("rdpr").u64(Slice[Id]);
    hashBitSet(Rdpr, Agg.OthersMay[Id]);
    hashBitSet(Rdpr, Agg.OthersMust[Id]);
    Rdpr.boolean(RDOpts.UseMustActiveKill)
        .boolean(RDOpts.HsiehLevitanCrossFlow)
        .boolean(false);
    for (uint64_t Key :
         {HashBuilder().str("actv").u64(Slice[Id]).boolean(false).value(),
          Rdpr.value()}) {
      std::shared_ptr<const RdProcessArtifact> A = Writer.find(Key);
      ASSERT_NE(A, nullptr) << "nothing filed under process " << Id << "'s key";
      Filed.emplace_back(Key, std::move(A));
    }
  }

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
    ProcessArtifactTable Table;
    for (const auto &[Key, A] : Filed) {
      RdProcessArtifact Copy = *A;
      Tamper(Copy);
      Table.insert(Key,
                   std::make_shared<const RdProcessArtifact>(std::move(Copy)));
    }
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

// tests/inputs/store-v3 holds what `vifc flows --store` wrote for smoke.vhd
// and corpus/gen_2.vhd (6 processes) in store format 3, whose design
// blobs carry RMgl's Table 8 rows as words. The store format promises
// that such a store keeps serving: every design blob re-encodes to the
// same bytes, and a fresh run finds both designs in it. The store-v3
// directory also holds the per-process actv/rdpr blobs its writer
// persisted; they are kept as written, and nothing reads them.
// tests/inputs/store-v2 and tests/inputs/store hold the same designs in
// format 2 (9-byte matrix entries) and format 1 (dense matrices): every
// blob of them must read as a clean miss.
const std::string GoldenStore = std::string(VIFC_INPUTS_DIR) + "/store-v3";
const std::string FormatTwoStore = std::string(VIFC_INPUTS_DIR) + "/store-v2";
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
    if (K == "actv" || K == "rdpr") {
      ++PerProcess;
      continue;
    }
    const char Kind[5] = {K[0], K[1], K[2], K[3], '\0'};
    std::string Payload, Again;
    ASSERT_TRUE(Store.load(Kind, Key, Payload)) << File;
    ASSERT_EQ(K, "dsgn") << File;
    IFAResult R;
    ASSERT_TRUE(decodeDesignArtifact(Payload, R.RMlo, R.RMgl, R.Graph));
    Again = encodeDesignArtifact(R);
    ++Designs;
    EXPECT_EQ(Again, Payload) << File;
    // The envelope (header, checksum) is byte-identical too.
    Copy.store(Kind, Key, Again);
    EXPECT_EQ(readFile(Out.Path + "/" + File.filename().string()),
              readFile(File.string()))
        << File;
  }
  EXPECT_EQ(PerProcess, 14u); // 1 + 6 processes, Tables 4 and 5, unread
  EXPECT_EQ(Designs, 2u);
  EXPECT_EQ(Store.counters().Misses, 0u);
}

/// What serveFromCopy saw of the store.
struct Served {
  IncrementalStats Stats;           ///< how the session ran Tables 4 and 5
  ArtifactStore::Counters Counters; ///< the store, after the session
  size_t Misses = 0;                ///< the artifact table's misses
  bool Partial = false; ///< the session's flow request came from a dsgn blob
};

/// Runs \p Input over a copy of the store in \p Dir, through a fresh
/// artifact table, checking the answers against a cold run.
Served serveFromCopy(const std::string &Dir, const char *Input) {
  std::string Source = readFile(std::string(VIFC_INPUTS_DIR) + "/" + Input);
  TempStoreDir Copy; // so a miss could never write into the tree
  for (const std::filesystem::path &File : goldenFiles(Dir))
    std::filesystem::copy_file(File,
                               Copy.Path + "/" + File.filename().string());
  AnalysisSession Cold = AnalysisSession::fromSource(Input, Source);

  ArtifactStore Store(Copy.Path);
  ProcessArtifactTable Table;
  AnalysisSession S = AnalysisSession::fromSource(Input, Source);
  S.setArtifacts(&Table, &Store);
  EXPECT_EQ(renderIfa(S), renderIfa(Cold)) << Input;
  Served Out;
  Out.Stats = S.incrementalStats();
  Out.Counters = Store.counters();
  Out.Misses = Table.misses();
  Out.Partial = S.ifaPartial();
  return Out;
}

TEST(GoldenStore, ServedAsAllHits) {
  // Both designs come back as dsgn hits: no solver runs, and the bytes
  // read are exactly the two design blobs', so none of the per-process
  // files beside them is opened.
  uint64_t DesignBytes = 0;
  for (const std::filesystem::path &File : goldenFiles(GoldenStore))
    if (blobName(File).first == "dsgn")
      DesignBytes += std::filesystem::file_size(File);
  ArtifactStore::Counters Sum;
  for (const char *Input : {"smoke.vhd", "corpus/gen_2.vhd"}) {
    Served S = serveFromCopy(GoldenStore, Input);
    EXPECT_EQ(S.Stats.ActiveSolved, 0u) << Input;
    EXPECT_EQ(S.Stats.RdSolved, 0u) << Input;
    EXPECT_EQ(S.Misses, 0u) << Input;
    EXPECT_TRUE(S.Partial) << Input;
    Sum.Hits += S.Counters.Hits;
    Sum.Misses += S.Counters.Misses;
    Sum.Writes += S.Counters.Writes;
    Sum.BytesRead += S.Counters.BytesRead;
  }
  EXPECT_EQ(Sum.Hits, 2u);
  EXPECT_EQ(Sum.Misses, 0u);
  EXPECT_EQ(Sum.Writes, 0u);
  EXPECT_EQ(Sum.BytesRead, DesignBytes);
}

/// Every blob of the old-format store in \p Dir reads as a miss, and a
/// run over it re-solves everything, right.
void expectCleanMisses(const std::string &Dir) {
  ArtifactStore Store(Dir);
  size_t Files = 0;
  for (const std::filesystem::path &File : goldenFiles(Dir)) {
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
    Served S = serveFromCopy(Dir, Input);
    EXPECT_EQ(S.Stats.ActiveReused + S.Stats.RdReused, 0u) << Input;
    EXPECT_EQ(S.Counters.Hits, 0u) << Input;
    EXPECT_FALSE(S.Partial) << Input;
  }
}

TEST(GoldenStore, FormatOneBlobsAreCleanMisses) {
  expectCleanMisses(FormatOneStore);
}

TEST(GoldenStore, FormatTwoBlobsAreCleanMisses) {
  expectCleanMisses(FormatTwoStore);
}

} // namespace
