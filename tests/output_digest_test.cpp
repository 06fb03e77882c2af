//===- tests/output_digest_test.cpp - Byte-identity of emitted output -----===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the exact bytes the serialization tail emits for a few workloads:
/// the `--json` batch document in both styles (timings zeroed), the v1b
/// frame and the store's encoded design blob. The digests were recorded
/// from the writer and the comparison-sort graph views this output path
/// had before the linear-time rewrite, so any change of bytes — an edge
/// out of order, a chunk boundary mishandled, an escape rendered
/// differently — fails here. The blob digests are of store format 3 (a
/// format change re-pins them, and only them). chainStatements(300)
/// emits more than 64 KB of JSON, so its documents cross the stream
/// writer's chunk boundaries. independentCopies(256) and the blob of
/// chainStatements(1024) pin the flow graph's node ids and edge storage
/// order on the sparse and the dense shape.
///
//===----------------------------------------------------------------------===//

#include "driver/AnalysisSession.h"
#include "driver/ArtifactStore.h"
#include "driver/Batch.h"
#include "driver/Serialize.h"
#include "driver/V1b.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "workloads/AesVhdl.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

using namespace vif;
using namespace vif::driver;

namespace {

std::string digest(std::string_view Bytes) {
  return HashBuilder().str(Bytes).hex();
}

struct Digests {
  std::string Pretty, Compact, V1b;
  size_t PrettyBytes = 0;
};

/// The batch document (both styles) and the v1b frame of one flows
/// result, with every timing zeroed so the bytes are deterministic.
Digests outputDigests(DesignResult D, const BatchOptions &Opts) {
  D.Timings = StageTimings();
  BatchResult R;
  R.NumOk = D.Ok ? 1 : 0;
  R.NumFailed = D.Ok ? 0 : 1;
  R.Designs.push_back(std::move(D));
  Digests Out;
  std::ostringstream Pretty, Compact;
  writeBatchDocument(Pretty, R, Opts, JsonStyle::Pretty);
  writeBatchDocument(Compact, R, Opts, JsonStyle::Compact);
  Out.PrettyBytes = Pretty.str().size();
  Out.Pretty = digest(Pretty.str());
  Out.Compact = digest(Compact.str());
  std::string Frame;
  writeV1bDesign(Frame, R.Designs.front(), Opts, "7");
  Out.V1b = digest(Frame);
  return Out;
}

struct Expected {
  const char *Pretty, *Compact, *V1b, *Blob;
};

/// Checks every digest of one workload; returns the Pretty document's
/// size.
size_t expectDigests(const std::string &Name, const std::string &Source,
                     bool Statements, const Expected &Want) {
  BatchOptions Opts;
  Opts.Mode = BatchMode::Flows;
  Opts.Session.Statements = Statements;
  Opts.CaptureRenderedText = false;
  DesignResult D = analyzeDesign(BatchInput{Name, Source}, Opts);
  EXPECT_TRUE(D.Ok) << D.Diagnostics;
  Digests Got = outputDigests(std::move(D), Opts);
  EXPECT_EQ(Got.Pretty, Want.Pretty) << Name << " pretty";
  EXPECT_EQ(Got.Compact, Want.Compact) << Name << " compact";
  EXPECT_EQ(Got.V1b, Want.V1b) << Name << " v1b";

  AnalysisSession S = AnalysisSession::fromSource(Name, Source, Opts.Session);
  const IFAResult *R = S.ifa();
  EXPECT_NE(R, nullptr);
  if (R) {
    EXPECT_EQ(digest(encodeDesignArtifact(*R)), Want.Blob) << Name << " blob";
  }
  return Got.PrettyBytes;
}

TEST(OutputDigest, ChainCrossesChunkBoundaries) {
  size_t Bytes = expectDigests("chain300", workloads::chainStatements(300),
                               true,
                               {"1b8b665cb7b5ec9b", "975849529f53a90a",
                                "5b8426c119c126b8", "74cd5085dc23cfb1"});
  EXPECT_GT(Bytes, size_t(4) << 16);
}

TEST(OutputDigest, Pipeline) {
  expectDigests("pipeline64", workloads::pipelineDesign(64), false,
                {"ffe95c57eef231c3", "cf03601726de9d19", "4f828c551289a42d",
                 "98e0f0adadfe6df5"});
}

TEST(OutputDigest, AesCore) {
  expectDigests("aes1", workloads::aesCoreDesign(1), false,
                {"cb67388a0228ceb9", "471a9d21f4b4b6c0", "48a9004c0a3ac0a5",
                 "7dd1344983c716d2"});
}

TEST(OutputDigest, SparseRows) {
  // Each statement copies one variable into another, so every row of the
  // flow graph holds one edge among 512 nodes: the sparse shape.
  expectDigests("copies256", workloads::independentCopies(256), true,
                {"add70bfb03a9c818", "c336f5de3b148988", "cef78679d09a4929",
                 "254a9e0d01ab025a"});
}

TEST(OutputDigest, DenseRowsBlob) {
  // chainStatements(1024) is the dense transitive shape (524 800 edges):
  // its blob pins the node ids and the edge storage order the extraction
  // writes. The documents are 42 MB, so only the blob is pinned here.
  BatchOptions Opts;
  Opts.Session.Statements = true;
  AnalysisSession S = AnalysisSession::fromSource(
      "chain1024", workloads::chainStatements(1024), Opts.Session);
  const IFAResult *R = S.ifa();
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Graph.numEdges(), 524800u);
  EXPECT_EQ(digest(encodeDesignArtifact(*R)), "5bc2f4ded92311b5");
}

TEST(OutputDigest, EscapedNodeNamesThroughTheEdgeTable) {
  // Names that need every kind of escape, UTF-8 that must pass through,
  // and names whose order differs from their ids (x_10 < x_2).
  Digraph G;
  G.addEdge("x_2", "q\"uote");
  G.addEdge("x_10", "back\\slash");
  G.addEdge("tab\there", "x_2");
  G.addEdge("ctl\x01", "n\xe2\x97\xa6");
  G.addEdge("x_10", "x_2");
  G.addEdge("x_2", "x_10");
  G.addNode("isolated\n");
  G.ensureSortedViews();
  DesignResult D;
  D.Name = "escapes \"here\"";
  D.Ok = true;
  D.NumNodes = G.numNodes();
  D.NumEdges = G.numEdges();
  D.Graph = &G;
  BatchOptions Opts;
  Opts.Mode = BatchMode::Flows;
  Digests Got = outputDigests(std::move(D), Opts);
  EXPECT_EQ(Got.Pretty, "4ce6d6de10fb2001");
  EXPECT_EQ(Got.Compact, "68640688ac357234");
  EXPECT_EQ(Got.V1b, "ab0dce9cdbd6db1e");
}

} // namespace
