//===- tests/driver_test.cpp - Driver layer: sessions and batches ---------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "driver/AnalysisSession.h"
#include "driver/Batch.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace vif;
using namespace vif::driver;

namespace {

const char MuxSource[] = R"(
entity mux is port(d0 : in std_logic; d1 : in std_logic;
                   sel : in std_logic; q : out std_logic); end mux;
architecture rtl of mux is
begin
  p : process
  begin
    if sel = '1' then
      q <= d1;
    else
      q <= d0;
    end if;
    wait on d0, d1, sel;
  end process p;
end rtl;
)";

const char RegSource[] = R"(
entity reg is port(d : in std_logic; q : out std_logic); end reg;
architecture rtl of reg is
begin
  p : process
  begin
    q <= d;
    wait on d;
  end process p;
end rtl;
)";

TEST(AnalysisSession, ArtifactsAreCachedPointerIdentical) {
  AnalysisSession S = AnalysisSession::fromSource("mux", MuxSource);
  const std::string *Src = S.source();
  ASSERT_NE(Src, nullptr);
  EXPECT_EQ(Src, S.source());

  const ElaboratedProgram *P = S.program();
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P, S.program());
  EXPECT_EQ(P->Signals.size(), 4u);

  const ProgramCFG *C = S.cfg();
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C, S.cfg());

  const IFAResult *R = S.ifa();
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R, S.ifa());
  EXPECT_TRUE(R->Graph.hasEdge("sel", "q"));

  EXPECT_EQ(S.reachingDefs(), &R->RD);

  const KemmererResult *K = S.kemmerer();
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(K, S.kemmerer());

  const AlfpClosureResult *A = S.alfp();
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A, S.alfp());
  EXPECT_TRUE(A->Solved);
  EXPECT_TRUE(A->RMgl == R->RMgl) << "ALFP closure must agree with native";
}

TEST(AnalysisSession, StatementPrograms) {
  SessionOptions Opts;
  Opts.Statements = true;
  AnalysisSession S =
      AnalysisSession::fromSource("paper-a", "c := b; b := a;", Opts);
  const IFAResult *R = S.ifa();
  ASSERT_NE(R, nullptr);
  // The paper's example (a): b flows to c and a to b, but a never to c.
  EXPECT_TRUE(R->Graph.hasEdge("b", "c"));
  EXPECT_TRUE(R->Graph.hasEdge("a", "b"));
  EXPECT_FALSE(R->Graph.hasEdge("a", "c"));
}

TEST(AnalysisSession, ParseErrorFailsOnceWithoutDuplicateDiagnostics) {
  AnalysisSession S =
      AnalysisSession::fromSource("broken", "entity broken is port(");
  EXPECT_EQ(S.program(), nullptr);
  EXPECT_FALSE(S.unreadable());
  size_t Reported = S.diagnostics().all().size();
  EXPECT_GT(Reported, 0u);
  // A failed stage is cached like a successful one: no re-parse, no
  // duplicated diagnostics, downstream stages stay null.
  EXPECT_EQ(S.program(), nullptr);
  EXPECT_EQ(S.ifa(), nullptr);
  EXPECT_EQ(S.kemmerer(), nullptr);
  EXPECT_EQ(S.alfp(), nullptr);
  EXPECT_EQ(S.diagnostics().all().size(), Reported);
}

TEST(AnalysisSession, MissingFileIsUnreadable) {
  AnalysisSession S =
      AnalysisSession::fromFile("/nonexistent/definitely-missing.vhd");
  EXPECT_EQ(S.source(), nullptr);
  EXPECT_EQ(S.program(), nullptr);
  EXPECT_TRUE(S.unreadable());
  EXPECT_TRUE(S.diagnostics().empty());
}

TEST(AnalysisSession, TimingsAccumulateForComputedStages) {
  AnalysisSession S = AnalysisSession::fromSource("mux", MuxSource);
  ASSERT_NE(S.ifa(), nullptr);
  const StageTimings &T = S.timings();
  EXPECT_GT(T.totalMs(), 0.0);
  EXPECT_EQ(T.KemmererMs, 0.0) << "unrequested stages must not run";
}

TEST(Batch, KeepsGoingPastFailuresAndPreservesOrder) {
  std::vector<BatchInput> Inputs = {
      {"good-mux", MuxSource},
      {"broken", std::string("entity broken is port(")},
      {"good-reg", RegSource},
  };
  BatchOptions Opts;
  Opts.Mode = BatchMode::Flows;
  Opts.Jobs = 2;
  BatchResult R = runBatch(Inputs, Opts);

  ASSERT_EQ(R.Designs.size(), 3u);
  EXPECT_EQ(R.Designs[0].Name, "good-mux");
  EXPECT_EQ(R.Designs[1].Name, "broken");
  EXPECT_EQ(R.Designs[2].Name, "good-reg");

  EXPECT_TRUE(R.Designs[0].Ok);
  EXPECT_EQ(R.Designs[0].NumEdges, 3u);
  EXPECT_FALSE(R.Designs[1].Ok);
  EXPECT_FALSE(R.Designs[1].Diagnostics.empty());
  EXPECT_TRUE(R.Designs[2].Ok);
  EXPECT_EQ(R.Designs[2].NumEdges, 1u);

  EXPECT_EQ(R.NumOk, 2u);
  EXPECT_EQ(R.NumFailed, 1u);
  EXPECT_FALSE(R.allOk());
}

TEST(Batch, FlowMethodsAgreeOnEdgeCounts) {
  std::vector<BatchInput> Inputs = {{"mux", MuxSource}};
  BatchOptions Opts;
  Opts.Mode = BatchMode::Flows;
  size_t Native = 0;
  for (FlowMethod M :
       {FlowMethod::Native, FlowMethod::Alfp, FlowMethod::Kemmerer}) {
    Opts.Method = M;
    BatchResult R = runBatch(Inputs, Opts);
    ASSERT_TRUE(R.Designs[0].Ok) << flowMethodName(M);
    if (M == FlowMethod::Native)
      Native = R.Designs[0].NumEdges;
    else if (M == FlowMethod::Alfp)
      EXPECT_EQ(R.Designs[0].NumEdges, Native);
    else
      EXPECT_GE(R.Designs[0].NumEdges, Native)
          << "Kemmerer over-approximates";
  }
}

TEST(Batch, ReportModeEvaluatesPolicy) {
  std::vector<BatchInput> Inputs = {{"mux", MuxSource}};
  BatchOptions Opts;
  Opts.Mode = BatchMode::Report;
  Opts.Policy.Forbidden.push_back({"d1", "q"});
  BatchResult R = runBatch(Inputs, Opts);
  ASSERT_TRUE(R.Designs[0].Ok);
  ASSERT_EQ(R.Designs[0].Violations.size(), 1u);
  EXPECT_EQ(R.Designs[0].Violations[0].From, "d1");
  EXPECT_EQ(R.Designs[0].Violations[0].To, "q");
  EXPECT_EQ(R.NumViolations, 1u);
  EXPECT_FALSE(R.Designs[0].ReportText.empty());
}

TEST(Batch, JsonRenderingCarriesPerDesignStatus) {
  std::vector<BatchInput> Inputs = {
      {"good", MuxSource}, {"broken", std::string("entity (")}};
  BatchOptions Opts;
  Opts.Mode = BatchMode::Flows;
  BatchResult R = runBatch(Inputs, Opts);
  std::ostringstream OS;
  printBatchJson(OS, R, Opts);
  std::string J = OS.str();
  EXPECT_NE(J.find("\"command\": \"flows\""), std::string::npos);
  EXPECT_NE(J.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(J.find("\"status\": \"error\""), std::string::npos);
  EXPECT_NE(J.find("\"from\": \"sel\""), std::string::npos);
  EXPECT_NE(J.find("\"summary\""), std::string::npos);
}

TEST(Batch, MatricesModeCountsEntries) {
  std::vector<BatchInput> Inputs = {{"mux", MuxSource}};
  BatchOptions Opts;
  Opts.Mode = BatchMode::Matrices;
  BatchResult R = runBatch(Inputs, Opts);
  ASSERT_TRUE(R.Designs[0].Ok);
  EXPECT_GT(R.Designs[0].RMloEntries, 0u);
  EXPECT_GE(R.Designs[0].RMglEntries, R.Designs[0].RMloEntries);
  // The matrices are borrowed, not rendered: they stay readable after
  // the batch and print as many lines as they count entries.
  ASSERT_NE(R.Designs[0].RMgl, nullptr);
  EXPECT_EQ(R.Designs[0].RMgl->size(), R.Designs[0].RMglEntries);
  std::ostringstream OS;
  printDesignText(OS, R.Designs[0], Opts, /*Shape=*/false);
  std::string Text = OS.str();
  EXPECT_EQ(static_cast<size_t>(std::count(Text.begin(), Text.end(), '\n')),
            2 + R.Designs[0].RMloEntries + R.Designs[0].RMglEntries);
}

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(jsonEscape("s◦"), "s◦") << "UTF-8 passes through";
}

TEST(Json, WriterNestsAndSeparates) {
  std::ostringstream OS;
  JsonWriter J(OS);
  J.beginObject();
  J.member("a", 1);
  J.key("b");
  J.beginArray();
  J.value("x");
  J.value(true);
  J.null();
  J.endArray();
  J.key("c");
  J.beginObject();
  J.endObject();
  J.endObject();
  EXPECT_EQ(OS.str(), "{\n  \"a\": 1,\n  \"b\": [\n    \"x\",\n    true,\n"
                      "    null\n  ],\n  \"c\": {}\n}\n");
}

} // namespace
