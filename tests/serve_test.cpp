//===- tests/serve_test.cpp - vifc serve protocol end-to-end --------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives driver::Server in-process: multi-request sessions, cache-hit
/// assertions, malformed-request error objects, the fd transport over a
/// socketpair, and a schema-conformance sweep that checks every document
/// the serializers can emit against the field list documented in
/// docs/SCHEMA.md.
///
//===----------------------------------------------------------------------===//

#include "driver/ArtifactStore.h"
#include "driver/Serialize.h"
#include "driver/Serve.h"
#include "driver/V1b.h"
#include "gen/Generator.h"
#include "support/JsonParse.h"
#include "workloads/AesVhdl.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace vif;
using namespace vif::driver;

namespace {

const char MuxSource[] =
    "entity mux is port(d0 : in std_logic; d1 : in std_logic;"
    " sel : in std_logic; q : out std_logic); end mux;"
    " architecture rtl of mux is begin p : process begin"
    " if sel = '1' then q <= d1; else q <= d0; end if;"
    " wait on d0, d1, sel; end process p; end rtl;";

/// Builds a {"schema","id","command","source"} request line.
std::string muxRequest(const std::string &Command, int Id,
                       const std::string &ExtraMembers = "") {
  std::ostringstream OS;
  OS << "{\"schema\":\"vifc.v1\",\"id\":" << Id << ",\"command\":\""
     << Command << "\",\"source\":\"" << jsonEscape(MuxSource) << "\"";
  if (!ExtraMembers.empty())
    OS << "," << ExtraMembers;
  OS << "}";
  return OS.str();
}

JsonValue parseResponse(const std::string &Line) {
  std::string Error;
  std::optional<JsonValue> V = parseJson(Line, &Error);
  EXPECT_TRUE(V.has_value()) << Line << " -> " << Error;
  EXPECT_EQ(Line.find('\n'), std::string::npos)
      << "responses must be single lines";
  return V ? *V : JsonValue();
}

std::string str(const JsonValue &Doc, const char *Key) {
  const JsonValue *V = Doc.find(Key);
  return V && V->isString() ? V->asString() : std::string();
}

TEST(Serve, PingStatsShutdown) {
  Server S;
  JsonValue Ping = parseResponse(
      S.handleLine(R"({"schema":"vifc.v1","id":"p1","command":"ping"})"));
  EXPECT_EQ(str(Ping, "status"), "ok");
  EXPECT_EQ(str(Ping, "command"), "ping");
  EXPECT_EQ(str(Ping, "id"), "p1");
  EXPECT_EQ(str(Ping, "schema"), "vifc.v1");

  JsonValue Stats =
      parseResponse(S.handleLine(R"({"command":"stats"})"));
  EXPECT_EQ(str(Stats, "status"), "ok");
  EXPECT_DOUBLE_EQ(Stats.find("requests")->asNumber(), 2.0);
  ASSERT_NE(Stats.find("cache"), nullptr);
  EXPECT_DOUBLE_EQ(Stats.find("cache")->find("misses")->asNumber(), 0.0);

  EXPECT_FALSE(S.shuttingDown());
  JsonValue Bye =
      parseResponse(S.handleLine(R"({"command":"shutdown"})"));
  EXPECT_EQ(str(Bye, "status"), "ok");
  EXPECT_TRUE(S.shuttingDown());
}

TEST(Serve, FlowsThenCacheHit) {
  Server S;
  JsonValue First = parseResponse(S.handleLine(muxRequest("flows", 1)));
  EXPECT_EQ(str(First, "status"), "ok");
  EXPECT_EQ(str(First, "command"), "flows");
  EXPECT_EQ(str(First, "method"), "native");
  EXPECT_FALSE(First.find("cacheHit")->asBool());
  const JsonValue *Graph = First.find("graph");
  ASSERT_NE(Graph, nullptr);
  EXPECT_DOUBLE_EQ(Graph->find("edges")->asNumber(), 3.0);
  bool SawImplicit = false;
  for (const JsonValue &E : Graph->find("edgeList")->elements())
    SawImplicit |= str(E, "from") == "sel" && str(E, "to") == "q";
  EXPECT_TRUE(SawImplicit) << "implicit flow sel -> q missing";

  // Same source again: answered from the warm session.
  JsonValue Second = parseResponse(S.handleLine(muxRequest("flows", 2)));
  EXPECT_EQ(str(Second, "status"), "ok");
  EXPECT_TRUE(Second.find("cacheHit")->asBool());
  EXPECT_EQ(S.cache().stats().Hits, 1u);
  EXPECT_EQ(S.cache().stats().Misses, 1u);

  // A different command over the same source extends the same session:
  // still a hit, no new entry.
  JsonValue Rm = parseResponse(S.handleLine(muxRequest("rm", 3)));
  EXPECT_EQ(str(Rm, "status"), "ok");
  EXPECT_TRUE(Rm.find("cacheHit")->asBool());
  ASSERT_NE(Rm.find("matrices"), nullptr);
  EXPECT_GT(Rm.find("matrices")->find("rmgl")->asNumber(), 0.0);
  EXPECT_EQ(S.cache().size(), 1u);
}

TEST(Serve, QueryAnswersFromWarmSession) {
  Server S;
  JsonValue First = parseResponse(S.handleLine(muxRequest(
      "query", 1, R"("options":{"from":"sel","to":"q"})")));
  EXPECT_EQ(str(First, "status"), "ok") << str(First, "diagnostics");
  EXPECT_EQ(str(First, "command"), "query");
  EXPECT_EQ(First.find("method"), nullptr) << "query has no method member";
  EXPECT_FALSE(First.find("cacheHit")->asBool());
  const JsonValue *Q = First.find("query");
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(str(*Q, "from"), "sel");
  EXPECT_EQ(str(*Q, "to"), "q");
  EXPECT_TRUE(Q->find("reaches")->asBool()) << "implicit flow sel -> q";
  const JsonValue *Witness = Q->find("witness");
  ASSERT_NE(Witness, nullptr);
  ASSERT_GE(Witness->elements().size(), 2u);
  EXPECT_EQ(str(Witness->elements().front(), "node"), "sel");
  EXPECT_EQ(str(Witness->elements().back(), "node"), "q");
  for (const JsonValue &Step : Witness->elements()) {
    EXPECT_FALSE(str(Step, "resource").empty());
    EXPECT_FALSE(str(Step, "kind").empty());
  }
  ASSERT_NE(Q->find("reachableFrom"), nullptr);
  ASSERT_NE(Q->find("whatReaches"), nullptr);
  EXPECT_EQ(Q->find("whatReaches")->elements().size(), 3u)
      << "d0, d1 and sel all reach q";

  // Same source, other direction: the warm session answers (one Hit) and
  // a negative result carries no witness array.
  JsonValue Second = parseResponse(S.handleLine(muxRequest(
      "query", 2, R"("options":{"from":"q","to":"sel"})")));
  EXPECT_EQ(str(Second, "status"), "ok");
  EXPECT_TRUE(Second.find("cacheHit")->asBool());
  EXPECT_EQ(S.cache().stats().Hits, 1u);
  EXPECT_EQ(S.cache().stats().Misses, 1u);
  const JsonValue *Q2 = Second.find("query");
  ASSERT_NE(Q2, nullptr);
  EXPECT_FALSE(Q2->find("reaches")->asBool());
  EXPECT_EQ(Q2->find("witness"), nullptr);
  EXPECT_TRUE(Q2->find("reachableFrom")->elements().empty());

  // Unknown node names are a negative answer, not an error.
  JsonValue Third = parseResponse(S.handleLine(muxRequest(
      "query", 3, R"("options":{"from":"nosuch","to":"q"})")));
  EXPECT_EQ(str(Third, "status"), "ok");
  EXPECT_FALSE(Third.find("query")->find("reaches")->asBool());
}

TEST(Serve, QueryOptionValidation) {
  Server S;
  // from/to are mandatory for query...
  JsonValue NoOpts = parseResponse(S.handleLine(muxRequest("query", 1)));
  EXPECT_EQ(str(*NoOpts.find("error"), "code"), "bad-request");
  JsonValue OnlyFrom = parseResponse(S.handleLine(
      muxRequest("query", 2, R"("options":{"from":"sel"})")));
  EXPECT_EQ(str(*OnlyFrom.find("error"), "code"), "bad-request");
  EXPECT_NE(str(*OnlyFrom.find("error"), "message").find("to"),
            std::string::npos);
  // ...must be strings...
  JsonValue BadType = parseResponse(S.handleLine(
      muxRequest("query", 3, R"("options":{"from":1,"to":"q"})")));
  EXPECT_EQ(str(*BadType.find("error"), "code"), "bad-request");
  // ...and apply to no other command.
  JsonValue OnFlows = parseResponse(S.handleLine(
      muxRequest("flows", 4, R"("options":{"from":"sel","to":"q"})")));
  EXPECT_EQ(str(*OnFlows.find("error"), "code"), "bad-request");
  EXPECT_NE(str(*OnFlows.find("error"), "message").find("query"),
            std::string::npos);

  // Validation failures leave the server serving.
  JsonValue Ok = parseResponse(S.handleLine(muxRequest(
      "query", 5, R"("options":{"from":"sel","to":"q"})")));
  EXPECT_EQ(str(Ok, "status"), "ok");
}

TEST(Serve, IdEchoRoundTrips) {
  Server S;
  // Large integral ids must echo exactly, not through %.6g mangling.
  JsonValue Big = parseResponse(
      S.handleLine(R"({"id":12345678,"command":"ping"})"));
  ASSERT_NE(Big.find("id"), nullptr);
  EXPECT_DOUBLE_EQ(Big.find("id")->asNumber(), 12345678.0);
  EXPECT_NE(S.handleLine(R"({"id":12345678,"command":"ping"})")
                .find("\"id\":12345678"),
            std::string::npos);

  JsonValue Str = parseResponse(
      S.handleLine(R"({"id":"req-0042","command":"ping"})"));
  EXPECT_EQ(str(Str, "id"), "req-0042");

  JsonValue Null = parseResponse(
      S.handleLine(R"({"id":null,"command":"ping"})"));
  ASSERT_NE(Null.find("id"), nullptr);
  EXPECT_TRUE(Null.find("id")->isNull());
}

TEST(Serve, MalformedAndInvalidRequests) {
  Server S;

  JsonValue NotJson = parseResponse(S.handleLine("this is not json"));
  EXPECT_EQ(str(NotJson, "status"), "error");
  EXPECT_EQ(str(*NotJson.find("error"), "code"), "parse-error");

  JsonValue NotObject = parseResponse(S.handleLine("[1,2,3]"));
  EXPECT_EQ(str(*NotObject.find("error"), "code"), "bad-request");

  JsonValue BadSchema = parseResponse(
      S.handleLine(R"({"schema":"vifc.v9","command":"ping"})"));
  EXPECT_EQ(str(*BadSchema.find("error"), "code"), "unsupported-schema");

  JsonValue NoCommand = parseResponse(S.handleLine(R"({"id":1})"));
  EXPECT_EQ(str(*NoCommand.find("error"), "code"), "bad-request");

  JsonValue BadCommand = parseResponse(
      S.handleLine(R"({"command":"explode"})"));
  EXPECT_EQ(str(*BadCommand.find("error"), "code"), "bad-request");
  EXPECT_NE(str(*BadCommand.find("error"), "message").find("explode"),
            std::string::npos);

  JsonValue UnknownMember = parseResponse(
      S.handleLine(R"({"command":"ping","frobnicate":1})"));
  EXPECT_EQ(str(*UnknownMember.find("error"), "code"), "bad-request");

  // Last-one-wins on duplicates would silently analyze the wrong input;
  // the strict contract rejects them instead.
  JsonValue DupMember = parseResponse(S.handleLine(
      R"({"command":"check","path":"a.vhd","path":"b.vhd"})"));
  EXPECT_EQ(str(*DupMember.find("error"), "code"), "bad-request");
  EXPECT_NE(str(*DupMember.find("error"), "message").find("duplicate"),
            std::string::npos);
  JsonValue DupOption = parseResponse(S.handleLine(muxRequest(
      "flows", 6, R"("options":{"improved":true,"improved":false})")));
  EXPECT_EQ(str(*DupOption.find("error"), "code"), "bad-request");

  JsonValue NoInput = parseResponse(S.handleLine(R"({"command":"flows"})"));
  EXPECT_EQ(str(*NoInput.find("error"), "code"), "bad-request");

  JsonValue BothInputs = parseResponse(S.handleLine(
      R"({"command":"flows","path":"a.vhd","source":"entity..."})"));
  EXPECT_EQ(str(*BothInputs.find("error"), "code"), "bad-request");

  JsonValue StdinPath = parseResponse(
      S.handleLine(R"({"command":"check","path":"-"})"));
  EXPECT_EQ(str(*StdinPath.find("error"), "code"), "bad-request");

  JsonValue BadId = parseResponse(
      S.handleLine(R"({"command":"ping","id":[1]})"));
  EXPECT_EQ(str(*BadId.find("error"), "code"), "bad-request");

  JsonValue MethodOnCheck = parseResponse(S.handleLine(
      muxRequest("check", 7, R"("options":{"method":"alfp"})")));
  EXPECT_EQ(str(*MethodOnCheck.find("error"), "code"), "bad-request");

  JsonValue BadOption = parseResponse(S.handleLine(
      muxRequest("flows", 8, R"("options":{"imprved":true})")));
  EXPECT_NE(str(*BadOption.find("error"), "message").find("imprved"),
            std::string::npos);

  // Protocol errors must not poison the server: it still answers.
  JsonValue Ok = parseResponse(S.handleLine(muxRequest("check", 9)));
  EXPECT_EQ(str(Ok, "status"), "ok");
}

TEST(Serve, AnalysisFailureIsAResultNotAProtocolError) {
  Server S;
  JsonValue R = parseResponse(S.handleLine(
      R"({"command":"check","source":"entity broken is port("})"));
  EXPECT_EQ(str(R, "status"), "error");
  EXPECT_EQ(R.find("error"), nullptr) << "not a protocol error";
  EXPECT_FALSE(str(R, "diagnostics").empty());

  JsonValue Missing = parseResponse(S.handleLine(
      R"({"command":"check","path":"/nonexistent/missing.vhd"})"));
  EXPECT_EQ(str(Missing, "status"), "error");
  EXPECT_TRUE(Missing.find("unreadable")->asBool());
}

TEST(Serve, PathRequestsAndOptionSensitivity) {
  std::string Path = testing::TempDir() + "/serve_test_mux.vhd";
  {
    std::ofstream Out(Path);
    Out << MuxSource;
  }
  Server S;
  std::string Req = std::string(R"({"command":"flows","path":")") + Path +
                    "\"}";
  JsonValue First = parseResponse(S.handleLine(Req));
  EXPECT_EQ(str(First, "status"), "ok") << str(First, "diagnostics");
  EXPECT_EQ(str(First, "file"), Path);
  EXPECT_FALSE(First.find("cacheHit")->asBool());
  JsonValue Again = parseResponse(S.handleLine(Req));
  EXPECT_TRUE(Again.find("cacheHit")->asBool());

  // Different options over the same content: a distinct cache entry.
  std::string Improved =
      std::string(R"({"command":"flows","path":")") + Path +
      R"(","options":{"improved":true}})";
  JsonValue Third = parseResponse(S.handleLine(Improved));
  EXPECT_EQ(str(Third, "status"), "ok");
  EXPECT_FALSE(Third.find("cacheHit")->asBool());
  EXPECT_EQ(S.cache().size(), 2u);

  // Kemmerer over-approximates: at least as many edges, same session.
  std::string Kem = std::string(R"({"command":"flows","path":")") + Path +
                    R"(","options":{"method":"kemmerer"}})";
  JsonValue Fourth = parseResponse(S.handleLine(Kem));
  EXPECT_EQ(str(Fourth, "method"), "kemmerer");
  EXPECT_TRUE(Fourth.find("cacheHit")->asBool())
      << "method is not part of the cache key";
  EXPECT_GE(Fourth.find("graph")->find("edges")->asNumber(),
            First.find("graph")->find("edges")->asNumber());
  ::unlink(Path.c_str());
}

TEST(Serve, ReportEvaluatesPolicy) {
  Server S;
  JsonValue R = parseResponse(S.handleLine(muxRequest(
      "report", 1,
      R"("options":{"forbid":[{"from":"d1","to":"q"}]})")));
  EXPECT_EQ(str(R, "status"), "ok");
  const JsonValue *Violations = R.find("violations");
  ASSERT_NE(Violations, nullptr);
  ASSERT_EQ(Violations->elements().size(), 1u);
  EXPECT_EQ(str(Violations->elements()[0], "from"), "d1");
  EXPECT_EQ(str(Violations->elements()[0], "to"), "q");
}

TEST(Serve, ContentKeySourceByReference) {
  Server S;
  // An inline-source analysis echoes the source's content key...
  JsonValue First = parseResponse(S.handleLine(muxRequest("flows", 1)));
  EXPECT_EQ(str(First, "status"), "ok");
  std::string Key = str(First, "contentKey");
  ASSERT_EQ(Key.size(), 16u) << "contentKey is 16 hex digits";
  EXPECT_EQ(Key.find_first_not_of("0123456789abcdef"), std::string::npos);

  // ...which later requests may send instead of the source bytes.
  std::string ByRef =
      R"({"schema":"vifc.v1","id":2,"command":"flows","contentKey":")" +
      Key + "\"}";
  JsonValue Second = parseResponse(S.handleLine(ByRef));
  EXPECT_EQ(str(Second, "status"), "ok");
  EXPECT_TRUE(Second.find("cacheHit")->asBool());
  EXPECT_EQ(str(Second, "contentKey"), Key);
  EXPECT_DOUBLE_EQ(Second.find("graph")->find("edges")->asNumber(),
                   First.find("graph")->find("edges")->asNumber());

  // A "name" may label the by-reference request, like inline sources.
  std::string Named =
      R"({"command":"rm","name":"mux.vhd","contentKey":")" + Key + "\"}";
  JsonValue Third = parseResponse(S.handleLine(Named));
  EXPECT_EQ(str(Third, "status"), "ok");
  EXPECT_EQ(str(Third, "file"), "mux.vhd");

  // The same content sent inline again maps to the same key.
  JsonValue Fourth = parseResponse(S.handleLine(muxRequest("check", 4)));
  EXPECT_EQ(str(Fourth, "contentKey"), Key);
}

TEST(Serve, UnknownContentKeyIsAnError) {
  Server S;
  JsonValue R = parseResponse(S.handleLine(
      R"({"command":"flows","contentKey":"0123456789abcdef"})"));
  EXPECT_EQ(str(R, "status"), "error");
  EXPECT_EQ(str(*R.find("error"), "code"), "unknown-content-key");
  EXPECT_NE(str(*R.find("error"), "message").find("0123456789abcdef"),
            std::string::npos);

  // contentKey is an analysis input: exactly one of the three input
  // members, and meaningless on non-analysis commands.
  JsonValue Both = parseResponse(S.handleLine(
      R"({"command":"flows","source":"entity...","contentKey":"aa"})"));
  EXPECT_EQ(str(*Both.find("error"), "code"), "bad-request");
  JsonValue OnPing = parseResponse(S.handleLine(
      R"({"command":"ping","contentKey":"aa"})"));
  EXPECT_EQ(str(*OnPing.find("error"), "code"), "bad-request");
}

TEST(Serve, StoreBackedServerSurvivesRestart) {
  std::string Dir = testing::TempDir() + "serve_store_test";
  std::filesystem::remove_all(Dir);
  ServeOptions SO;
  SO.StoreDir = Dir;
  {
    Server S1(SO);
    ASSERT_NE(S1.artifactStore(), nullptr);
    JsonValue R = parseResponse(S1.handleLine(muxRequest("flows", 1)));
    EXPECT_EQ(str(R, "status"), "ok");
    EXPECT_GT(R.find("timings")->find("ifaMs")->asNumber(), 0.0);
    EXPECT_GE(S1.artifactStore()->counters().Writes, 1u);

    JsonValue Stats =
        parseResponse(S1.handleLine(R"({"command":"stats"})"));
    const JsonValue *Store = Stats.find("store");
    ASSERT_NE(Store, nullptr);
    EXPECT_GE(Store->find("writes")->asNumber(), 1.0);
    EXPECT_GT(Store->find("bytesWritten")->asNumber(), 0.0);
  }

  // A new server over the same directory answers without re-solving:
  // the ifa stage never runs, only store I/O time is charged.
  Server S2(SO);
  JsonValue Warm = parseResponse(S2.handleLine(muxRequest("flows", 2)));
  EXPECT_EQ(str(Warm, "status"), "ok");
  EXPECT_FALSE(Warm.find("cacheHit")->asBool());
  EXPECT_DOUBLE_EQ(Warm.find("timings")->find("ifaMs")->asNumber(), 0.0);
  EXPECT_GT(Warm.find("timings")->find("storeMs")->asNumber(), 0.0);
  EXPECT_DOUBLE_EQ(Warm.find("graph")->find("edges")->asNumber(), 3.0);
  EXPECT_GE(S2.artifactStore()->counters().Hits, 1u);
  std::filesystem::remove_all(Dir);
}

TEST(Serve, FdTransportOverSocketpair) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);

  std::string Payload = muxRequest("flows", 1) + "\n" +
                        muxRequest("flows", 2) + "\r\n" +
                        R"({"command":"shutdown"})" + "\n";
  ASSERT_EQ(::write(Fds[1], Payload.data(), Payload.size()),
            static_cast<ssize_t>(Payload.size()));
  ::shutdown(Fds[1], SHUT_WR);

  Server S;
  std::string Error;
  EXPECT_TRUE(S.serveFd(Fds[0], Fds[0], &Error)) << Error;
  EXPECT_TRUE(S.shuttingDown());
  // Close the server side first so the drain below sees EOF.
  ::close(Fds[0]);

  std::string Out;
  char Buf[65536];
  ssize_t N;
  while ((N = ::read(Fds[1], Buf, sizeof(Buf))) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  ::close(Fds[1]);

  std::istringstream Lines(Out);
  std::string Line;
  std::vector<JsonValue> Docs;
  while (std::getline(Lines, Line))
    if (!Line.empty())
      Docs.push_back(parseResponse(Line));
  ASSERT_EQ(Docs.size(), 3u);
  EXPECT_EQ(str(Docs[0], "status"), "ok");
  EXPECT_FALSE(Docs[0].find("cacheHit")->asBool());
  EXPECT_TRUE(Docs[1].find("cacheHit")->asBool()) << "warm across requests";
  EXPECT_EQ(str(Docs[2], "command"), "shutdown");
}

TEST(Serve, ConcurrentGeneratedDesignsMatchSerialReplay) {
  // N generated designs, analyzed once serially for the expected flow
  // edges, then pushed through one shared SessionCache from several
  // threads with every design requested by every thread. The per-entry
  // lock must serialize each lazy pipeline (each design computed exactly
  // once despite the collisions -> Misses == N) and every concurrent
  // answer must equal the serial one.
  constexpr size_t N = 12;
  constexpr size_t Threads = 6;
  std::vector<std::string> Sources;
  std::vector<Digraph> Expected;
  for (size_t I = 0; I < N; ++I) {
    Sources.push_back(gen::generateDesign(9000 + I));
    AnalysisSession S =
        AnalysisSession::fromSource("serial", Sources.back());
    const IFAResult *R = S.ifa();
    ASSERT_NE(R, nullptr) << "seed " << 9000 + I << "\n"
                          << S.diagnostics().str();
    Expected.push_back(R->Graph);
    // Build the lazy sorted views now: the workers only read them.
    Expected.back().ensureSortedViews();
  }

  SessionCache Cache(N); // capacity == N: no evictions in the mix
  std::atomic<size_t> Disagreements{0};
  std::vector<std::thread> Workers;
  for (size_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      // Walk all designs from a per-thread offset and stride, so
      // threads collide on the same entries in different orders.
      for (size_t Step = 0; Step < N; ++Step) {
        size_t I = (T + Step * (1 + T % 3)) % N;
        SessionCache::Ref R = Cache.acquire("g" + std::to_string(I),
                                            Sources[I], SessionOptions());
        const IFAResult *Ifa = R.session().ifa();
        if (!Ifa || !Ifa->Graph.sameFlows(Expected[I]))
          ++Disagreements;
      }
    });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Disagreements.load(), 0u);
  EXPECT_EQ(Cache.stats().Misses, N) << "each design computed exactly once";
  EXPECT_EQ(Cache.stats().Hits, Threads * N - N);
  EXPECT_EQ(Cache.stats().Evictions, 0u);
  EXPECT_EQ(Cache.size(), N);
}

//===----------------------------------------------------------------------===//
// Answers after the work tier is dropped
//===----------------------------------------------------------------------===//

struct TierInput {
  std::string Name;
  std::string Source;
  bool Statements = false;
};

/// Every .vhd under tests/inputs (corpus included), pipeline/64, the
/// generated designs 1-16 and the AES components.
std::vector<TierInput> tierInputs() {
  std::vector<TierInput> In;
  std::vector<std::filesystem::path> Files;
  for (const auto &E :
       std::filesystem::recursive_directory_iterator(VIFC_INPUTS_DIR))
    if (E.path().extension() == ".vhd")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const std::filesystem::path &F : Files) {
    std::ifstream IS(F, std::ios::binary);
    std::ostringstream SS;
    SS << IS.rdbuf();
    In.push_back({F.filename().string(), SS.str()});
  }
  In.push_back({"pipeline64", workloads::pipelineDesign(64)});
  for (uint64_t Seed = 1; Seed <= 16; ++Seed)
    In.push_back({"gen" + std::to_string(Seed), gen::generateDesign(Seed)});
  In.push_back({"shiftRows", workloads::shiftRowsStatements(), true});
  In.push_back({"addRoundKey", workloads::addRoundKeyStatements(), true});
  In.push_back({"subBytes", workloads::subBytesStatements(2), true});
  In.push_back({"mixColumns", workloads::mixColumnsStatements(), true});
  In.push_back({"shiftRowsDesign", workloads::shiftRowsDesign()});
  In.push_back({"leakyCore", workloads::leakyCoreDesign()});
  return In;
}

/// One answer as every renderer prints it: the diagnostics, the
/// single-design text, the v1b frame and the compact JSON document, with
/// timings zeroed and no cache fields.
std::string renderAnswer(DesignResult D, const BatchOptions &Opts) {
  std::ostringstream OS;
  OS << D.Ok << '\n' << D.Diagnostics;
  if (D.Ok)
    printDesignText(OS, D, Opts, /*Shape=*/true);
  BatchOptions Plain = Opts;
  Plain.Cache = nullptr;
  D.Timings = StageTimings();
  D.CacheHit = false;
  std::string Frame;
  writeV1bDesign(Frame, D, Plain);
  OS << Frame;
  BatchResult R;
  R.NumOk = D.Ok ? 1 : 0;
  R.NumFailed = D.Ok ? 0 : 1;
  R.Designs.push_back(std::move(D));
  writeBatchDocument(OS, R, Plain, JsonStyle::Compact);
  return OS.str();
}

/// The requests replayed on one entry: flows, then rm, report (with and
/// without its text), flows through Kemmerer and ALFP, query and check.
/// The ALFP engine is slow past about a thousand RMlo entries (seconds
/// on gen13 and gen16), so those inputs leave it out.
std::vector<BatchOptions> tierSteps(const TierInput &In) {
  BatchInput Input{In.Name, In.Source};
  BatchOptions Probe;
  Probe.Session.Statements = In.Statements;
  Probe.Mode = BatchMode::Matrices;
  DesignResult Rm = analyzeDesign(Input, Probe);
  // The query and the policy ask about the graph's first edge.
  Probe.Mode = BatchMode::Flows;
  DesignResult Flows = analyzeDesign(Input, Probe);
  std::string From = "none", To = "none";
  if (Flows.Graph && Flows.NumEdges) {
    bool First = true;
    Flows.Graph->forEachSortedEdge([&](std::string_view F, std::string_view T) {
      if (First)
        From = F, To = T;
      First = false;
    });
  }
  BatchOptions Base;
  Base.Session.Statements = In.Statements;
  std::vector<BatchOptions> Steps;
  auto Add = [&](BatchMode M, FlowMethod Method, bool Text) {
    BatchOptions O = Base;
    O.Mode = M;
    O.Method = Method;
    O.CaptureRenderedText = Text;
    O.QueryFrom = From;
    O.QueryTo = To;
    O.Policy.Forbidden.push_back({From, To});
    Steps.push_back(O);
  };
  Add(BatchMode::Flows, FlowMethod::Native, false);
  Add(BatchMode::Matrices, FlowMethod::Native, true);
  Add(BatchMode::Report, FlowMethod::Native, true);
  Add(BatchMode::Report, FlowMethod::Native, false);
  Add(BatchMode::Flows, FlowMethod::Kemmerer, false);
  Add(BatchMode::Query, FlowMethod::Native, false);
  Add(BatchMode::Check, FlowMethod::Native, false);
  if (!Rm.Ok || Rm.RMloEntries <= 1000)
    Add(BatchMode::Flows, FlowMethod::Alfp, false);
  return Steps;
}

TEST(ServeTiers, EveryCommandAnswersAlikeAfterTheDrop) {
  // A flows request leaves its entry holding only the answer tier. Every
  // later command on that entry — the whole sequence on one entry, and
  // each command alone right after flows — must print what it prints on
  // a fresh cache, with and without a store behind the cache.
  std::string Dir = testing::TempDir() + "serve_tiers_store";
  std::filesystem::remove_all(Dir);
  for (const TierInput &In : tierInputs()) {
    BatchInput Input{In.Name, In.Source};
    std::vector<BatchOptions> Steps = tierSteps(In);
    std::vector<std::string> Fresh;
    for (BatchOptions O : Steps) {
      SessionCache Cache(4);
      O.Cache = &Cache;
      Fresh.push_back(renderAnswer(analyzeDesign(Input, O), O));
    }
    for (bool WithStore : {false, true}) {
      SCOPED_TRACE(In.Name + (WithStore ? " (store)" : ""));
      ArtifactStore Store(Dir);
      ProcessArtifactTable Table;
      auto Replay = [&](const std::vector<size_t> &Order) {
        SessionCache Cache(4);
        if (WithStore)
          Cache.setArtifacts(&Table, &Store);
        for (size_t I : Order) {
          BatchOptions O = Steps[I];
          O.Cache = &Cache;
          EXPECT_EQ(renderAnswer(analyzeDesign(Input, O), O), Fresh[I])
              << "step " << I;
        }
        EXPECT_EQ(Cache.size(), 1u);
      };
      // The ALFP step, when present, is last and runs only alone.
      std::vector<size_t> Sequence;
      for (size_t I = 0; I < 7; ++I)
        Sequence.push_back(I);
      Replay(Sequence);
      for (size_t I = 1; I < Steps.size(); ++I)
        Replay({0, I, 0});
    }
  }
  std::filesystem::remove_all(Dir);
}

TEST(ServeTiers, StatsReportTheAnswerTier) {
  // Through the server: a flows request leaves `cache.bytes` at the
  // session's answer tier, and an rm request on the same entry brings the
  // work tier back for good.
  Server S;
  ASSERT_EQ(str(parseResponse(S.handleLine(muxRequest("flows", 1))),
                "status"),
            "ok");
  size_t AfterFlows = S.cache().bytes();
  {
    SessionCache::Ref R = S.cache().acquire("mux", MuxSource,
                                            SessionOptions());
    ASSERT_TRUE(R.hit());
    EXPECT_FALSE(R.session().holdsWork());
    EXPECT_EQ(AfterFlows, R.session().answerBytes());
  }
  JsonValue Stats = parseResponse(S.handleLine(R"({"command":"stats"})"));
  EXPECT_DOUBLE_EQ(Stats.find("cache")->find("bytes")->asNumber(),
                   double(AfterFlows));
  ASSERT_EQ(str(parseResponse(S.handleLine(muxRequest("rm", 2))), "status"),
            "ok");
  EXPECT_GT(S.cache().bytes(), AfterFlows);
  ASSERT_EQ(str(parseResponse(S.handleLine(muxRequest("flows", 3))),
                "status"),
            "ok");
  SessionCache::Ref R = S.cache().acquire("mux", MuxSource, SessionOptions());
  EXPECT_TRUE(R.session().holdsWork()) << "rm read the work tier";
}

//===----------------------------------------------------------------------===//
// Concurrent serving
//===----------------------------------------------------------------------===//

int connectLoopback(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool writeAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t W = ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(W);
  }
  return true;
}

std::string readToEof(int Fd) {
  std::string Out;
  char Buf[65536];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return Out;
    Out.append(Buf, static_cast<size_t>(N));
  }
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::istringstream Lines(Text);
  std::string Line;
  std::vector<std::string> Out;
  while (std::getline(Lines, Line))
    if (!Line.empty() && Line != "\r")
      Out.push_back(Line);
  return Out;
}

/// A pipe whose two ends close with it.
struct Pipe {
  int Fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(Fds), 0); }
  ~Pipe() {
    closeRead();
    closeWrite();
  }
  int readEnd() const { return Fds[0]; }
  int writeEnd() const { return Fds[1]; }
  void closeRead() { closeEnd(0); }
  void closeWrite() { closeEnd(1); }

private:
  void closeEnd(int I) {
    if (Fds[I] >= 0)
      ::close(Fds[I]);
    Fds[I] = -1;
  }
};

// The stdio transport: serveFd over a request pipe and a response pipe,
// as `vifc serve` runs it over fds 0 and 1.
TEST(Serve, RunLoopSkipsBlanksAndStopsOnShutdown) {
  Pipe Requests, Responses;
  ASSERT_TRUE(writeAll(Requests.writeEnd(),
                       muxRequest("check", 1) + "\n\n\r\n" +
                           R"({"command":"shutdown"})" + "\n" +
                           muxRequest("check", 99) + "\n"));
  Requests.closeWrite();
  Server S;
  std::string Error;
  EXPECT_TRUE(S.serveFd(Requests.readEnd(), Responses.writeEnd(), &Error))
      << Error;
  Responses.closeWrite();
  std::string Text = readToEof(Responses.readEnd());
  // Two responses: the check and the shutdown; the post-shutdown line is
  // never read.
  EXPECT_EQ(std::count(Text.begin(), Text.end(), '\n'), 2);
  EXPECT_EQ(Text.find("\"id\":99"), std::string::npos);
  EXPECT_EQ(S.requestsHandled(), 2u);
}

// A reader that went away before its response is a write error the loop
// reports, not a SIGPIPE that kills the process.
TEST(Serve, ReaderClosingEarlyIsAWriteError) {
  Pipe Requests, Responses;
  ASSERT_TRUE(writeAll(Requests.writeEnd(), muxRequest("check", 1) + "\n" +
                                                muxRequest("check", 2) +
                                                "\n"));
  Requests.closeWrite();
  Responses.closeRead();
  Server S;
  std::string Error;
  EXPECT_FALSE(S.serveFd(Requests.readEnd(), Responses.writeEnd(), &Error));
  EXPECT_EQ(Error.rfind("write: ", 0), 0u) << Error;
  // The loop stopped at the first failed write.
  EXPECT_EQ(S.requestsHandled(), 1u);
}

TEST(Serve, FdTransportSplitsMultiMegabyteLinesAnywhere) {
  // A 4 MB single-line request (its source carries a 4 MB comment) and a
  // pipelined burst behind it, written in odd-sized pieces so line ends
  // land anywhere within the server's reads: every response must come
  // back, in request order.
  std::string Big = "-- " + std::string(4u << 20, 'x') + "\n" + MuxSource;
  std::string Payload =
      R"({"schema":"vifc.v1","id":1,"command":"check","source":")" +
      jsonEscape(Big) + "\"}\n";
  constexpr int Pipelined = 16;
  for (int Id = 2; Id <= Pipelined + 1; ++Id)
    Payload += muxRequest("check", Id) + (Id % 3 ? "\n" : "\r\n");

  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::thread Writer([&] {
    const size_t Pieces[] = {1, 4093, 7, 65537, 4097, 3, 8191};
    for (size_t I = 0, Off = 0; Off < Payload.size(); ++I) {
      size_t Len = std::min(Pieces[I % 7], Payload.size() - Off);
      writeAll(Fds[1], Payload.substr(Off, Len));
      Off += Len;
    }
    ::shutdown(Fds[1], SHUT_WR);
  });
  std::string Out;
  std::thread Reader([&] { Out = readToEof(Fds[1]); });
  Server S;
  std::string Error;
  EXPECT_TRUE(S.serveFd(Fds[0], Fds[0], &Error)) << Error;
  // Closing first unblocks the writer too should serveFd stop early.
  ::close(Fds[0]);
  Writer.join();
  Reader.join();
  ::close(Fds[1]);

  std::vector<std::string> Lines = splitLines(Out);
  ASSERT_EQ(Lines.size(), static_cast<size_t>(Pipelined + 1));
  for (int I = 0; I <= Pipelined; ++I) {
    JsonValue Doc = parseResponse(Lines[I]);
    ASSERT_NE(Doc.find("id"), nullptr) << Lines[I];
    EXPECT_EQ(Doc.find("id")->asNumber(), double(I + 1));
    EXPECT_EQ(str(Doc, "status"), "ok") << Lines[I];
  }
}

TEST(ServeConcurrent, SocketpairClientsShareOneServer) {
  // M threads each drive their own descriptor pair against ONE shared
  // server, K requests pipelined up front. handleLine must be safe
  // under the contention, every client must get its K responses back in
  // request order (per-connection ordering), and the cache counters
  // must balance: every analysis request is exactly one hit or miss,
  // and the shared source is computed exactly once.
  constexpr unsigned M = 6, K = 8;
  Server S;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < M; ++C)
    Clients.emplace_back([&S, &Failures, C] {
      int Fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0) {
        ++Failures;
        return;
      }
      std::string Payload;
      for (unsigned R = 0; R < K; ++R)
        Payload += muxRequest("flows", static_cast<int>(C * 1000 + R)) + "\n";
      if (!writeAll(Fds[1], Payload))
        ++Failures;
      ::shutdown(Fds[1], SHUT_WR);
      std::string Error;
      if (!S.serveFd(Fds[0], Fds[0], &Error))
        ++Failures;
      ::close(Fds[0]);
      std::vector<std::string> Lines = splitLines(readToEof(Fds[1]));
      ::close(Fds[1]);
      if (Lines.size() != K) {
        ++Failures;
        return;
      }
      for (unsigned R = 0; R < K; ++R) {
        JsonValue Doc = parseResponse(Lines[R]);
        // Request/response pairing: ids come back in request order.
        if (!Doc.find("id") ||
            Doc.find("id")->asNumber() != double(C * 1000 + R) ||
            str(Doc, "status") != "ok")
          ++Failures;
      }
    });
  for (std::thread &T : Clients)
    T.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(S.requestsHandled(), uint64_t(M) * K);
  EXPECT_EQ(S.inFlight(), 0u);
  SessionCache::Stats St = S.cache().stats();
  EXPECT_EQ(St.Hits + St.Misses, uint64_t(M) * K)
      << "every analysis request is exactly one hit or one miss";
  EXPECT_EQ(St.Misses, 1u) << "one shared source, computed once";
}

TEST(ServeConcurrent, TcpWorkerPoolServesPipelinedClients) {
  // The full TCP front end: listenAndServe on an ephemeral port with a
  // fixed pool, M concurrent connections each pipelining K requests,
  // then a clean shutdown via a final connection.
  constexpr unsigned M = 4, K = 6;
  ServeOptions SO;
  SO.Workers = 4;
  Server S(SO);
  EXPECT_EQ(S.effectiveWorkers(), 4u);
  std::string ServeError;
  std::thread ServerThread(
      [&] { EXPECT_TRUE(S.listenAndServe(0, &ServeError)) << ServeError; });
  while (S.boundPort() == 0)
    std::this_thread::yield();
  uint16_t Port = S.boundPort();
  ASSERT_NE(Port, 0);

  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < M; ++C)
    Clients.emplace_back([&Failures, Port, C] {
      int Fd = connectLoopback(Port);
      if (Fd < 0) {
        ++Failures;
        return;
      }
      std::string Payload;
      for (unsigned R = 0; R < K; ++R)
        Payload += muxRequest("check", static_cast<int>(C * 100 + R)) + "\n";
      if (!writeAll(Fd, Payload))
        ++Failures;
      ::shutdown(Fd, SHUT_WR); // EOF ends this connection after K answers
      std::vector<std::string> Lines = splitLines(readToEof(Fd));
      ::close(Fd);
      if (Lines.size() != K) {
        ++Failures;
        return;
      }
      for (unsigned R = 0; R < K; ++R) {
        JsonValue Doc = parseResponse(Lines[R]);
        if (!Doc.find("id") ||
            Doc.find("id")->asNumber() != double(C * 100 + R) ||
            str(Doc, "status") != "ok")
          ++Failures;
      }
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);

  // stats over the wire, then shutdown; the server thread must drain.
  int Fd = connectLoopback(Port);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(writeAll(Fd, "{\"command\":\"stats\"}\n"
                           "{\"command\":\"shutdown\"}\n"));
  ::shutdown(Fd, SHUT_WR);
  std::vector<std::string> Lines = splitLines(readToEof(Fd));
  ::close(Fd);
  ServerThread.join();
  ASSERT_EQ(Lines.size(), 2u);
  JsonValue Stats = parseResponse(Lines[0]);
  EXPECT_EQ(str(Stats, "status"), "ok");
  EXPECT_DOUBLE_EQ(Stats.find("requests")->asNumber(), double(M * K + 1));
  EXPECT_GE(Stats.find("inFlight")->asNumber(), 1.0)
      << "the stats request itself is in flight";
  const JsonValue *Cache = Stats.find("cache");
  ASSERT_NE(Cache, nullptr);
  EXPECT_DOUBLE_EQ(Cache->find("hits")->asNumber() +
                       Cache->find("misses")->asNumber(),
                   double(M * K));
  EXPECT_EQ(str(parseResponse(Lines[1]), "command"), "shutdown");
  EXPECT_TRUE(S.shuttingDown());
}

TEST(ServeConcurrent, ConnectionsBeyondTheBoundAreShed) {
  // One worker, a one-connection queue: the third concurrent connection
  // must be answered with the documented one-line `overloaded` error
  // and closed, not left hanging.
  ServeOptions SO;
  SO.Workers = 1;
  SO.MaxQueuedConns = 1;
  Server S(SO);
  std::thread ServerThread([&] { S.listenAndServe(0, nullptr); });
  while (S.boundPort() == 0)
    std::this_thread::yield();
  uint16_t Port = S.boundPort();

  // Pin the only worker to connection A — a served ping proves a worker
  // owns it (not merely queued) before we pile on.
  int A = connectLoopback(Port);
  ASSERT_GE(A, 0);
  ASSERT_TRUE(writeAll(A, "{\"command\":\"ping\"}\n"));
  {
    std::string Buf;
    char Ch;
    while (Buf.find('\n') == std::string::npos && ::read(A, &Ch, 1) == 1)
      Buf.push_back(Ch);
    EXPECT_EQ(str(parseResponse(splitLines(Buf).at(0)), "status"), "ok");
  }

  // B fills the queue; C exceeds worker + queue and is shed.
  int B = connectLoopback(Port);
  ASSERT_GE(B, 0);
  int C = connectLoopback(Port);
  ASSERT_GE(C, 0);
  std::vector<std::string> Shed = splitLines(readToEof(C));
  ::close(C);
  ASSERT_EQ(Shed.size(), 1u) << "exactly the error line, then close";
  JsonValue Doc = parseResponse(Shed[0]);
  EXPECT_EQ(str(Doc, "status"), "error");
  EXPECT_EQ(str(*Doc.find("error"), "code"), "overloaded");

  // Release A; the worker then drains B. A fresh connection carrying
  // the shutdown may race that drain and be shed itself, so retry until
  // it lands on the freed worker.
  ::close(A);
  ::close(B);
  bool ShutDown = false;
  for (int Attempt = 0; Attempt < 500 && !ShutDown; ++Attempt) {
    int D = connectLoopback(Port);
    ASSERT_GE(D, 0);
    ASSERT_TRUE(writeAll(D, "{\"command\":\"shutdown\"}\n"));
    std::vector<std::string> Bye = splitLines(readToEof(D));
    ::close(D);
    ShutDown = Bye.size() == 1 &&
               str(parseResponse(Bye[0]), "command") == "shutdown";
    if (!ShutDown)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(ShutDown);
  ServerThread.join();
}

//===----------------------------------------------------------------------===//
// Schema conformance
//===----------------------------------------------------------------------===//

/// Mirror of the field list in docs/SCHEMA.md (§ Field index). A field
/// emitted by the serializers but missing both here and in the doc fails
/// this test and tools/schema_check.py respectively; keep the three in
/// sync.
const std::set<std::string> DocumentedFields = {
    "schema",      "command",  "method",    "designs",   "file",
    "status",      "unreadable", "diagnostics", "cacheHit", "processes",
    "signals",     "variables", "graph",    "nodes",     "edges",
    "edgeList",    "from",     "to",        "matrices",  "rmlo",
    "rmgl",        "violations", "viaPath", "timings",   "readMs",
    "parseMs",     "elaborateMs", "cfgMs",  "ifaMs",     "kemmererMs",
    "alfpMs",      "totalMs",  "summary",   "ok",        "failed",
    "wallMs",      "cache",    "size",      "capacity",  "hits",
    "misses",      "evictions", "id",       "error",     "code",
    "message",     "requests", "deltas",    "reason",    "name",
    "value",       "relations", "arity",    "tuples",    "derived",
    "bytes",       "bytesBudget", "inFlight", "query",   "reaches",
    "witness",     "node",     "resource",  "kind",      "reachableFrom",
    "whatReaches", "queryMs",  "contentKey", "store",    "writes",
    "bytesRead",   "bytesWritten", "storeMs",
};

void checkFields(const JsonValue &V, const std::string &Where) {
  if (V.isArray()) {
    for (const JsonValue &E : V.elements())
      checkFields(E, Where);
    return;
  }
  if (!V.isObject())
    return;
  for (const auto &[Key, Member] : V.members()) {
    EXPECT_TRUE(DocumentedFields.count(Key))
        << "undocumented field \"" << Key << "\" in " << Where;
    checkFields(Member, Where + "." + Key);
  }
}

void checkDocument(const std::string &Text, const std::string &Where) {
  std::string Error;
  std::optional<JsonValue> V = parseJson(Text, &Error);
  ASSERT_TRUE(V.has_value()) << Where << ": " << Error << "\n" << Text;
  ASSERT_TRUE(V->isObject()) << Where;
  ASSERT_FALSE(V->members().empty()) << Where;
  EXPECT_EQ(V->members()[0].first, "schema")
      << Where << ": schema must be the first member";
  EXPECT_EQ(V->members()[0].second.asString(), "vifc.v1") << Where;
  checkFields(*V, Where);
}

TEST(SchemaConformance, EveryDocumentTypeStaysWithinTheSpec) {
  // Batch documents, all four modes, with a cache, a failing design and
  // a policy violation in the mix.
  SessionCache Cache(4);
  std::vector<BatchInput> Inputs = {
      {"mux", std::string(MuxSource)},
      {"broken", std::string("entity broken is port(")},
      {"/nonexistent/missing.vhd", std::nullopt},
  };
  for (BatchMode Mode : {BatchMode::Check, BatchMode::Flows,
                         BatchMode::Matrices, BatchMode::Report,
                         BatchMode::Query}) {
    BatchOptions Opts;
    Opts.Mode = Mode;
    Opts.Cache = &Cache;
    Opts.CaptureRenderedText = false;
    if (Mode == BatchMode::Report)
      Opts.Policy.Forbidden.push_back({"d1", "q"});
    if (Mode == BatchMode::Query) {
      Opts.QueryFrom = "sel";
      Opts.QueryTo = "q";
    }
    BatchResult R = runBatch(Inputs, Opts);
    std::ostringstream OS;
    printBatchJson(OS, R, Opts);
    checkDocument(OS.str(), std::string("batch/") + batchModeName(Mode));
  }

  // Serve responses: ok analysis (all modes), stats, ping, every error.
  Server S;
  checkDocument(S.handleLine(muxRequest("check", 1)), "serve/check");
  checkDocument(S.handleLine(muxRequest("flows", 2)), "serve/flows");
  checkDocument(S.handleLine(muxRequest("rm", 3)), "serve/rm");
  checkDocument(S.handleLine(muxRequest(
                    "report", 4,
                    R"("options":{"forbid":[{"from":"sel","to":"q"}]})")),
                "serve/report");
  checkDocument(S.handleLine(muxRequest(
                    "query", 5, R"("options":{"from":"sel","to":"q"})")),
                "serve/query");
  checkDocument(S.handleLine(R"({"command":"stats","id":null})"),
                "serve/stats");
  checkDocument(S.handleLine(R"({"command":"ping"})"), "serve/ping");
  checkDocument(S.handleLine("malformed"), "serve/parse-error");
  checkDocument(S.handleLine(R"({"command":"nope"})"), "serve/bad-request");
  checkDocument(
      S.handleLine(R"({"command":"check","path":"/nonexistent/x.vhd"})"),
      "serve/unreadable");

  // A store-configured server: the stats "store" object, a contentKey
  // echo, and the unknown-content-key error object.
  std::string StoreDir = testing::TempDir() + "serve_schema_store";
  std::filesystem::remove_all(StoreDir);
  ServeOptions SO;
  SO.StoreDir = StoreDir;
  Server SStore(SO);
  checkDocument(SStore.handleLine(muxRequest("flows", 6)),
                "serve/store-flows");
  checkDocument(SStore.handleLine(R"({"command":"stats"})"),
                "serve/store-stats");
  checkDocument(
      SStore.handleLine(
          R"({"command":"flows","contentKey":"ffffffffffffffff"})"),
      "serve/unknown-content-key");

  // A batch document over a cache with a store, as `--json --store`
  // prints it: the top-level store object.
  {
    ArtifactStore Store(StoreDir);
    SessionCache StoreCache(4);
    StoreCache.setArtifacts(nullptr, &Store);
    BatchOptions Opts;
    Opts.Mode = BatchMode::Flows;
    Opts.Cache = &StoreCache;
    Opts.CaptureRenderedText = false;
    BatchResult R = runBatch({{"mux", std::string(MuxSource)}}, Opts);
    std::ostringstream OS;
    printBatchJson(OS, R, Opts);
    EXPECT_NE(OS.str().find("\"store\""), std::string::npos);
    checkDocument(OS.str(), "batch/store");
  }
  std::filesystem::remove_all(StoreDir);

  // Sim document.
  SimDocument Sim;
  Sim.File = "mux.vhd";
  Sim.Status = "stuck";
  Sim.Deltas = 7;
  Sim.StuckReason = "condition not '0'/'1'";
  Sim.Signals.push_back({"q", "'U'"});
  std::ostringstream SimOS;
  writeSimDocument(SimOS, Sim);
  checkDocument(SimOS.str(), "sim");

  // Datalog document.
  DatalogRelation Rel;
  Rel.Name = "path";
  Rel.Arity = 2;
  Rel.Tuples = {{"a", "b"}, {"b", "c"}};
  std::ostringstream DlOS;
  writeDatalogDocument(DlOS, "t.alfp", {Rel}, 5);
  checkDocument(DlOS.str(), "datalog");
}

} // namespace
