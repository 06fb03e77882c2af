//===- tests/session_cache_test.cpp - Content-addressed session cache ----===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "driver/Batch.h"
#include "driver/SessionCache.h"
#include "support/Hash.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

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

TEST(HashBuilder, OrderAndLengthSensitive) {
  EXPECT_EQ(HashBuilder().str("ab").str("c").value(),
            HashBuilder().str("ab").str("c").value());
  EXPECT_NE(HashBuilder().str("ab").str("c").value(),
            HashBuilder().str("a").str("bc").value());
  EXPECT_NE(HashBuilder().boolean(true).value(),
            HashBuilder().boolean(false).value());
  EXPECT_EQ(HashBuilder().str("x").hex().size(), 16u);
}

TEST(SessionCacheKey, ContentAddressedNotNameAddressed) {
  SessionOptions Opts;
  EXPECT_EQ(sessionCacheKey(MuxSource, Opts),
            sessionCacheKey(MuxSource, Opts));
  EXPECT_NE(sessionCacheKey(MuxSource, Opts),
            sessionCacheKey(RegSource, Opts));
}

// Every analysis knob must flip the key: a cache that conflates option
// sets serves artifacts computed under the wrong analysis.
TEST(SessionCacheKey, EveryOptionParticipates) {
  SessionOptions Base;
  uint64_t BaseKey = sessionCacheKey(MuxSource, Base);

  // One variant per bit of the foreachOptionBit fold, in fold order.
  std::vector<SessionOptions> Variants(7, Base);
  Variants[0].Statements = true;
  Variants[1].Ifa.Improved = true;
  Variants[2].Ifa.ProgramEndOutgoing = true;
  Variants[3].Ifa.ReferenceClosure = true;
  Variants[4].Ifa.RD.UseMustActiveKill = false;
  Variants[5].Ifa.RD.ReferenceSolver = true;
  Variants[6].Ifa.RD.HsiehLevitanCrossFlow = true;

  std::vector<uint64_t> Keys{BaseKey};
  for (const SessionOptions &V : Variants)
    Keys.push_back(sessionCacheKey(MuxSource, V));

  for (size_t A = 0; A < Keys.size(); ++A)
    for (size_t B = A + 1; B < Keys.size(); ++B)
      EXPECT_NE(Keys[A], Keys[B]) << "variants " << A << " and " << B;

  // Solver parallelism is not an artifact-changing option: the same
  // session must be shared (and the cache hit) across --jobs settings.
  SessionOptions Jobs4 = Base;
  Jobs4.Ifa.RD.Jobs = 4;
  EXPECT_EQ(BaseKey, sessionCacheKey(MuxSource, Jobs4));
}

TEST(SessionCache, HitSharesTheSessionAcrossNames) {
  SessionCache Cache(4);
  SessionOptions Opts;

  const AnalysisSession *First;
  {
    SessionCache::Ref R = Cache.acquire("a.vhd", MuxSource, Opts);
    EXPECT_FALSE(R.hit());
    First = &R.session();
    ASSERT_NE(R.session().ifa(), nullptr);
  }
  {
    // Same content under a different name: same session, same artifacts.
    SessionCache::Ref R = Cache.acquire("b.vhd", MuxSource, Opts);
    EXPECT_TRUE(R.hit());
    EXPECT_EQ(&R.session(), First);
    EXPECT_EQ(R.session().ifa(), R.session().ifa());
    EXPECT_EQ(R.session().name(), "a.vhd") << "keeps the first name";
  }
  SessionCache::Stats St = Cache.stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(SessionCache, ArtifactsPersistAcrossAcquires) {
  SessionCache Cache(4);
  SessionOptions Opts;
  const IFAResult *Ifa;
  {
    SessionCache::Ref R = Cache.acquire("mux", MuxSource, Opts);
    Ifa = R.session().ifa();
    ASSERT_NE(Ifa, nullptr);
  }
  {
    SessionCache::Ref R = Cache.acquire("mux", MuxSource, Opts);
    ASSERT_TRUE(R.hit());
    // The expensive artifact is the very same object — nothing recomputed.
    EXPECT_EQ(R.session().ifa(), Ifa);
  }
}

TEST(SessionCache, OptionSensitivityKeepsEntriesApart) {
  SessionCache Cache(4);
  SessionOptions Plain, Improved;
  Improved.Ifa.Improved = true;

  SessionCache::Ref A = Cache.acquire("mux", MuxSource, Plain);
  EXPECT_FALSE(A.hit());
  SessionCache::Ref B = Cache.acquire("mux", MuxSource, Improved);
  EXPECT_FALSE(B.hit());
  EXPECT_NE(&A.session(), &B.session());
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(SessionCache, LruEvictionDropsTheColdestEntry) {
  SessionCache Cache(2);
  SessionOptions Opts;
  std::string A = std::string(MuxSource) + "-- a\n";
  std::string B = std::string(MuxSource) + "-- b\n";
  std::string C = std::string(MuxSource) + "-- c\n";

  Cache.acquire("a", A, Opts);
  Cache.acquire("b", B, Opts);
  // Touch a so b becomes the least recently used ...
  EXPECT_TRUE(Cache.acquire("a", A, Opts).hit());
  // ... then force an eviction.
  Cache.acquire("c", C, Opts);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);

  EXPECT_TRUE(Cache.acquire("a", A, Opts).hit()) << "a was kept warm";
  EXPECT_FALSE(Cache.acquire("b", B, Opts).hit()) << "b was evicted";
}

TEST(SessionCache, EvictedButHeldSessionStaysAlive) {
  SessionCache Cache(1);
  SessionOptions Opts;
  SessionCache::Ref Held = Cache.acquire("mux", MuxSource, Opts);
  ASSERT_NE(Held.session().program(), nullptr);
  // Evict the held entry; the Ref keeps it alive and usable.
  Cache.acquire("reg", RegSource, Opts);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_NE(Held.session().ifa(), nullptr);
}

TEST(SessionCache, ClearForgetsEntriesButKeepsStats) {
  SessionCache Cache(4);
  SessionOptions Opts;
  Cache.acquire("mux", MuxSource, Opts);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_FALSE(Cache.acquire("mux", MuxSource, Opts).hit());
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

TEST(SessionCache, RefMoveAssignmentReleasesTheOldEntry) {
  // Rebinding a Ref must release the previously held entry (entry lock
  // dropped, bytes reported) before taking over the new one — a Ref
  // that leaked its old lock would deadlock the next acquire of that
  // entry from another thread.
  SessionCache Cache(4);
  SessionOptions Opts;
  SessionCache::Ref R = Cache.acquire("mux", MuxSource, Opts);
  ASSERT_NE(R.session().ifa(), nullptr);
  const AnalysisSession *Mux = &R.session();

  R = Cache.acquire("reg", RegSource, Opts);
  EXPECT_NE(&R.session(), Mux);
  EXPECT_EQ(R.session().name(), "reg");

  // The mux entry's lock must be free again: re-acquiring it from
  // another thread completes (would deadlock if move-assignment leaked
  // the old lock).
  std::thread T([&Cache, &Opts, Mux] {
    SessionCache::Ref Again = Cache.acquire("mux", MuxSource, Opts);
    EXPECT_TRUE(Again.hit());
    EXPECT_EQ(&Again.session(), Mux);
  });
  T.join();

  // Releasing the mux Ref reported its measured bytes to the cache.
  EXPECT_GT(Cache.bytes(), 0u);

  // Self-move must not lose the entry (clang warns on the direct
  // spelling, so go through a pointer).
  SessionCache::Ref &Alias = R;
  R = std::move(Alias);
  EXPECT_EQ(R.session().name(), "reg");
}

TEST(SessionCache, ByteBudgetEvictsByMeasuredBytes) {
  // A fleet of generated designs through a byte-budgeted cache: total
  // measured bytes must stay under the budget once Refs are released,
  // with the cold entries evicted (not merely counted).
  SessionOptions Opts;

  // Size one released session to pick a budget that holds only a few.
  size_t OneSession;
  {
    SessionCache Probe(2);
    {
      SessionCache::Ref R = Probe.acquire("probe", MuxSource, Opts);
      ASSERT_NE(R.session().ifa(), nullptr);
      OneSession = R.session().memoryBytes();
    }
    ASSERT_GT(OneSession, 0u);
    EXPECT_EQ(Probe.bytes(), OneSession);
  }

  size_t Budget = 3 * OneSession + OneSession / 2;
  SessionCache Cache(64, Budget); // entry capacity is not the binding limit
  EXPECT_EQ(Cache.bytesBudget(), Budget);
  for (int I = 0; I < 12; ++I) {
    std::string Source = std::string(MuxSource) + "-- v" + std::to_string(I) +
                         "\n";
    SessionCache::Ref R = Cache.acquire("v" + std::to_string(I), Source, Opts);
    ASSERT_NE(R.session().ifa(), nullptr);
    EXPECT_FALSE(R.hit());
  }
  EXPECT_LE(Cache.bytes(), Budget);
  EXPECT_GE(Cache.size(), 1u);
  EXPECT_LT(Cache.size(), 12u);
  EXPECT_GT(Cache.stats().Evictions, 0u);
  EXPECT_EQ(Cache.stats().Misses, 12u);

  // The survivors are the most recently used; the warmest entry is
  // still a hit.
  EXPECT_TRUE(Cache.acquire("v11", std::string(MuxSource) + "-- v11\n", Opts)
                  .hit());
}

TEST(SessionCache, ByteBudgetKeepsOneOversizedEntry) {
  // A single design larger than the whole budget still caches: the
  // floor is one entry, so repeat requests stay warm instead of
  // thrashing.
  SessionCache Cache(8, /*BytesBudget=*/1);
  SessionOptions Opts;
  { Cache.acquire("mux", MuxSource, Opts); }
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_GT(Cache.bytes(), 1u);
  EXPECT_TRUE(Cache.acquire("mux", MuxSource, Opts).hit());
}

TEST(SessionCache, MemoryBytesGrowsWithArtifacts) {
  // The deep measure must actually see the analysis artifacts: a
  // session that ran the IFA pipeline weighs more than one that only
  // parsed, which weighs more than the bare source.
  AnalysisSession Parsed = AnalysisSession::fromSource("mux", MuxSource);
  size_t AfterParse = Parsed.memoryBytes();
  EXPECT_GT(AfterParse, sizeof(MuxSource));
  ASSERT_NE(Parsed.ifa(), nullptr);
  EXPECT_GT(Parsed.memoryBytes(), AfterParse)
      << "IFA artifacts must be counted";
}

TEST(SessionCache, MemoryBytesChargesProgramAndCfg) {
  // The elaborated program (which adopts the parse tree) and the CFG are
  // each measured once, as they are built, and charged from then on: the
  // session's figure, and the cache's total measured at release, grow by
  // exactly their bytes.
  for (bool Statements : {false, true}) {
    SessionOptions Opts;
    Opts.Statements = Statements;
    const char *Source = Statements ? "c := b; b := a;" : MuxSource;
    SessionCache Cache(4);
    size_t Bare, WithCfg;
    {
      SessionCache::Ref R = Cache.acquire("t", Source, Opts);
      AnalysisSession &S = R.session();
      Bare = S.memoryBytes();
      const ElaboratedProgram *P = S.program();
      ASSERT_NE(P, nullptr);
      EXPECT_GT(P->memoryBytes(), 0u);
      EXPECT_EQ(S.memoryBytes(), Bare + P->memoryBytes());
      const ProgramCFG *C = S.cfg();
      ASSERT_NE(C, nullptr);
      EXPECT_GT(C->memoryBytes(), 0u);
      WithCfg = Bare + P->memoryBytes() + C->memoryBytes();
      EXPECT_EQ(S.memoryBytes(), WithCfg);
    }
    EXPECT_EQ(Cache.bytes(), WithCfg);
  }
}

TEST(SessionCache, MemoryBytesChargesDiagnostics) {
  // The diagnostics are kept with the answer tier, so they are charged:
  // a front end that reports many errors weighs at least their message
  // bytes more than the bare source.
  std::string Source = "entity e is port(q : out std_logic); end e;\n"
                       "architecture rtl of e is begin p : process begin\n";
  for (int I = 0; I < 64; ++I)
    Source += "  q <= undeclared_" + std::to_string(I) + ";\n";
  Source += "  wait; end process p; end rtl;\n";
  AnalysisSession S = AnalysisSession::fromSource("errs", Source);
  size_t Bare = S.memoryBytes();
  EXPECT_EQ(S.program(), nullptr);
  ASSERT_EQ(S.diagnostics().all().size(), 64u);
  size_t Messages = 0;
  for (const Diagnostic &D : S.diagnostics().all())
    Messages += D.Message.size();
  EXPECT_GE(S.memoryBytes(), Bare + Messages);
}

TEST(SessionCache, FlowsKeepsOnlyTheAnswerTier) {
  // A flows request reads the graph and the counts, never the work tier,
  // so the entry it leaves weighs what a session holding only the answer
  // tier weighs: the full session's bytes less the program, the CFG and
  // every IFA part but the graph.
  std::string Source = workloads::pipelineDesign(16);
  AnalysisSession Full = AnalysisSession::fromSource("pipe", Source);
  const IFAResult *R = Full.ifa();
  ASSERT_NE(R, nullptr);
  size_t Work = Full.program()->memoryBytes() + Full.cfg()->memoryBytes() +
                R->memoryBytes() - R->Graph.memoryBytes();

  SessionCache Cache(4);
  BatchOptions Opts;
  Opts.Mode = BatchMode::Flows;
  Opts.Cache = &Cache;
  DesignResult D = analyzeDesign(BatchInput{"pipe", Source}, Opts);
  ASSERT_TRUE(D.Ok);
  EXPECT_EQ(D.NumEdges, R->Graph.numEdges());
  EXPECT_EQ(D.NumProcesses, Full.program()->Processes.size());
  EXPECT_EQ(Cache.bytes(), Full.memoryBytes() - Work);

  SessionCache::Ref Again = Cache.acquire("pipe", Source, SessionOptions());
  ASSERT_TRUE(Again.hit());
  AnalysisSession &S = Again.session();
  EXPECT_FALSE(S.holdsWork()) << "no program, CFG or matrices held";
  EXPECT_EQ(S.memoryBytes(), S.answerBytes());
  EXPECT_TRUE(S.ifaPartial());
  // A work accessor rebuilds the tier: the front end runs again, its
  // repeated diagnostics are not kept twice.
  double ParseMs = S.timings().ParseMs;
  std::string Diags = S.diagnostics().str();
  ASSERT_NE(S.program(), nullptr);
  EXPECT_GT(S.timings().ParseMs, ParseMs);
  EXPECT_EQ(S.diagnostics().str(), Diags);
  EXPECT_EQ(S.ifa()->RMgl.size(), R->RMgl.size());
  EXPECT_FALSE(S.ifaPartial());
}

TEST(SessionCache, CheckThenFlowsSharesOneFrontEnd) {
  // check builds no graph, so the session keeps its program for the
  // flows request that follows.
  SessionCache Cache(4);
  BatchOptions Opts;
  Opts.Cache = &Cache;
  Opts.Mode = BatchMode::Check;
  ASSERT_TRUE(analyzeDesign(BatchInput{"mux", std::string(MuxSource)}, Opts)
                  .Ok);
  double ParseMs;
  {
    SessionCache::Ref R = Cache.acquire("mux", MuxSource, SessionOptions());
    EXPECT_TRUE(R.session().holdsWork());
    ParseMs = R.session().timings().ParseMs;
  }
  Opts.Mode = BatchMode::Flows;
  DesignResult D = analyzeDesign(BatchInput{"mux", std::string(MuxSource)},
                                 Opts);
  ASSERT_TRUE(D.Ok);
  EXPECT_EQ(D.Timings.ParseMs, ParseMs) << "the front end ran once";
  SessionCache::Ref R = Cache.acquire("mux", MuxSource, SessionOptions());
  EXPECT_FALSE(R.session().holdsWork());
}

TEST(SessionCache, HandedOutPointersSurviveTheDrop) {
  // Every answer-tier object keeps its address across the release that
  // drops the work tier, and across the rebuild a work accessor makes.
  SessionCache Cache(4);
  std::string Source = workloads::pipelineDesign(6);
  SessionOptions Opts;
  const Digraph *G;
  const query::FlowQueryEngine *Q;
  const KemmererResult *K;
  const ProgramCounts *C;
  {
    SessionCache::Ref R = Cache.acquire("pipe", Source, Opts);
    AnalysisSession &S = R.session();
    G = S.graph();
    Q = S.queryEngine();
    K = S.kemmerer();
    C = S.counts();
    ASSERT_TRUE(G && Q && K && C);
    EXPECT_TRUE(S.holdsWork());
  }
  const IFAResult *Ifa;
  {
    SessionCache::Ref R = Cache.acquire("pipe", Source, Opts);
    AnalysisSession &S = R.session();
    EXPECT_FALSE(S.holdsWork());
    EXPECT_EQ(S.graph(), G);
    EXPECT_EQ(S.queryEngine(), Q);
    EXPECT_EQ(S.kemmerer(), K);
    EXPECT_EQ(S.counts(), C);
    Ifa = S.ifa();
    ASSERT_NE(Ifa, nullptr);
    EXPECT_EQ(&Ifa->Graph, G);
    EXPECT_TRUE(Q->reaches("s_0", "s_6"));
  }
  {
    // Read once, kept from then on.
    SessionCache::Ref R = Cache.acquire("pipe", Source, Opts);
    EXPECT_TRUE(R.session().holdsWork());
    EXPECT_EQ(R.session().ifa(), Ifa);
    EXPECT_EQ(R.session().graph(), G);
  }
}

TEST(SessionCache, BudgetHoldsTwiceAsManyDroppedSessions) {
  // A budget that holds four full pipeline/64 sessions holds at least
  // eight that dropped their work tier.
  std::string Base = workloads::pipelineDesign(64);
  SessionOptions Opts;
  size_t Full;
  {
    SessionCache Probe(2);
    {
      SessionCache::Ref R = Probe.acquire("probe", Base, Opts);
      ASSERT_NE(R.session().ifa(), nullptr);
    }
    Full = Probe.bytes();
  }
  size_t Budget = 4 * Full + Full / 2;
  auto Variant = [&](int I) {
    return Base + "-- v" + std::to_string(I) + "\n";
  };

  SessionCache Read(64, Budget);
  for (int I = 0; I < 10; ++I) {
    SessionCache::Ref R = Read.acquire("v", Variant(I), Opts);
    ASSERT_NE(R.session().ifa(), nullptr);
  }
  EXPECT_LE(Read.size(), 4u) << "sessions whose work tier was read";

  SessionCache Dropped(64, Budget);
  BatchOptions B;
  B.Mode = BatchMode::Flows;
  B.Cache = &Dropped;
  for (int I = 0; I < 10; ++I)
    ASSERT_TRUE(analyzeDesign(BatchInput{"v", Variant(I)}, B).Ok);
  EXPECT_GE(Dropped.size(), 8u);
  EXPECT_LE(Dropped.bytes(), Budget);
}

TEST(SessionCache, CfgMemoryIsCompleteWhenBuilt) {
  // Nothing is added to the CFG after it is built: running the analyses
  // over it leaves its figure as it was, and the figure covers the flow
  // rows and reverse postorder it hands out.
  AnalysisSession S =
      AnalysisSession::fromSource("pipe", workloads::pipelineDesign(4));
  const ProgramCFG *C = S.cfg();
  ASSERT_NE(C, nullptr);
  ASSERT_GT(C->processes().size(), 1u);
  size_t Built = C->memoryBytes();
  ASSERT_NE(S.ifa(), nullptr);
  EXPECT_EQ(C->memoryBytes(), Built);
  size_t Exposed = 0;
  for (const ProcessCFG &P : C->processes()) {
    Exposed += C->rpo(P).size();
    for (LabelId L = P.FirstLabel; L < P.endLabel(); ++L)
      Exposed += C->succs(L).size() + C->preds(L).size();
  }
  EXPECT_GT(Exposed, 0u);
  EXPECT_GE(Built, Exposed * sizeof(uint32_t));
}

TEST(Batch, CacheDeduplicatesIdenticalInputs) {
  SessionCache Cache(8);
  std::vector<BatchInput> Inputs = {
      {"one", std::string(MuxSource)},
      {"two", std::string(MuxSource)},
      {"three", std::string(RegSource)},
  };
  BatchOptions Opts;
  Opts.Mode = BatchMode::Flows;
  Opts.Cache = &Cache;
  Opts.Jobs = 1; // deterministic hit attribution
  BatchResult R = runBatch(Inputs, Opts);

  ASSERT_EQ(R.Designs.size(), 3u);
  EXPECT_FALSE(R.Designs[0].CacheHit);
  EXPECT_TRUE(R.Designs[1].CacheHit);
  EXPECT_EQ(R.Designs[1].Name, "two") << "result keeps the requested name";
  EXPECT_FALSE(R.Designs[2].CacheHit);
  EXPECT_EQ(R.Designs[0].NumEdges, R.Designs[1].NumEdges);
  EXPECT_EQ(Cache.stats().Hits, 1u);
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

TEST(Batch, CacheSurvivesConcurrentDuplicates) {
  SessionCache Cache(8);
  std::vector<BatchInput> Inputs;
  for (int I = 0; I < 16; ++I)
    Inputs.push_back({"in" + std::to_string(I), std::string(MuxSource)});
  BatchOptions Opts;
  Opts.Mode = BatchMode::Flows;
  Opts.Cache = &Cache;
  Opts.Jobs = 4;
  BatchResult R = runBatch(Inputs, Opts);

  EXPECT_EQ(R.NumOk, 16u);
  for (const DesignResult &D : R.Designs)
    EXPECT_EQ(D.NumEdges, 3u);
  SessionCache::Stats St = Cache.stats();
  EXPECT_EQ(St.Hits + St.Misses, 16u);
  EXPECT_GE(St.Hits, 1u);
  EXPECT_EQ(Cache.size(), 1u) << "identical content collapses to one entry";
}

TEST(Batch, UnreadableInputBypassesTheCache) {
  SessionCache Cache(8);
  std::vector<BatchInput> Inputs = {
      {"/nonexistent/definitely-missing.vhd", std::nullopt}};
  BatchOptions Opts;
  Opts.Cache = &Cache;
  BatchResult R = runBatch(Inputs, Opts);
  ASSERT_EQ(R.Designs.size(), 1u);
  EXPECT_FALSE(R.Designs[0].Ok);
  EXPECT_TRUE(R.Designs[0].Unreadable);
  EXPECT_FALSE(R.Designs[0].CacheHit);
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.stats().Misses, 0u);
}

} // namespace
