//===- driver/AnalysisSession.cpp -----------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "driver/AnalysisSession.h"

#include "driver/ArtifactStore.h"
#include "driver/SessionCache.h"

#include <chrono>
#include <cstdio>

#include <sys/stat.h>

using namespace vif;
using namespace vif::driver;

namespace {

/// Adds the scope's wall-clock duration to a StageTimings field.
class StageTimer {
public:
  explicit StageTimer(double &Out)
      : Out(Out), Start(std::chrono::steady_clock::now()) {}
  ~StageTimer() {
    Out += std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
               .count();
  }

private:
  double &Out;
  std::chrono::steady_clock::time_point Start;
};

} // namespace

AnalysisSession AnalysisSession::fromFile(std::string Path,
                                          SessionOptions Opts) {
  AnalysisSession S;
  S.Name = std::move(Path);
  S.Opts = Opts;
  return S;
}

AnalysisSession AnalysisSession::fromSource(std::string Name,
                                            std::string Source,
                                            SessionOptions Opts) {
  AnalysisSession S;
  S.Name = std::move(Name);
  S.Src = std::move(Source);
  S.SourceState = State::Ok;
  S.Opts = Opts;
  return S;
}

bool vif::driver::readSourceFile(const std::string &Path, std::string &Out) {
  bool Stdin = Path == "-";
  std::FILE *F = Stdin ? stdin : std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  // A regular file is read with one sized read, straight into Out. Stdin,
  // a pipe, or a file that grew meanwhile has no size up front: the rest
  // is appended in chunks. As before, a read error after a successful
  // open keeps what was read.
  struct stat St {};
  if (!Stdin && fstat(fileno(F), &St) == 0 && S_ISREG(St.st_mode))
    Out.resize(static_cast<size_t>(St.st_size));
  else
    Out.clear();
  Out.resize(Out.empty() ? 0 : std::fread(Out.data(), 1, Out.size(), F));
  char Chunk[64 * 1024];
  while (size_t N = std::fread(Chunk, 1, sizeof(Chunk), F))
    Out.append(Chunk, N);
  if (!Stdin)
    std::fclose(F);
  return true;
}

const std::string *AnalysisSession::source() {
  if (SourceState == State::NotComputed) {
    ++ArtifactEpoch;
    SourceState = State::Failed;
    StageTimer T(Times.ReadMs);
    if (readSourceFile(Name, Src))
      SourceState = State::Ok;
  }
  return SourceState == State::Ok ? &Src : nullptr;
}

const ElaboratedProgram *AnalysisSession::program() {
  WorkRead = true;
  return buildProgram();
}

const ProgramCFG *AnalysisSession::cfg() {
  WorkRead = true;
  return buildCfg();
}

const IFAResult *AnalysisSession::ifa() {
  WorkRead = true;
  const IFAResult *R = buildIfa();
  // A store-served result already holds the matrices; a dropped one gets
  // them back.
  if (R && Tier == IfaTier::Graph)
    upgradeIfa();
  return R;
}

const ReachingDefsResult *AnalysisSession::reachingDefs() {
  WorkRead = true;
  const IFAResult *R = buildIfa();
  if (R && Tier != IfaTier::Full)
    upgradeIfa();
  return R ? &R->RD : nullptr;
}

const ProgramCounts *AnalysisSession::counts() {
  if (ElabState == State::NotComputed)
    buildProgram();
  return ElabState == State::Ok ? &Counts : nullptr;
}

const Digraph *AnalysisSession::graph() {
  const IFAResult *R = buildIfa();
  return R ? &R->Graph : nullptr;
}

const ElaboratedProgram *AnalysisSession::buildProgram() {
  // A program built once and dropped since is rebuilt; its front end
  // repeats the diagnostics the first run reported, so they are dropped.
  bool Rebuild = ElabState == State::Ok && !Prog;
  if (ElabState == State::NotComputed || Rebuild) {
    ++ArtifactEpoch;
    ElabState = State::Failed;
    DiagnosticEngine Repeated;
    DiagnosticEngine &D = Rebuild ? Repeated : Diags;
    // The parse tree is local and adopted by the program (it takes over
    // the tree's arena); a tree with parse errors is never elaborated.
    const std::string *Text = source();
    DesignFile Design;
    StatementProgram Stmts;
    if (Text) {
      StageTimer T(Times.ParseMs);
      if (Opts.Statements)
        Stmts = parseStatementProgram(*Text, D);
      else
        Design = parseDesign(*Text, D);
    }
    if (Text && !D.hasErrors()) {
      StageTimer T(Times.ElaborateMs);
      std::optional<ElaboratedProgram> P =
          Opts.Statements ? elaborateStatements(std::move(Stmts), D)
                          : elaborateDesign(std::move(Design), D);
      if (P && !D.hasErrors()) {
        Prog.emplace(std::move(*P));
        ProgBytes = Prog->memoryBytes();
        Counts = {Prog->Processes.size(), Prog->Signals.size(),
                  Prog->Variables.size()};
        ElabState = State::Ok;
      }
    }
  }
  return ElabState == State::Ok ? &*Prog : nullptr;
}

const ProgramCFG *AnalysisSession::buildCfg() {
  if (CfgState == State::NotComputed || (CfgState == State::Ok && !Cfg)) {
    ++ArtifactEpoch;
    CfgState = State::Failed;
    if (const ElaboratedProgram *P = buildProgram()) {
      StageTimer T(Times.CfgMs);
      Cfg.emplace(ProgramCFG::build(*P));
      CfgBytes = Cfg->memoryBytes();
      CfgState = State::Ok;
    }
  }
  return CfgState == State::Ok ? &*Cfg : nullptr;
}

uint64_t AnalysisSession::designKey() {
  return sessionCacheKey(Src, Opts);
}

const IFAResult *AnalysisSession::buildIfa() {
  if (IfaState == State::NotComputed) {
    ++ArtifactEpoch;
    IfaState = State::Failed;
    if (buildProgram()) {
      // Whole-design store hit: the matrices and the flow graph come back
      // without running any solver or building the CFG. The RD tier and
      // the CFG stay empty until some consumer actually asks for them
      // (reachingDefs()/alfp() upgrade, cfg() and kemmerer() build).
      if (Blobs) {
        StageTimer T(Times.StoreMs);
        IFAResult R;
        if (Blobs->load("dsgn", designKey(), [&](std::string_view Payload) {
              return decodeDesignArtifact(Payload, R.RMlo, R.RMgl, R.Graph);
            })) {
          R.Graph.ensureSortedViews();
          Ifa.emplace(std::move(R));
          Tier = IfaTier::Matrices;
          IfaState = State::Ok;
        }
      }
      if (IfaState != State::Ok) {
        buildCfg();
        Ifa.emplace(solveIfa());
        {
          // The graph's sorted views are part of making it: building them
          // here times them under ifaMs and leaves every later read pure.
          StageTimer T(Times.IfaMs);
          Ifa->Graph.ensureSortedViews();
        }
        IfaState = State::Ok;
        if (Blobs) {
          StageTimer T(Times.StoreMs);
          Blobs->store("dsgn", designKey(), encodeDesignArtifact(*Ifa));
        }
      }
    }
  }
  return IfaState == State::Ok ? &*Ifa : nullptr;
}

IFAResult AnalysisSession::solveIfa() {
  StageTimer T(Times.IfaMs);
  IncStats = IncrementalStats();
  return analyzeInformationFlow(*Prog, *Cfg, Opts.Ifa, Artifacts,
                                Artifacts ? &IncStats : nullptr);
}

void AnalysisSession::upgradeIfa() {
  // Recompute the solver tier and graft what the partial result lacks.
  // The flow graph (and the matrices, when held) keep their identity —
  // consumers hold pointers into them — and are byte-equal to the
  // recomputed ones by the store-key guarantee (same source, same
  // options, same pipeline). A dropped program and CFG are rebuilt
  // first.
  ++ArtifactEpoch;
  buildCfg();
  IFAResult Full = solveIfa();
  if (Tier == IfaTier::Graph) {
    Ifa->RMlo = std::move(Full.RMlo);
    Ifa->RMgl = std::move(Full.RMgl);
  }
  Tier = IfaTier::Full;
  Ifa->RDDagger = std::move(Full.RDDagger);
  Ifa->RDDaggerPhi = std::move(Full.RDDaggerPhi);
  Ifa->OutgoingLabels = std::move(Full.OutgoingLabels);
  Ifa->Active = std::move(Full.Active);
  Ifa->RD = std::move(Full.RD);
}

void AnalysisSession::dropUnreadWork() {
  if (WorkRead || IfaState != State::Ok || !holdsWork())
    return;
  ++ArtifactEpoch;
  Prog.reset();
  Cfg.reset();
  ProgBytes = CfgBytes = 0;
  // Member by member: the graph stays untouched, since readers holding a
  // keepAlive read it without the entry lock.
  Ifa->RMlo = ResourceMatrix();
  Ifa->RMgl = ResourceMatrix();
  Ifa->RDDagger = PairRows();
  Ifa->RDDaggerPhi = PairRows();
  Ifa->OutgoingLabels.clear();
  Ifa->Active = ActiveSignalsResult();
  Ifa->RD = ReachingDefsResult();
  Tier = IfaTier::Graph;
}

const KemmererResult *AnalysisSession::kemmerer() {
  if (KemmererState == State::NotComputed) {
    ++ArtifactEpoch;
    KemmererState = State::Failed;
    const ElaboratedProgram *P = buildProgram();
    const ProgramCFG *C = buildCfg();
    if (P && C) {
      StageTimer T(Times.KemmererMs);
      Kemm.emplace(analyzeKemmerer(*P, *C));
      KemmererState = State::Ok;
    }
  }
  return KemmererState == State::Ok ? &*Kemm : nullptr;
}

const AlfpClosureResult *AnalysisSession::alfp() {
  if (AlfpState == State::NotComputed) {
    ++ArtifactEpoch;
    AlfpState = State::Failed;
    const IFAResult *Native = buildIfa();
    // The ALFP re-derivation consumes the RD tier a partial result does
    // not carry.
    if (Native && Tier != IfaTier::Full)
      upgradeIfa();
    if (Native) {
      StageTimer T(Times.AlfpMs);
      Alfp.emplace(closeWithAlfp(*buildProgram(), *buildCfg(), *Native,
                                 Opts.Ifa));
      AlfpState = State::Ok;
    }
  }
  return AlfpState == State::Ok ? &*Alfp : nullptr;
}

const query::FlowQueryEngine *AnalysisSession::queryEngine() {
  if (QueryState == State::NotComputed) {
    ++ArtifactEpoch;
    QueryState = State::Failed;
    if (const IFAResult *R = buildIfa()) {
      if (Blobs) {
        StageTimer T(Times.StoreMs);
        if (Blobs->load("qidx", designKey(), [&](std::string_view Payload) {
              if (auto E = decodeQueryIndex(Payload, R->Graph))
                Query.emplace(std::move(*E));
              return Query.has_value();
            }))
          QueryState = State::Ok;
      }
      if (QueryState != State::Ok) {
        {
          StageTimer T(Times.QueryMs);
          Query.emplace(R->Graph);
        }
        QueryState = State::Ok;
        if (Blobs) {
          StageTimer T(Times.StoreMs);
          Blobs->store("qidx", designKey(), encodeQueryIndex(*Query));
        }
      }
    }
  }
  return QueryState == State::Ok ? &*Query : nullptr;
}

size_t AnalysisSession::memoryBytes() const {
  size_t Bytes = answerBytes() + ProgBytes + CfgBytes;
  if (Ifa && Tier != IfaTier::Graph)
    Bytes += Ifa->memoryBytes() - Ifa->Graph.memoryBytes();
  return Bytes;
}

size_t AnalysisSession::answerBytes() const {
  size_t Bytes = sizeof(AnalysisSession) + Src.capacity() + Name.capacity() +
                 Diags.memoryBytes();
  if (Ifa)
    Bytes += Ifa->Graph.memoryBytes();
  if (Kemm)
    Bytes += Kemm->memoryBytes();
  if (Alfp)
    Bytes += Alfp->memoryBytes();
  if (Query)
    Bytes += Query->memoryBytes();
  return Bytes;
}
