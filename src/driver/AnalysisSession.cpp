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
  if (ElabState == State::NotComputed) {
    ++ArtifactEpoch;
    ElabState = State::Failed;
    // The parse tree is local and adopted by the program (it takes over
    // the tree's arena); a tree with parse errors is never elaborated.
    const std::string *Text = source();
    DesignFile Design;
    StatementProgram Stmts;
    if (Text) {
      StageTimer T(Times.ParseMs);
      if (Opts.Statements)
        Stmts = parseStatementProgram(*Text, Diags);
      else
        Design = parseDesign(*Text, Diags);
    }
    if (Text && !Diags.hasErrors()) {
      StageTimer T(Times.ElaborateMs);
      std::optional<ElaboratedProgram> P =
          Opts.Statements ? elaborateStatements(std::move(Stmts), Diags)
                          : elaborateDesign(std::move(Design), Diags);
      if (P && !Diags.hasErrors()) {
        Prog.emplace(std::move(*P));
        ProgBytes = Prog->memoryBytes();
        ElabState = State::Ok;
      }
    }
  }
  return ElabState == State::Ok ? &*Prog : nullptr;
}

const ProgramCFG *AnalysisSession::cfg() {
  if (CfgState == State::NotComputed) {
    ++ArtifactEpoch;
    CfgState = State::Failed;
    if (const ElaboratedProgram *P = program()) {
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

const IFAResult *AnalysisSession::ifa() {
  if (IfaState == State::NotComputed) {
    ++ArtifactEpoch;
    IfaState = State::Failed;
    if (program() && cfg()) {
      // Whole-design store hit: the matrices and the flow graph come back
      // without running any solver. The RD tier stays empty until some
      // consumer actually asks for it (reachingDefs()/alfp() upgrade).
      if (Blobs) {
        StageTimer T(Times.StoreMs);
        IFAResult R;
        if (Blobs->load("dsgn", designKey(), [&](std::string_view Payload) {
              return decodeDesignArtifact(Payload, R.RMlo, R.RMgl, R.Graph);
            })) {
          R.Graph.ensureSortedViews();
          Ifa.emplace(std::move(R));
          IfaPartial = true;
          IfaState = State::Ok;
        }
      }
      if (IfaState != State::Ok) {
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
  // Recompute the solver tier and graft it into the partial result. The
  // matrices and the flow graph keep their identity — consumers hold
  // pointers into them — and are byte-equal to the recomputed ones by the
  // store-key guarantee (same source, same options, same pipeline).
  ++ArtifactEpoch;
  IfaPartial = false;
  IFAResult Full = solveIfa();
  Ifa->RDDagger = std::move(Full.RDDagger);
  Ifa->RDDaggerPhi = std::move(Full.RDDaggerPhi);
  Ifa->OutgoingLabels = std::move(Full.OutgoingLabels);
  Ifa->Active = std::move(Full.Active);
  Ifa->RD = std::move(Full.RD);
}

const ReachingDefsResult *AnalysisSession::reachingDefs() {
  const IFAResult *R = ifa();
  if (R && IfaPartial) {
    upgradeIfa();
    R = &*Ifa;
  }
  return R ? &R->RD : nullptr;
}

const KemmererResult *AnalysisSession::kemmerer() {
  if (KemmererState == State::NotComputed) {
    ++ArtifactEpoch;
    KemmererState = State::Failed;
    const ElaboratedProgram *P = program();
    const ProgramCFG *C = cfg();
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
    const IFAResult *Native = ifa();
    if (Native && IfaPartial) {
      // The ALFP re-derivation consumes the RD tier a partial result
      // does not carry.
      upgradeIfa();
      Native = &*Ifa;
    }
    if (Native) {
      StageTimer T(Times.AlfpMs);
      Alfp.emplace(closeWithAlfp(*program(), *cfg(), *Native, Opts.Ifa));
      AlfpState = State::Ok;
    }
  }
  return AlfpState == State::Ok ? &*Alfp : nullptr;
}

const query::FlowQueryEngine *AnalysisSession::queryEngine() {
  if (QueryState == State::NotComputed) {
    ++ArtifactEpoch;
    QueryState = State::Failed;
    if (const IFAResult *R = ifa()) {
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
  size_t Bytes = sizeof(AnalysisSession) + Src.capacity() + Name.capacity() +
                 ProgBytes + CfgBytes;
  if (Ifa)
    Bytes += Ifa->memoryBytes();
  if (Kemm)
    Bytes += Kemm->memoryBytes();
  if (Alfp)
    Bytes += Alfp->memoryBytes();
  if (Query)
    Bytes += Query->memoryBytes();
  return Bytes;
}
