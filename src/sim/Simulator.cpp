//===- sim/Simulator.cpp --------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "support/Casting.h"

using namespace vif;

const char *vif::simStatusName(SimStatus S) {
  switch (S) {
  case SimStatus::Quiescent:
    return "quiescent";
  case SimStatus::MaxDeltas:
    return "max-deltas";
  case SimStatus::Stuck:
    return "stuck";
  }
  return "?";
}

/// The ⟨σ_i, ϕ⟩ view rule [H] evaluates expressions in.
class Simulator::ProcessContext : public EvalContext {
public:
  ProcessContext(const Simulator &Sim, unsigned ProcId)
      : Sim(Sim), ProcId(ProcId) {}

  Value readVariable(unsigned VarId) const override {
    return Sim.Procs[ProcId].Vars[VarId];
  }
  Value readSignalPresent(unsigned SigId) const override {
    return Sim.Present[SigId];
  }

private:
  const Simulator &Sim;
  unsigned ProcId;
};

Simulator::Simulator(const ElaboratedProgram &Program)
    : Simulator(Program, Options()) {}

Simulator::Simulator(const ElaboratedProgram &Program, Options Opts)
    : Program(Program), Opts(Opts) {
  Present.reserve(Program.Signals.size());
  for (const ElabSignal &S : Program.Signals)
    Present.push_back(S.Init ? evalLiteral(*S.Init)
                             : Value::defaultFor(S.Ty));
  EnvActive.assign(Program.Signals.size(), std::nullopt);

  Procs.resize(Program.Processes.size());
  for (const ElabProcess &P : Program.Processes) {
    Process &Proc = Procs[P.Id];
    Proc.Cont.push_back(P.Body.get());
    Proc.Active.assign(Program.Signals.size(), std::nullopt);
    Proc.Vars.reserve(Program.Variables.size());
    for (const ElabVariable &V : Program.Variables)
      Proc.Vars.push_back(V.Init ? evalLiteral(*V.Init)
                                 : Value::defaultFor(V.Ty));
  }
}

void Simulator::driveSignal(unsigned SigId, Value V) {
  assert(SigId < Program.Signals.size() && "signal id out of range");
  assert(V.width() == Program.signal(SigId).Ty.width() &&
         "driver width mismatch");
  if (EnvActive[SigId])
    EnvActive[SigId] = EnvActive[SigId]->resolveWith(V);
  else
    EnvActive[SigId] = std::move(V);
}

const Value &Simulator::presentValue(unsigned SigId) const {
  assert(SigId < Present.size() && "signal id out of range");
  return Present[SigId];
}

const Value &Simulator::variableValue(unsigned VarId) const {
  assert(VarId < Program.Variables.size() && "variable id out of range");
  return Procs[Program.variable(VarId).ProcessId].Vars[VarId];
}

bool Simulator::isWaiting(unsigned ProcId) const {
  return Procs[ProcId].WaitingAt != nullptr;
}

bool Simulator::execStmt(unsigned ProcId, const Stmt &S) {
  Process &Proc = Procs[ProcId];
  ProcessContext Ctx(*this, ProcId);
  switch (S.kind()) {
  case Stmt::Kind::Null:
    return true;
  case Stmt::Kind::VarAssign: {
    const auto *A = cast<VarAssignStmt>(&S);
    Value V = evalExpr(A->value(), Ctx, Program);
    unsigned VarId = A->targetRef().Id;
    if (!A->hasSlice()) {
      Proc.Vars[VarId] = std::move(V);
      return true;
    }
    const Type &Ty = Program.variable(VarId).Ty;
    const SliceSpec &Sl = A->slice();
    Proc.Vars[VarId].asVector().setSlicePos(
        Ty.slicePosition(Sl.Z1, Sl.Z2, Sl.Downto), V.asVector());
    return true;
  }
  case Stmt::Kind::SignalAssign: {
    const auto *A = cast<SignalAssignStmt>(&S);
    Value V = evalExpr(A->value(), Ctx, Program);
    unsigned SigId = A->targetRef().Id;
    if (!A->hasSlice()) {
      Proc.Active[SigId] = std::move(V);
      return true;
    }
    // Slice assignment: update positions of the pending active value,
    // starting from the present value when no assignment is pending.
    const Type &Ty = Program.signal(SigId).Ty;
    const SliceSpec &Sl = A->slice();
    if (!Proc.Active[SigId])
      Proc.Active[SigId] = Present[SigId];
    Proc.Active[SigId]->asVector().setSlicePos(
        Ty.slicePosition(Sl.Z1, Sl.Z2, Sl.Downto), V.asVector());
    return true;
  }
  case Stmt::Kind::Wait:
    Proc.WaitingAt = cast<WaitStmt>(&S);
    return true;
  case Stmt::Kind::Compound: {
    const auto &Stmts = cast<CompoundStmt>(&S)->stmts();
    for (auto It = Stmts.rbegin(); It != Stmts.rend(); ++It)
      Proc.Cont.push_back(It->get());
    return true;
  }
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(&S);
    Value C = evalExpr(I->cond(), Ctx, Program);
    if (!C.isScalar() ||
        (C.asScalar() != StdLogic::One && C.asScalar() != StdLogic::Zero)) {
      StuckReason = "if condition evaluated to " + C.str() +
                    " (neither '0' nor '1')";
      return false;
    }
    Proc.Cont.push_back(C.asScalar() == StdLogic::One ? &I->thenStmt()
                                                      : &I->elseStmt());
    return true;
  }
  case Stmt::Kind::While: {
    // The paper's [Loop] rule: rewrite to if e then (ss; while e do ss)
    // else null. Realized by re-pushing the while under its body.
    const auto *W = cast<WhileStmt>(&S);
    Value C = evalExpr(W->cond(), Ctx, Program);
    if (!C.isScalar() ||
        (C.asScalar() != StdLogic::One && C.asScalar() != StdLogic::Zero)) {
      StuckReason = "while condition evaluated to " + C.str() +
                    " (neither '0' nor '1')";
      return false;
    }
    if (C.asScalar() == StdLogic::One) {
      Proc.Cont.push_back(&S);
      Proc.Cont.push_back(&W->body());
    }
    return true;
  }
  }
  assert(false && "malformed statement tree");
  return false;
}

bool Simulator::runProcess(unsigned ProcId) {
  Process &Proc = Procs[ProcId];
  size_t Steps = 0;
  while (!Proc.WaitingAt && !Proc.Cont.empty()) {
    if (++Steps > Opts.MaxStepsPerPhase) {
      StuckReason = "process '" + Program.process(ProcId).Name +
                    "' exceeded the step budget without reaching a "
                    "synchronization point";
      return false;
    }
    const Stmt *S = Proc.Cont.back();
    Proc.Cont.pop_back();
    if (!execStmt(ProcId, *S))
      return false;
  }
  return true;
}

bool Simulator::synchronize() {
  // active(ϕ): does any process or the environment hold an active value?
  bool AnyActive = false;
  for (const std::optional<Value> &V : EnvActive)
    AnyActive |= V.has_value();
  for (const Process &P : Procs)
    for (const std::optional<Value> &V : P.Active)
      AnyActive |= V.has_value();
  if (!AnyActive)
    return false;

  ++Deltas;

  // New present values: fs over the multiset of active values per signal.
  std::vector<Value> OldPresent = Present;
  for (unsigned Sig = 0; Sig < Present.size(); ++Sig) {
    std::optional<Value> Resolved = EnvActive[Sig];
    for (const Process &P : Procs) {
      if (!P.Active[Sig])
        continue;
      Resolved = Resolved ? Resolved->resolveWith(*P.Active[Sig])
                          : *P.Active[Sig];
    }
    if (!Resolved)
      continue;
    if (Opts.RecordTrace && *Resolved != Present[Sig])
      Trace.push_back(TraceEvent{Deltas, Sig, Present[Sig], *Resolved});
    Present[Sig] = std::move(*Resolved);
  }

  // ϕ' s 1 = undef for every process and the environment.
  for (Process &P : Procs)
    P.Active.assign(Program.Signals.size(), std::nullopt);
  EnvActive.assign(Program.Signals.size(), std::nullopt);

  // Wake-up: a waiting process proceeds iff one of its waited-on signals
  // changed present value and its until condition holds on the new store.
  for (unsigned ProcId = 0; ProcId < Procs.size(); ++ProcId) {
    Process &P = Procs[ProcId];
    if (!P.WaitingAt)
      continue;
    const WaitStmt *W = P.WaitingAt;
    bool Changed = false;
    for (unsigned Sig : W->onSignals())
      Changed |= Present[Sig] != OldPresent[Sig];
    if (!Changed)
      continue;
    bool CondHolds = true;
    if (W->hasUntil()) {
      ProcessContext Ctx(*this, ProcId);
      Value C = evalExpr(W->until(), Ctx, Program);
      CondHolds = C.isScalar() && C.asScalar() == StdLogic::One;
    }
    if (CondHolds)
      P.WaitingAt = nullptr;
  }
  return true;
}

SimStatus Simulator::run(unsigned MaxDeltas) {
  for (unsigned Iter = 0;; ++Iter) {
    // Rule [H]: drive every process to a synchronization point.
    for (unsigned ProcId = 0; ProcId < Procs.size(); ++ProcId)
      if (!runProcess(ProcId))
        return SimStatus::Stuck;
    if (Iter >= MaxDeltas)
      return SimStatus::MaxDeltas;
    // Rule [A].
    if (!synchronize())
      return SimStatus::Quiescent;
  }
}
