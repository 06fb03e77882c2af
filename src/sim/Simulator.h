//===- sim/Simulator.h - SOS simulator for VHDL1 ----------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes elaborated programs under the structural operational semantics
/// of paper Section 3:
///
///  * rule [H]: each process runs locally (statement steps of Table 2) until
///    it reaches a wait statement; interleaving between processes is
///    irrelevant because processes share no mutable state between
///    synchronization points;
///  * rule [A]: when all processes are waiting and at least one signal is
///    active somewhere, a delta-cycle fires: every signal with drivers gets
///    the resolution fs of the multiset of its active values as new present
///    value, all active values are cleared, and a waiting process resumes
///    iff one of its waited-on signals changed present value and its until
///    condition evaluates to '1' on the new store.
///
/// The environment is modeled exactly like the paper's π process: callers
/// drive active values onto port signals (driveSignal) which participate in
/// the next resolution.
///
/// Departures from the letter of the paper, both documented in DESIGN.md:
///  * present-value stores are shared rather than per-process; the [A] rule
///    assigns every process the same resolved values, so the per-process
///    copies are provably identical at every observation point;
///  * a slice assignment to a signal with no pending active value starts
///    from the signal's present value (the paper's update notation leaves
///    the untouched elements unspecified).
///
//===----------------------------------------------------------------------===//

#ifndef VIF_SIM_SIMULATOR_H
#define VIF_SIM_SIMULATOR_H

#include "sema/Elaborator.h"
#include "sim/ExprEval.h"
#include "sim/Value.h"

#include <optional>
#include <string>
#include <vector>

namespace vif {

/// Why a run() returned.
enum class SimStatus {
  Quiescent, ///< all processes waiting/finished and no signal active
  MaxDeltas, ///< the delta budget was exhausted
  Stuck,     ///< a semantic side condition failed (condition not '0'/'1',
             ///< or a process exceeded the per-phase step budget)
};

const char *simStatusName(SimStatus S);

/// One recorded present-value change.
struct TraceEvent {
  unsigned Delta;  ///< delta-cycle counter (1-based)
  unsigned SigId;
  Value Old;
  Value New;
};

class Simulator {
public:
  struct Options {
    /// Upper bound on statement steps a process may take between two
    /// synchronization points before the run is declared stuck.
    size_t MaxStepsPerPhase = 1u << 22;
    /// Record present-value changes into trace().
    bool RecordTrace = false;
  };

  explicit Simulator(const ElaboratedProgram &Program);
  Simulator(const ElaboratedProgram &Program, Options Opts);

  /// Drives \p V onto signal \p SigId as an environment active value for the
  /// next delta-cycle (the π-process model of the environment).
  void driveSignal(unsigned SigId, Value V);

  /// Runs until quiescence, a stuck state, or \p MaxDeltas delta-cycles.
  SimStatus run(unsigned MaxDeltas = 1u << 16);

  /// Present value of a signal / current value of a variable.
  const Value &presentValue(unsigned SigId) const;
  const Value &variableValue(unsigned VarId) const;

  unsigned deltasExecuted() const { return Deltas; }
  const std::vector<TraceEvent> &trace() const { return Trace; }

  /// True if process \p ProcId is parked at a wait statement.
  bool isWaiting(unsigned ProcId) const;

  /// Diagnostic description of why the simulation got stuck, if it did.
  const std::string &stuckReason() const { return StuckReason; }

private:
  struct Process {
    /// Continuation stack; the top is executed next. While statements are
    /// re-pushed before their body to realize the paper's loop unrolling
    /// rule.
    std::vector<const Stmt *> Cont;
    const WaitStmt *WaitingAt = nullptr;
    std::vector<Value> Vars; ///< σ_i, indexed by global variable id
    /// ϕ_i s 1 — this process's pending active values.
    std::vector<std::optional<Value>> Active;
  };

  /// Runs one process until wait/finish; false if stuck.
  bool runProcess(unsigned ProcId);
  /// Executes one statement for a process; false if stuck.
  bool execStmt(unsigned ProcId, const Stmt &S);
  /// Applies rule [A]; false if nothing was active.
  bool synchronize();

  /// σ/ϕ view for one process.
  class ProcessContext;

  const ElaboratedProgram &Program;
  Options Opts;
  std::vector<Process> Procs;
  std::vector<Value> Present; ///< shared ϕ s 0
  std::vector<std::optional<Value>> EnvActive; ///< π-process drivers
  unsigned Deltas = 0;
  std::vector<TraceEvent> Trace;
  std::string StuckReason;
};

} // namespace vif

#endif // VIF_SIM_SIMULATOR_H
