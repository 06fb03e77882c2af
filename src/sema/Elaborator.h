//===- sema/Elaborator.h - VHDL1 elaboration --------------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Elaboration turns a parsed DesignFile into the flat process model the
/// paper's semantics and analyses operate on (Section 3.3, "Architectures"):
///
///  * the architecture is bound to its entity; ports become signals tagged
///    with their mode;
///  * blocks are flattened, their local signals added to the signal table
///    with lexical scoping;
///  * concurrent signal assignments are rewritten into equivalent processes
///    ("a process that is sensitive to the free signals in the right-hand
///    side expression and that has the same assignment inside");
///  * process bodies are wrapped as `null; while '1' loop ss end loop`,
///    matching the paper's rewriting of process declarations;
///  * every name is resolved to a variable or signal and every expression
///    type-checked; `wait` statements get their defaulted `on` sets
///    materialized (S = FS(e), e = true).
///
/// A second entry point elaborates a bare statement list as a single
/// anonymous process with implicitly declared scalar variables; this is how
/// the paper's running examples (a) `c:=b; b:=a` and (b) `b:=a; c:=b` are
/// analyzed.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_SEMA_ELABORATOR_H
#define VIF_SEMA_ELABORATOR_H

#include "ast/Design.h"
#include "support/Diagnostics.h"

#include <optional>
#include <string>
#include <vector>

namespace vif {

/// How a signal relates to the environment. Port signals are the program's
/// interface: the improved Information Flow analysis (paper Table 9) attaches
/// incoming nodes (s◦) to In/InOut ports and outgoing nodes (s•) to Out/InOut
/// ports via the conceptual π process.
enum class SignalClass : uint8_t { Internal, PortIn, PortOut, PortInOut };

const char *signalClassName(SignalClass C);

/// A signal after elaboration.
struct ElabSignal {
  unsigned Id = 0;
  std::string Name;       ///< source name
  std::string UniqueName; ///< disambiguated across scopes
  Type Ty;
  SignalClass Class = SignalClass::Internal;
  ExprPtr Init; ///< literal initializer or null ('U'-filled default)

  bool isInput() const {
    return Class == SignalClass::PortIn || Class == SignalClass::PortInOut;
  }
  bool isOutput() const {
    return Class == SignalClass::PortOut || Class == SignalClass::PortInOut;
  }
};

/// A process-local variable after elaboration.
struct ElabVariable {
  unsigned Id = 0;
  std::string Name;
  std::string UniqueName; ///< qualified with the process name on collision
  Type Ty;
  ExprPtr Init; ///< literal initializer or null
  unsigned ProcessId = 0;
};

/// A process after elaboration. When Looped, Body already has the paper's
/// `null; while '1' do ss` shape.
struct ElabProcess {
  unsigned Id = 0;
  std::string Name;
  StmtPtr Body;
  std::vector<unsigned> Variables;
  bool Looped = true;
};

/// The flat program model shared by the simulator and all analyses.
struct ElaboratedProgram {
  std::vector<ElabSignal> Signals;
  std::vector<ElabVariable> Variables;
  std::vector<ElabProcess> Processes;

  const ElabSignal &signal(unsigned Id) const {
    assert(Id < Signals.size() && "signal id out of range");
    return Signals[Id];
  }
  const ElabVariable &variable(unsigned Id) const {
    assert(Id < Variables.size() && "variable id out of range");
    return Variables[Id];
  }
  const ElabProcess &process(unsigned Id) const {
    assert(Id < Processes.size() && "process id out of range");
    return Processes[Id];
  }

  /// Ids of all In/InOut resp. Out/InOut port signals.
  std::vector<unsigned> inputSignals() const;
  std::vector<unsigned> outputSignals() const;
};

/// Elaboration options.
struct ElaborateOptions {
  /// Architecture to elaborate; empty selects the only/first one.
  std::string ArchitectureName;
};

/// Elaborates \p File; returns nullopt and reports diagnostics on error.
std::optional<ElaboratedProgram>
elaborateDesign(const DesignFile &File, DiagnosticEngine &Diags,
                const ElaborateOptions &Opts = ElaborateOptions());

/// Elaborates a bare statement list as one anonymous, non-looped process.
/// Objects may be declared up front via \p Decls (variables and signals of
/// any type); any remaining free name is implicitly declared — as a scalar
/// internal signal when it is assigned with `<=` or waited on, as a scalar
/// variable otherwise. This is the harness for the paper's statement-level
/// examples.
std::optional<ElaboratedProgram>
elaborateStatements(const Stmt &Body, DiagnosticEngine &Diags,
                    const std::vector<Decl> *Decls = nullptr);

/// Collects the free variables FV(e) / free signals FS(e) of a resolved
/// expression into sorted id vectors (paper Section 2 notation).
void collectExprObjects(const Expr &E, std::vector<unsigned> &Vars,
                        std::vector<unsigned> &Sigs);

/// FV(ss) and FS(ss) over a resolved statement, including targets, wait-on
/// sets and until conditions.
void collectStmtObjects(const Stmt &S, std::vector<unsigned> &Vars,
                        std::vector<unsigned> &Sigs);

} // namespace vif

#endif // VIF_SEMA_ELABORATOR_H
