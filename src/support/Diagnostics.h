//===- support/Diagnostics.h - Diagnostic engine ----------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small diagnostic engine. Library code never throws; parse and
/// elaboration failures are reported here and callers test hasErrors().
///
//===----------------------------------------------------------------------===//

#ifndef VIF_SUPPORT_DIAGNOSTICS_H
#define VIF_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLoc.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace vif {

enum class DiagSeverity { Note, Warning, Error };

/// Renders a severity as the lowercase tag used in diagnostic output.
const char *severityName(DiagSeverity Sev);

/// One reported diagnostic.
struct Diagnostic {
  DiagSeverity Severity;
  SourceLoc Loc;
  std::string Message;
};

/// Collects diagnostics produced while processing one source unit.
///
/// The engine is deliberately append-only: analyses downstream of a failed
/// phase check hasErrors() and bail out rather than inspecting partial
/// results.
class DiagnosticEngine {
public:
  void error(SourceLoc Loc, std::string Message) {
    report(DiagSeverity::Error, Loc, std::move(Message));
  }
  void warning(SourceLoc Loc, std::string Message) {
    report(DiagSeverity::Warning, Loc, std::move(Message));
  }
  void note(SourceLoc Loc, std::string Message) {
    report(DiagSeverity::Note, Loc, std::move(Message));
  }
  void report(DiagSeverity Sev, SourceLoc Loc, std::string Message);

  bool hasErrors() const { return NumErrors != 0; }
  unsigned errorCount() const { return NumErrors; }
  const std::vector<Diagnostic> &all() const { return Diags; }
  bool empty() const { return Diags.empty(); }

  /// Prints every diagnostic as "line:col: severity: message".
  void print(std::ostream &OS) const;

  /// Concatenation of all rendered diagnostics; convenient in tests.
  std::string str() const;

  /// Heap footprint in bytes: the diagnostic array and every message's
  /// buffer (cache byte-budget accounting).
  size_t memoryBytes() const;

private:
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace vif

#endif // VIF_SUPPORT_DIAGNOSTICS_H
