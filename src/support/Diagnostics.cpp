//===- support/Diagnostics.cpp --------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"

#include <ostream>
#include <sstream>

using namespace vif;

const char *vif::severityName(DiagSeverity Sev) {
  switch (Sev) {
  case DiagSeverity::Note:
    return "note";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Error:
    return "error";
  }
  return "unknown";
}

void DiagnosticEngine::report(DiagSeverity Sev, SourceLoc Loc,
                              std::string Message) {
  if (Sev == DiagSeverity::Error)
    ++NumErrors;
  Diags.push_back(Diagnostic{Sev, Loc, std::move(Message)});
}

void DiagnosticEngine::print(std::ostream &OS) const {
  for (const Diagnostic &D : Diags)
    OS << D.Loc.str() << ": " << severityName(D.Severity) << ": " << D.Message
       << '\n';
}

std::string DiagnosticEngine::str() const {
  std::ostringstream OS;
  print(OS);
  return OS.str();
}

size_t DiagnosticEngine::memoryBytes() const {
  size_t Bytes = Diags.capacity() * sizeof(Diagnostic);
  for (const Diagnostic &D : Diags)
    Bytes += D.Message.capacity();
  return Bytes;
}
