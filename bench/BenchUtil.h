//===- bench/BenchUtil.h - Shared bench helpers -----------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#ifndef VIF_BENCH_BENCHUTIL_H
#define VIF_BENCH_BENCHUTIL_H

#include "parse/Parser.h"
#include "sema/Elaborator.h"
#include "support/Graph.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace vif {
namespace bench {

/// Parses + elaborates a statement program; aborts on any diagnostic.
inline ElaboratedProgram mustElaborateStatements(const std::string &Source) {
  DiagnosticEngine Diags;
  StatementProgram Prog = parseStatementProgram(Source, Diags);
  std::optional<ElaboratedProgram> P =
      Diags.hasErrors() ? std::nullopt
                        : elaborateStatements(std::move(Prog), Diags);
  if (!P) {
    std::fprintf(stderr, "bench workload failed to elaborate:\n%s\n",
                 Diags.str().c_str());
    std::abort();
  }
  return std::move(*P);
}

/// Where a bench binary's figure/table regeneration dump should go: stdout
/// normally, stderr whenever a machine-readable --benchmark_format is
/// requested, so `bench_x --benchmark_format=json > BENCH_x.json` stays one
/// parseable JSON document. Call before benchmark::Initialize (which
/// consumes the flags it recognizes).
inline std::FILE *figureStream(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--benchmark_format=", 0) == 0 &&
        Arg != "--benchmark_format=console")
      return stderr;
  }
  return stdout;
}

/// Parses + elaborates a design; aborts on any diagnostic.
inline ElaboratedProgram mustElaborateDesign(const std::string &Source) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(Source, Diags);
  std::optional<ElaboratedProgram> P =
      Diags.hasErrors() ? std::nullopt : elaborateDesign(std::move(F), Diags);
  if (!P) {
    std::fprintf(stderr, "bench workload failed to elaborate:\n%s\n",
                 Diags.str().c_str());
    std::abort();
  }
  return std::move(*P);
}

/// Prints \p G's edges as "  from->to", in sorted order.
inline void printEdges(std::FILE *Out, const Digraph &G) {
  G.forEachSortedEdge([Out](std::string_view From, std::string_view To) {
    std::fprintf(Out, "  %.*s->%.*s", static_cast<int>(From.size()),
                 From.data(), static_cast<int>(To.size()), To.data());
  });
}

} // namespace bench
} // namespace vif

#endif // VIF_BENCH_BENCHUTIL_H
