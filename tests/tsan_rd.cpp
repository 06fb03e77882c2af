//===- tests/tsan_rd.cpp - ThreadSanitizer drive of the parallel solvers --===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
// A plain main() (no gtest, so every instruction in the binary is
// TSan-instrumented) that runs the parallel per-process rd fan-out under
// contention and checks the results against serial runs. Built with
// -fsanitize=thread when the toolchain supports it and registered as
// ctest vifc_tsan_rd; any data race in the fan-out — concurrent reads of
// the CFG's flow store, LazyPairSets slot writes, iteration accounting,
// the Table 5 kill/gen fill reading the shared Table 4 rows, concurrent
// artifact table lookups — aborts the test through TSan's reporting.
//
//===----------------------------------------------------------------------===//

#include "cfg/CFG.h"
#include "parse/Parser.h"
#include "rd/Incremental.h"
#include "workloads/Synthetic.h"

#include <cstdio>
#include <optional>
#include <string>

using namespace vif;

namespace {

bool checkDesign(const std::string &Source, const char *What) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(Source, Diags);
  std::optional<ElaboratedProgram> P;
  if (!Diags.hasErrors())
    P = elaborateDesign(F, Diags);
  if (!P) {
    std::fprintf(stderr, "tsan_rd: %s does not elaborate:\n%s", What,
                 Diags.str().c_str());
    return false;
  }

  // Serial reference: the driver of the pipeline, cold, on one thread.
  ProgramCFG SerialCFG = ProgramCFG::build(*P);
  ProcessArtifactTable SerialTable;
  ActiveSignalsResult SerialActive;
  ReachingDefsResult SerialRD;
  analyzeIncremental(*P, SerialCFG, {}, SerialTable, SerialActive, SerialRD);

  for (unsigned Jobs : {2u, 4u, 8u}) {
    // A fresh CFG per run: the threads share nothing from an earlier run
    // but the program, and every result must match the serial one.
    ProgramCFG CFG = ProgramCFG::build(*P);
    ActiveSignalsResult Active = analyzeActiveSignals(*P, CFG, Jobs);
    ReachingDefsOptions Opts;
    Opts.Jobs = Jobs;
    // The driver cold (every process misses), then warm over the same
    // table (every process hits).
    ProcessArtifactTable Table;
    ActiveSignalsResult IncActive, WarmActive;
    ReachingDefsResult RD, WarmRD;
    analyzeIncremental(*P, CFG, Opts, Table, IncActive, RD);
    analyzeIncremental(*P, CFG, Opts, Table, WarmActive, WarmRD);

    if (RD.Iterations != SerialRD.Iterations ||
        Active.Iterations != SerialActive.Iterations ||
        WarmRD.Iterations != SerialRD.Iterations ||
        IncActive.Iterations != SerialActive.Iterations) {
      std::fprintf(stderr, "tsan_rd: %s jobs=%u iteration counts diverge\n",
                   What, Jobs);
      return false;
    }
    for (LabelId L = 1; L <= CFG.numLabels(); ++L)
      if (!(RD.Entry[L] == SerialRD.Entry[L]) ||
          !(RD.Exit[L] == SerialRD.Exit[L]) ||
          !(WarmRD.Entry[L] == SerialRD.Entry[L]) ||
          !(WarmRD.Exit[L] == SerialRD.Exit[L]) ||
          !(Active.MayEntry[L] == SerialActive.MayEntry[L]) ||
          !(Active.MustExit[L] == SerialActive.MustExit[L]) ||
          !(IncActive.MayEntry[L] == SerialActive.MayEntry[L]) ||
          !(WarmActive.MustExit[L] == SerialActive.MustExit[L])) {
        std::fprintf(stderr, "tsan_rd: %s jobs=%u differs at label %u\n",
                     What, Jobs, L);
        return false;
      }
  }
  return true;
}

} // namespace

int main() {
  bool Ok = true;
  // Several rounds so thread interleavings vary.
  for (int Round = 0; Round < 3 && Ok; ++Round) {
    Ok = Ok && checkDesign(workloads::syncMeshDesign(8, 3, 6), "mesh");
    Ok = Ok && checkDesign(workloads::pipelineDesign(12), "pipeline");
    for (uint64_t Seed = 1; Seed <= 4 && Ok; ++Seed)
      Ok = Ok && checkDesign(workloads::randomDesign(Seed, 6, 8, 4),
                             "random");
  }
  if (Ok)
    std::puts("tsan_rd: all parallel runs matched serial results");
  return Ok ? 0 : 1;
}
