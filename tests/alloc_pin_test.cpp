//===- tests/alloc_pin_test.cpp - Heap allocations of a cold analysis -----===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
// Pins that a cold analyzeInformationFlow builds its tables as flat rows:
// Table 6 (RMlo), the Table 4/5 kill/gen, domains and solves, Table 7 and
// the Table 8 copy graph allocate a bounded number of blocks per process
// and per design, never one per label or per copy edge. This executable
// replaces the global operator new with a counting one; only the calls
// made while the counter is armed are counted.
//
//===----------------------------------------------------------------------===//

#include "ifa/InformationFlow.h"
#include "parse/Parser.h"
#include "workloads/AesVhdl.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> Armed{false};
std::atomic<size_t> Allocations{0};
} // namespace

void *operator new(std::size_t Size) {
  if (Armed.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

using namespace vif;

namespace {

/// Heap allocations made by \p F.
template <typename Fn> size_t allocationsOf(Fn F) {
  Allocations = 0;
  Armed = true;
  F();
  Armed = false;
  return Allocations;
}

TEST(AllocPin, ColdAesCoreAllocatesPerProcessNotPerLabel) {
  DiagnosticEngine Diags;
  DesignFile F = parseDesign(workloads::aesCoreDesign(1), Diags);
  auto P = elaborateDesign(std::move(F), Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ProgramCFG CFG = ProgramCFG::build(*P);
  ASSERT_EQ(CFG.numLabels(), 28995u);

  size_t Edges = 0;
  size_t N = allocationsOf([&] {
    IFAResult R = analyzeInformationFlow(*P, CFG);
    Edges = R.Graph.numEdges();
  });
  EXPECT_GT(Edges, 0u);
  // One heap block per label would be ~29 000 on its own. With a heap
  // object per label or per copy edge the run made ~150 000 (Table 6
  // ~74 000, the Table 5 kill/gen ~29 000, the copy graph ~45 000).
  RecordProperty("allocations", static_cast<int>(N));
  EXPECT_LE(N, 5000u) << N << " allocations in one cold analysis";
}

} // namespace
