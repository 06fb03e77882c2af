//===- cfg/CFG.h - Labels, blocks and flow relations ------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The labeling scheme of paper Section 4 ("Common analysis domains"): every
/// elementary block — null, assignments, waits and the conditions of if and
/// while — gets a label that is unique across the whole program, so "to each
/// label there is a unique process identifier in which it occurs". Per
/// process we expose blocks(ss), flow(ss), init(ss) and the wait-label set
/// WS(ss); across processes the cross-flow relation cf, "the Cartesian
/// product of the set of labels of wait statements in each process".
///
/// cf is exponential when materialized; the analyses need only two
/// byproducts, both provided here in factored form:
///  * cfCompatible(l, l'): do l and l' occur together in some tuple? Since
///    components range independently, this holds iff both are wait labels
///    and they sit in different processes (or are the same label).
///  * quantifications of the form "⋃/⋂ over tuples through l" which the rd
///    module computes from per-process aggregates (see rd/ReachingDefs.cpp).
/// The explicit tuple enumeration lives with the test-only oracles
/// (tests/oracle/), which check the factored forms against the definition.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_CFG_CFG_H
#define VIF_CFG_CFG_H

#include "sema/Elaborator.h"

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace vif {

/// A program point label. Real blocks get labels 1..numLabels(); label 0 is
/// the paper's special "?" pseudo-label standing for "defined by the initial
/// value". Outgoing pseudo-labels l_{n•} (Table 9) are allocated above all
/// real labels by the ifa module.
using LabelId = uint32_t;

/// The paper's "?" label.
constexpr LabelId InitialLabel = 0;

/// One elementary block [B]^l.
struct CFGBlock {
  enum class Kind : uint8_t {
    Null,         ///< [null]^l
    VarAssign,    ///< [x := e]^l, possibly sliced
    SignalAssign, ///< [s <= e]^l, possibly sliced
    Wait,         ///< [wait on S until e]^l
    Cond,         ///< [e]^l — the test of an if or while
  };

  LabelId Label = InitialLabel;
  Kind K = Kind::Null;
  const Stmt *S = nullptr;  ///< the block's statement; for Cond, the If/While
  const Expr *Cond = nullptr; ///< the test expression for Cond blocks
  unsigned ProcessId = 0;

  bool isWait() const { return K == Kind::Wait; }
};

/// Flow facts for one process. Its labels are one contiguous run,
/// FirstLabel .. FirstLabel + NumLabels - 1, and a label's local index is
/// its offset in the run. flow(ss) lives in the program-wide adjacency of
/// ProgramCFG (succs/preds).
struct ProcessCFG {
  unsigned ProcessId = 0;
  LabelId FirstLabel = InitialLabel;     ///< the lowest label of the run
  uint32_t NumLabels = 0;                ///< blocks(ss) has this many labels
  LabelId Init = InitialLabel;           ///< init(ss)
  std::vector<LabelId> Finals;           ///< final(ss)
  std::vector<LabelId> WaitLabels;       ///< WS(ss), ascending
  std::vector<unsigned> FreeVars;        ///< FV(ss), sorted ids
  std::vector<unsigned> FreeSigs;        ///< FS(ss), sorted ids

  /// The label at local index \p I.
  LabelId label(uint32_t I) const { return FirstLabel + I; }
  /// One past the last label of the run.
  LabelId endLabel() const { return FirstLabel + NumLabels; }
  /// The local index of \p L, which must be a label of this process.
  uint32_t localOf(LabelId L) const {
    assert(L - FirstLabel < NumLabels && "label not in process");
    return L - FirstLabel;
  }
};

/// Whole-program control flow facts, complete once built.
class ProgramCFG {
public:
  /// Builds the CFG for every process of \p Program. The program must have
  /// been elaborated without errors.
  static ProgramCFG build(const ElaboratedProgram &Program);

  /// A CFG from explicit blocks (Blocks[l-1] is label l), processes (each
  /// a contiguous run of labels) and flow edges in order: build() is this
  /// over the elaborated program. Blocks may carry no statement, so the
  /// tests also hand-build flow shapes the builder never emits (self-loops,
  /// duplicate edges) with it.
  static ProgramCFG
  fromFlow(std::vector<CFGBlock> Blocks, std::vector<ProcessCFG> Procs,
           const std::vector<std::pair<LabelId, LabelId>> &Flow);

  const std::vector<ProcessCFG> &processes() const { return Procs; }
  const ProcessCFG &process(unsigned Id) const {
    assert(Id < Procs.size() && "process id out of range");
    return Procs[Id];
  }

  /// Total number of real labels; labels run 1..numLabels().
  size_t numLabels() const { return Blocks.size(); }

  const CFGBlock &block(LabelId L) const {
    assert(L >= 1 && L <= Blocks.size() && "label out of range");
    return Blocks[L - 1];
  }
  unsigned processOf(LabelId L) const { return block(L).ProcessId; }

  /// The label of an elementary statement block (assignment, wait, null).
  LabelId labelOf(const Stmt *S) const;

  /// True if wait labels \p A and \p B occur together in some cf tuple.
  bool cfCompatible(LabelId A, LabelId B) const;

  /// Whether \p L is a wait label (member of some WS(ss_i)).
  bool isWaitLabel(LabelId L) const { return block(L).isWait(); }

  /// All wait labels of the program, ascending (the paper's WS).
  std::vector<LabelId> allWaitLabels() const;

  /// Heap footprint in bytes.
  size_t memoryBytes() const;

  /// A run of local label indices of one process.
  struct Range {
    const uint32_t *First;
    const uint32_t *Last;
    const uint32_t *begin() const { return First; }
    const uint32_t *end() const { return Last; }
    size_t size() const { return static_cast<size_t>(Last - First); }
    bool empty() const { return First == Last; }
    uint32_t operator[](size_t I) const { return First[I]; }
  };

  /// The successors / predecessors of \p L under flow(ss) of its process,
  /// as local indices, in the order build() met the edges.
  Range succs(LabelId L) const { return row(SuccStart, SuccList, L); }
  Range preds(LabelId L) const { return row(PredStart, PredList, L); }

  /// \p P's local indices in reverse postorder from init(ss); labels
  /// unreachable from init (possible in synthetic CFGs) follow in
  /// ascending order, so every label appears once.
  Range rpo(const ProcessCFG &P) const {
    const uint32_t *First = RPO.data() + (P.FirstLabel - 1);
    return {First, First + P.NumLabels};
  }

private:
  static Range row(const std::vector<uint32_t> &Start,
                   const std::vector<uint32_t> &List, LabelId L) {
    assert(L >= 1 && L + 1 < Start.size() && "label out of range");
    return {List.data() + Start[L], List.data() + Start[L + 1]};
  }

  std::vector<CFGBlock> Blocks; ///< Blocks[l-1] is the block labeled l
  std::vector<ProcessCFG> Procs;
  /// (statement, label) of every elementary block, sorted by statement.
  std::vector<std::pair<const Stmt *, LabelId>> StmtLabels;
  /// flow(ss) of every process as CSR rows indexed by label: label L's
  /// successors are SuccList[SuccStart[L] .. SuccStart[L + 1]), and its
  /// predecessors likewise.
  std::vector<uint32_t> SuccStart, SuccList, PredStart, PredList;
  /// Each process's reverse postorder, at its labels' positions: process
  /// P's occupies RPO[P.FirstLabel - 1 ..] (see rpo()).
  std::vector<uint32_t> RPO;
};

} // namespace vif

#endif // VIF_CFG_CFG_H
