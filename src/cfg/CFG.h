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

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace vif {

class FlowIndex;

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
  const Stmt *S = nullptr;  ///< owning statement (null for Cond of if/while? no: the If/While stmt)
  const Expr *Cond = nullptr; ///< the test expression for Cond blocks
  unsigned ProcessId = 0;

  bool isWait() const { return K == Kind::Wait; }
};

/// Flow facts for one process.
struct ProcessCFG {
  unsigned ProcessId = 0;
  LabelId Init = InitialLabel;           ///< init(ss)
  std::vector<LabelId> Finals;           ///< final(ss)
  std::vector<LabelId> Labels;           ///< all labels, ascending
  std::vector<std::pair<LabelId, LabelId>> Flow; ///< flow(ss)
  std::vector<LabelId> WaitLabels;       ///< WS(ss), ascending
  std::vector<unsigned> FreeVars;        ///< FV(ss), sorted ids
  std::vector<unsigned> FreeSigs;        ///< FS(ss), sorted ids

  /// Predecessors of \p L under Flow.
  std::vector<LabelId> predecessors(LabelId L) const;
};

/// Whole-program control flow facts.
class ProgramCFG {
public:
  ProgramCFG();
  ~ProgramCFG();
  ProgramCFG(ProgramCFG &&) noexcept;
  ProgramCFG &operator=(ProgramCFG &&) noexcept;

  /// Builds the CFG for every process of \p Program. The program must have
  /// been elaborated without errors.
  static ProgramCFG build(const ElaboratedProgram &Program);

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

  /// The CSR successor/predecessor adjacency + reverse postorder of
  /// process \p ProcessId (cfg/FlowIndex.h), built on first use and cached
  /// so the dense rd solvers share one copy per design. The slot vector is
  /// pre-sized, so concurrent first accesses are safe as long as they name
  /// *distinct* processes — exactly the access pattern of the parallel
  /// per-process rd solvers; two threads racing on the same process id
  /// would double-build one slot.
  const FlowIndex &flowIndex(unsigned ProcessId) const;

private:
  std::vector<CFGBlock> Blocks; ///< Blocks[l-1] is the block labeled l
  std::vector<ProcessCFG> Procs;
  std::map<const Stmt *, LabelId> StmtLabels;
  mutable std::vector<std::unique_ptr<FlowIndex>> FlowIndexes;
};

} // namespace vif

#endif // VIF_CFG_CFG_H
