//===- cfg/FlowIndex.h - CSR adjacency + RPO for one process -----*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compressed-sparse-row successor/predecessor adjacency over one process's
/// flow relation, in local label indices (positions within the ascending
/// ProcessCFG::Labels run), built once per process and shared by the
/// dense rd solvers. Also provides a reverse postorder from init(ss), which
/// seeds the worklists so forward analyses see predecessors before
/// successors on the first sweep.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_CFG_FLOWINDEX_H
#define VIF_CFG_FLOWINDEX_H

#include "cfg/CFG.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace vif {

class FlowIndex {
public:
  explicit FlowIndex(const ProcessCFG &P);

  /// Number of labels in the process.
  size_t numLabels() const { return NumLabels; }

  /// The global label at local index \p I.
  LabelId label(size_t I) const { return First + static_cast<LabelId>(I); }

  /// The local index of global label \p L (must belong to the process).
  /// ProgramCFG::build numbers each process's labels as one contiguous
  /// run, so it is the offset from the first.
  uint32_t localOf(LabelId L) const {
    assert(L - First < NumLabels && "label not in process");
    return L - First;
  }

  /// Successors / predecessors of local index \p I, as local indices.
  struct Range {
    const uint32_t *First;
    const uint32_t *Last;
    const uint32_t *begin() const { return First; }
    const uint32_t *end() const { return Last; }
    size_t size() const { return static_cast<size_t>(Last - First); }
    bool empty() const { return First == Last; }
  };
  Range succs(uint32_t I) const {
    return {SuccList.data() + SuccStart[I], SuccList.data() + SuccStart[I + 1]};
  }
  Range preds(uint32_t I) const {
    return {PredList.data() + PredStart[I], PredList.data() + PredStart[I + 1]};
  }

  /// All local indices in reverse postorder from init(ss); labels
  /// unreachable from init (possible in synthetic CFGs) follow in
  /// ascending order so every label is processed at least once.
  const std::vector<uint32_t> &rpo() const { return RPO; }

private:
  /// ProcessCFG::Labels, a contiguous run: First, First + 1, ...
  LabelId First = 0;
  size_t NumLabels = 0;
  std::vector<uint32_t> SuccStart, SuccList;
  std::vector<uint32_t> PredStart, PredList;
  std::vector<uint32_t> RPO;
};

} // namespace vif

#endif // VIF_CFG_FLOWINDEX_H
