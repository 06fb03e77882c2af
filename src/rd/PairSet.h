//===- rd/PairSet.h - Analysis domain P(Resource x Label) -------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Reaching Definitions analyses operate over complete lattices
/// P(Sig x Lab) and P((Var ∪ Sig) x Lab) (paper Section 4). Resource is a
/// tagged variable/signal id — with additional incoming (n◦) and outgoing
/// (n•) decorations used by the improved Information Flow analysis of
/// Table 9 — and PairSet is a deterministic sorted-vector set of
/// (Resource, Label) pairs with the lattice operations, including the
/// paper's ⋂˙ (intersection with ⋂˙∅ = ∅).
///
//===----------------------------------------------------------------------===//

#ifndef VIF_RD_PAIRSET_H
#define VIF_RD_PAIRSET_H

#include "ast/Expr.h"
#include "cfg/CFG.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vif {

/// A variable or signal (possibly decorated as incoming n◦ / outgoing n•)
/// packed into one word for cheap set operations.
class Resource {
public:
  enum class Kind : uint8_t {
    Variable = 0,
    Signal = 1,
    VariableIn = 2, ///< x◦
    SignalIn = 3,   ///< s◦
    VariableOut = 4, ///< x•
    SignalOut = 5,  ///< s•
  };

  Resource() : Bits(0) {}

  static Resource variable(unsigned Id) { return Resource(Kind::Variable, Id); }
  static Resource signal(unsigned Id) { return Resource(Kind::Signal, Id); }

  /// Rebuilds a resource from its raw() encoding. The closure and graph
  /// extraction hot paths carry resources as raw ids in dense vectors and
  /// only round-trip to Resource when materializing names.
  static Resource fromRaw(uint32_t Bits) {
    Resource R;
    R.Bits = Bits;
    return R;
  }

  static Resource fromRef(ObjectRef Ref) {
    assert(Ref.isResolved() && "resource from unresolved reference");
    return Ref.isVariable() ? variable(Ref.Id) : signal(Ref.Id);
  }

  Kind kind() const { return static_cast<Kind>(Bits >> 28); }
  unsigned id() const { return Bits & 0x0fffffff; }

  bool isVariable() const {
    Kind K = kind();
    return K == Kind::Variable || K == Kind::VariableIn ||
           K == Kind::VariableOut;
  }
  bool isSignal() const { return !isVariable(); }
  bool isIncoming() const {
    return kind() == Kind::VariableIn || kind() == Kind::SignalIn;
  }
  bool isOutgoing() const {
    return kind() == Kind::VariableOut || kind() == Kind::SignalOut;
  }
  bool isPlain() const { return !isIncoming() && !isOutgoing(); }

  /// The n◦ / n• decoration of this (plain) resource.
  Resource incoming() const {
    assert(isPlain() && "decorating a decorated resource");
    return Resource(isVariable() ? Kind::VariableIn : Kind::SignalIn, id());
  }
  Resource outgoing() const {
    assert(isPlain() && "decorating a decorated resource");
    return Resource(isVariable() ? Kind::VariableOut : Kind::SignalOut, id());
  }
  /// The plain resource underneath a decoration.
  Resource plain() const {
    return Resource(isVariable() ? Kind::Variable : Kind::Signal, id());
  }

  /// The display name: unique name of the object, with the paper's ◦ / •
  /// marks for incoming/outgoing decorations.
  std::string name(const ElaboratedProgram &Program) const;

  bool operator==(const Resource &O) const { return Bits == O.Bits; }
  bool operator!=(const Resource &O) const { return Bits != O.Bits; }
  bool operator<(const Resource &O) const { return Bits < O.Bits; }

  uint32_t raw() const { return Bits; }

private:
  Resource(Kind K, unsigned Id)
      : Bits((static_cast<uint32_t>(K) << 28) | Id) {
    assert(Id < (1u << 28) && "resource id overflow");
  }

  uint32_t Bits;
};

/// True if \p Name ends in the ◦ / • interface mark that Resource::name
/// appends for incoming/outgoing decorations. Shared by every consumer
/// that filters or merges interface nodes by name (graph restriction,
/// figure presentation) so no caller re-derives the suffix lengths.
bool hasInterfaceMark(std::string_view Name);

/// \p Name with one trailing ◦ / • mark removed (unchanged when unmarked).
std::string_view stripInterfaceMark(std::string_view Name);

/// One reaching definition: resource n was (maybe) last defined at label l;
/// l == InitialLabel is the paper's (n, ?).
struct DefPair {
  Resource N;
  LabelId L = InitialLabel;

  bool operator==(const DefPair &O) const { return N == O.N && L == O.L; }
  bool operator<(const DefPair &O) const {
    return N != O.N ? N < O.N : L < O.L;
  }
};

/// A deterministic set of DefPairs (sorted vector).
class PairSet {
public:
  PairSet() = default;

  bool insert(DefPair P);
  /// Appends \p P, which must be strictly greater than every present pair;
  /// the O(1) path for building a set in ascending order (dense
  /// materialization, Table 7 specialization).
  void append(DefPair P) {
    assert((Pairs.empty() || Pairs.back() < P) && "append out of order");
    Pairs.push_back(P);
  }
  bool contains(DefPair P) const;
  bool empty() const { return Pairs.empty(); }
  size_t size() const { return Pairs.size(); }

  /// this := this ∪ O; returns true if this grew.
  bool unionWith(const PairSet &O);
  /// this := this ∩ O.
  void intersectWith(const PairSet &O);
  /// this := this \ O.
  void subtract(const PairSet &O);

  /// The paper's ⋂˙: intersection of a family of sets, with ⋂˙∅ = ∅. This
  /// guarantees RD∩ ⊆ RD∪ for the least solution.
  static PairSet dottedIntersection(const std::vector<const PairSet *> &Sets);

  /// The contiguous range of pairs whose resource equals \p N.
  std::pair<std::vector<DefPair>::const_iterator,
            std::vector<DefPair>::const_iterator>
  equalRange(Resource N) const;

  bool operator==(const PairSet &O) const { return Pairs == O.Pairs; }

  /// Heap footprint in bytes (cache byte-budget accounting).
  size_t memoryBytes() const { return Pairs.capacity() * sizeof(DefPair); }

  std::vector<DefPair>::const_iterator begin() const {
    return Pairs.begin();
  }
  std::vector<DefPair>::const_iterator end() const { return Pairs.end(); }

private:
  std::vector<DefPair> Pairs;
};

} // namespace vif

#endif // VIF_RD_PAIRSET_H
