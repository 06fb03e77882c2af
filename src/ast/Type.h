//===- ast/Type.h - VHDL1 types ---------------------------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VHDL1 type grammar (paper Figure 1):
///
///   type ::= std_logic | std_logic_vector(z1 downto z2)
///          | std_logic_vector(z1 to z2)
///
/// Type is a small value class. It owns the index-to-position mapping for
/// vectors, which is where the paper's "normalize all vectors to ascending
/// ranges" simplification is absorbed: values (LogicVector) are purely
/// positional with the leftmost declared element first, and `to` ranges
/// differ from `downto` ranges only in how an index is translated to a
/// position.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_AST_TYPE_H
#define VIF_AST_TYPE_H

#include <cassert>
#include <cstdlib>
#include <string>

namespace vif {

/// A VHDL1 type: std_logic or std_logic_vector with a static range.
class Type {
public:
  /// std_logic.
  Type() = default;

  static Type scalar() { return Type(); }

  /// std_logic_vector(Left downto Right) or (Left to Right).
  static Type vector(int Left, int Right, bool Downto) {
    Type T;
    T.IsVector = true;
    T.Left = Left;
    T.Right = Right;
    T.Downto = Downto;
    assert(T.rangeValid() && "vector range runs against its direction");
    return T;
  }

  bool isScalar() const { return !IsVector; }
  bool isVector() const { return IsVector; }

  int left() const {
    assert(IsVector && "scalar types have no range");
    return Left;
  }
  int right() const {
    assert(IsVector && "scalar types have no range");
    return Right;
  }
  bool isDownto() const {
    assert(IsVector && "scalar types have no range");
    return Downto;
  }

  /// Number of std_logic elements (1 for scalars).
  unsigned width() const {
    if (!IsVector)
      return 1;
    return static_cast<unsigned>(std::abs(Left - Right)) + 1;
  }

  bool containsIndex(int Index) const {
    if (!IsVector)
      return false;
    if (Downto)
      return Index <= Left && Index >= Right;
    return Index >= Left && Index <= Right;
  }

  /// Translates a declared index into a position (0 = leftmost element).
  unsigned positionOf(int Index) const {
    assert(containsIndex(Index) && "index outside declared range");
    return static_cast<unsigned>(Downto ? Left - Index : Index - Left);
  }

  /// True if (Z1 downto Z2) resp. (Z1 to Z2) is a well-formed slice of this
  /// type: matching direction and both bounds inside the declared range.
  bool sliceValid(int Z1, int Z2, bool SliceDownto) const {
    if (!IsVector || SliceDownto != Downto)
      return false;
    if (!containsIndex(Z1) || !containsIndex(Z2))
      return false;
    return Downto ? Z1 >= Z2 : Z1 <= Z2;
  }

  /// Leftmost position of the slice; requires sliceValid.
  unsigned slicePosition(int Z1, int Z2, bool SliceDownto) const {
    assert(sliceValid(Z1, Z2, SliceDownto) && "malformed slice");
    (void)Z2;
    (void)SliceDownto;
    return positionOf(Z1);
  }

  /// Width of the slice; requires sliceValid.
  unsigned sliceWidth(int Z1, int Z2, bool SliceDownto) const {
    assert(sliceValid(Z1, Z2, SliceDownto) && "malformed slice");
    (void)SliceDownto;
    return static_cast<unsigned>(std::abs(Z1 - Z2)) + 1;
  }

  bool operator==(const Type &O) const {
    if (IsVector != O.IsVector)
      return false;
    if (!IsVector)
      return true;
    return Left == O.Left && Right == O.Right && Downto == O.Downto;
  }
  bool operator!=(const Type &O) const { return !(*this == O); }

  /// True if values of \p O can be assigned to objects of this type. VHDL
  /// array assignment is by position, so only the widths must agree.
  bool assignableFrom(const Type &O) const {
    return IsVector == O.IsVector && width() == O.width();
  }

  /// Renders the type in VHDL syntax.
  std::string str() const;

private:
  bool rangeValid() const { return Downto ? Left >= Right : Left <= Right; }

  int Left = 0;
  int Right = 0;
  bool IsVector = false;
  bool Downto = true;
};

} // namespace vif

#endif // VIF_AST_TYPE_H
