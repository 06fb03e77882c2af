//===- alfp/Alfp.h - ALFP/Datalog fixpoint engine ---------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small solver for Alternation-free Least Fixed Point logic in the style
/// of the Succinct Solver [Nielson, Nielson, Seidl 2002], which is the
/// engine the paper's authors implemented their analysis in. The fragment
/// supported here is Datalog with stratified negation:
///
///   clause ::= R(t...) :- L1, ..., Ln.
///   Li     ::= S(t...) | not S(t...)
///
/// Clauses must be safe (every head or negated variable is bound by a
/// positive body literal) and negation must be stratified (no negative
/// dependency inside a recursive component). Evaluation is semi-naive per
/// stratum; relations are stored as flat tuple rows (TupleStore) with a
/// content-hash membership index and a first-column index that the join
/// loops consult whenever a literal's first argument is already bound.
///
/// The ifa module encodes the closure rules of paper Tables 7-9 as clauses
/// (ifa/AlfpClosure.h); tests assert that the engine reproduces the native
/// closure exactly, validating both implementations against each other —
/// the same cross-checking methodology the paper's authors used between
/// their specification and their Succinct Solver encoding.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_ALFP_ALFP_H
#define VIF_ALFP_ALFP_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace vif {
namespace alfp {

/// An interned constant.
using Atom = uint32_t;
/// A relation handle.
using RelId = unsigned;
/// A ground tuple (boundary representation; the solver keeps rows flat).
using Tuple = std::vector<Atom>;

/// Interns strings as dense Atom ids.
class Interner {
public:
  Atom intern(const std::string &S);
  const std::string &name(Atom A) const;
  size_t size() const { return Names.size(); }

private:
  std::vector<std::string> Names;
  std::unordered_map<std::string, Atom> Ids;
};

/// A flat, insertion-ordered set of fixed-arity tuples: rows live
/// back-to-back in one vector, membership is a content-hash bucket probe,
/// and a first-column index answers "all rows whose col 0 is A" for the
/// join loops. Insertion order is deterministic, so results are
/// reproducible; consumers that print sort their own output
/// (alfp::dumpRelation).
class TupleStore {
public:
  TupleStore() = default;
  explicit TupleStore(unsigned Arity) : ArityVal(Arity) {}

  /// Drops all rows and (re)sets the arity.
  void reset(unsigned Arity) {
    ArityVal = Arity;
    NumRows = 0;
    Data.clear();
    HashBuckets.clear();
    Col0.clear();
  }

  unsigned arity() const { return ArityVal; }
  size_t size() const { return NumRows; }
  bool empty() const { return NumRows == 0; }

  /// Pointer to the I-th row (arity() consecutive atoms).
  const Atom *row(size_t I) const {
    assert(I < NumRows && "row out of range");
    return Data.data() + I * ArityVal;
  }

  /// Inserts a row of arity() atoms; returns true if it was new.
  bool insert(const Atom *T);
  bool insert(const Tuple &T) {
    assert(T.size() == ArityVal && "tuple arity mismatch");
    return insert(T.data());
  }

  bool contains(const Atom *T) const;
  bool contains(const Tuple &T) const {
    assert(T.size() == ArityVal && "tuple arity mismatch");
    return contains(T.data());
  }

  /// Indices of rows whose first column equals \p A (null when none).
  const std::vector<uint32_t> *rowsWithCol0(Atom A) const {
    auto It = Col0.find(A);
    return It == Col0.end() ? nullptr : &It->second;
  }

  /// Iteration yields const Atom* row pointers, in insertion order. The
  /// iterator counts rows rather than striding pointers so nullary
  /// relations (arity 0, at most one row) still iterate their row.
  class const_iterator {
  public:
    const_iterator(const Atom *Base, size_t Idx, unsigned Arity)
        : Base(Base), Idx(Idx), Arity(Arity) {}
    const Atom *operator*() const { return Base + Idx * Arity; }
    const_iterator &operator++() {
      ++Idx;
      return *this;
    }
    bool operator!=(const const_iterator &O) const { return Idx != O.Idx; }
    bool operator==(const const_iterator &O) const { return Idx == O.Idx; }

  private:
    const Atom *Base;
    size_t Idx;
    unsigned Arity;
  };
  const_iterator begin() const { return {Data.data(), 0, ArityVal}; }
  const_iterator end() const { return {Data.data(), NumRows, ArityVal}; }

private:
  uint64_t hashRow(const Atom *T) const;

  unsigned ArityVal = 0;
  size_t NumRows = 0;
  std::vector<Atom> Data;
  /// Content hash -> row indices with that hash (collisions compared by
  /// content). Self-contained, so moving the store never dangles.
  std::unordered_map<uint64_t, std::vector<uint32_t>> HashBuckets;
  /// First column -> row indices (empty map for arity 0).
  std::unordered_map<Atom, std::vector<uint32_t>> Col0;
};

/// A term: either a clause-local variable or a constant atom.
struct Term {
  bool IsVar = false;
  uint32_t Id = 0;

  static Term var(uint32_t V) { return Term{true, V}; }
  static Term atom(Atom A) { return Term{false, A}; }
};

/// A (possibly negated) relation application.
struct Literal {
  RelId Rel = 0;
  bool Negated = false;
  std::vector<Term> Args;
};

/// Head :- Body. An empty body is a fact schema (ground head required).
struct Clause {
  Literal Head;
  std::vector<Literal> Body;
};

/// A Datalog program with stratified negation.
class Program {
public:
  /// Widest body literal solve() accepts (the join loop's fresh-binding
  /// bookkeeping is a 64-bit position mask); wider literals are rejected
  /// by the safety check with a diagnostic.
  static constexpr size_t MaxLiteralArity = 64;
  /// Declares (or retrieves) a relation.
  RelId relation(const std::string &Name, unsigned Arity);

  /// Looks a relation up by name without declaring it.
  std::optional<RelId> findRelation(const std::string &Name) const;

  /// Name and arity of a declared relation.
  const std::string &relationName(RelId R) const;
  unsigned relationArity(RelId R) const;

  /// Adds a ground fact.
  void fact(RelId R, Tuple T);

  /// Adds a clause; safety is checked at solve() time.
  void clause(Clause C) { Clauses.push_back(std::move(C)); }

  /// Runs the fixpoint. Returns false (with \p Error filled in) on safety
  /// or stratification violations.
  bool solve(std::string *Error = nullptr);

  const TupleStore &tuples(RelId R) const;
  bool contains(RelId R, const Tuple &T) const;

  /// Total number of tuples derived by solve() beyond the base facts.
  size_t derivedCount() const { return Derived; }
  /// Number of tuple match attempts performed by solve(): one per
  /// candidate row unified against a positive body literal, plus one per
  /// negated-literal membership probe. Positive and negated literals are
  /// counted by the same unit of work — a single tuple test — and
  /// candidates that the first-column index prunes are never attempted,
  /// so this tracks the actual join effort of the complexity benches.
  size_t applications() const { return Applications; }

  Interner &atoms() { return Atoms; }
  const Interner &atoms() const { return Atoms; }

private:
  struct Relation {
    std::string Name;
    unsigned Arity;
    TupleStore Facts;
  };

  /// Per-applyClause scratch: flat variable bindings and a row buffer.
  struct MatchContext {
    std::vector<Atom> BindVal;
    std::vector<uint8_t> BindSet;
    std::vector<Atom> Scratch;
  };

  bool checkSafety(const Clause &C, std::string *Error) const;
  bool stratify(std::vector<std::vector<size_t>> &ClausesByStratum,
                std::string *Error) const;
  /// Evaluates \p C with body literal \p DeltaPos restricted to \p Delta;
  /// DeltaPos == -1 means evaluate against full relations only. New head
  /// tuples (not yet in the head relation) are collected into \p Pending.
  void applyClause(const Clause &C, int DeltaPos,
                   const std::vector<TupleStore> &Delta,
                   TupleStore &Pending);
  void matchFrom(const Clause &C, size_t LitIdx, int DeltaPos,
                 const std::vector<TupleStore> &Delta, MatchContext &Ctx,
                 TupleStore &Pending);

  Interner Atoms;
  std::vector<Relation> Relations;
  std::unordered_map<std::string, RelId> RelIds;
  std::vector<Clause> Clauses;
  size_t Derived = 0;
  size_t Applications = 0;
};

} // namespace alfp
} // namespace vif

#endif // VIF_ALFP_ALFP_H
