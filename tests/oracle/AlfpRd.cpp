//===- oracle/AlfpRd.cpp --------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "oracle/AlfpRd.h"

#include "alfp/Alfp.h"

#include <map>

using namespace vif;
using alfp::Atom;
using alfp::Literal;
using alfp::RelId;
using alfp::Term;

AlfpRdResult vif::solveRdWithAlfp(const ElaboratedProgram &Program,
                                  const ProgramCFG &CFG,
                                  const ActiveSignalsResult &Active,
                                  const ReachingDefsOptions &Opts) {
  (void)Program;
  AlfpRdResult Result;
  alfp::Program P;

  // Atom maps for resources and labels.
  std::map<uint32_t, Atom> ResourceAtoms;
  std::map<Atom, Resource> AtomResources;
  std::map<LabelId, Atom> LabelAtoms;
  std::map<Atom, LabelId> AtomLabels;
  auto resource = [&](Resource N) {
    auto [It, New] = ResourceAtoms.try_emplace(
        N.raw(), P.atoms().intern("n" + std::to_string(N.raw())));
    if (New)
      AtomResources.emplace(It->second, N);
    return It->second;
  };
  auto label = [&](LabelId L) {
    auto [It, New] =
        LabelAtoms.try_emplace(L, P.atoms().intern("l" + std::to_string(L)));
    if (New)
      AtomLabels.emplace(It->second, L);
    return It->second;
  };

  RelId Flow = P.relation("flow", 2);
  RelId KillPhi = P.relation("killphi", 3);
  RelId GenPhi = P.relation("genphi", 2);
  RelId PhiEntry = P.relation("rdphi_entry", 3);
  RelId PhiExit = P.relation("rdphi_exit", 3);
  RelId KillCf = P.relation("killcf", 3);
  RelId GenCf = P.relation("gencf", 2);
  RelId CfInit = P.relation("cfinit", 3);
  RelId CfEntry = P.relation("rdcf_entry", 3);
  RelId CfExit = P.relation("rdcf_exit", 3);

  // --- Facts ---------------------------------------------------------------
  for (const ProcessCFG &Proc : CFG.processes())
    for (LabelId From = Proc.FirstLabel; From < Proc.endLabel(); ++From)
      for (uint32_t To : CFG.succs(From))
        P.fact(Flow, {label(From), label(Proc.label(To))});

  ReachingDefsKillGen PhiKG = computeActiveKillGen(CFG);
  ReachingDefsKillGen CfKG = computeReachingDefsKillGen(CFG, Active, Opts);
  for (LabelId L = 1; L <= CFG.numLabels(); ++L) {
    for (const DefPair &D : PhiKG.Kill[L])
      P.fact(KillPhi, {resource(D.N), label(D.L), label(L)});
    for (const DefPair &D : PhiKG.Gen[L]) {
      assert(D.L == L && "Table 4 gen pairs carry their own label");
      P.fact(GenPhi, {resource(D.N), label(L)});
    }
    for (const DefPair &D : CfKG.Kill[L])
      P.fact(KillCf, {resource(D.N), label(D.L), label(L)});
    for (const DefPair &D : CfKG.Gen[L]) {
      assert(D.L == L && "Table 5 gen pairs carry their own label");
      P.fact(GenCf, {resource(D.N), label(L)});
    }
  }
  // RDcf initial definitions {(x,?), (s,?)} at each process init label.
  for (const ProcessCFG &Proc : CFG.processes()) {
    for (unsigned V : Proc.FreeVars)
      P.fact(CfInit, {resource(Resource::variable(V)),
                      label(InitialLabel), label(Proc.Init)});
    for (unsigned S : Proc.FreeSigs)
      P.fact(CfInit, {resource(Resource::signal(S)), label(InitialLabel),
                      label(Proc.Init)});
  }

  // --- Rules ---------------------------------------------------------------
  auto V = [](uint32_t Id) { return Term::var(Id); };
  enum : uint32_t { N = 0, LD = 1, L = 2, LP = 3 };

  // rdphi_exit(N, LD, L) :- rdphi_entry(N, LD, L), !killphi(N, LD, L).
  P.clause({Literal{PhiExit, false, {V(N), V(LD), V(L)}},
            {Literal{PhiEntry, false, {V(N), V(LD), V(L)}},
             Literal{KillPhi, true, {V(N), V(LD), V(L)}}}});
  // rdphi_exit(N, L, L) :- genphi(N, L).
  P.clause({Literal{PhiExit, false, {V(N), V(L), V(L)}},
            {Literal{GenPhi, false, {V(N), V(L)}}}});
  // rdphi_entry(N, LD, L) :- flow(LP, L), rdphi_exit(N, LD, LP).
  P.clause({Literal{PhiEntry, false, {V(N), V(LD), V(L)}},
            {Literal{Flow, false, {V(LP), V(L)}},
             Literal{PhiExit, false, {V(N), V(LD), V(LP)}}}});

  // Same shape for RDcf, plus the initial definitions.
  P.clause({Literal{CfExit, false, {V(N), V(LD), V(L)}},
            {Literal{CfEntry, false, {V(N), V(LD), V(L)}},
             Literal{KillCf, true, {V(N), V(LD), V(L)}}}});
  P.clause({Literal{CfExit, false, {V(N), V(L), V(L)}},
            {Literal{GenCf, false, {V(N), V(L)}}}});
  P.clause({Literal{CfEntry, false, {V(N), V(LD), V(L)}},
            {Literal{Flow, false, {V(LP), V(L)}},
             Literal{CfExit, false, {V(N), V(LD), V(LP)}}}});
  P.clause({Literal{CfEntry, false, {V(N), V(LD), V(L)}},
            {Literal{CfInit, false, {V(N), V(LD), V(L)}}}});

  // --- Solve and decode ------------------------------------------------------
  Result.Solved = P.solve(&Result.Error);
  if (!Result.Solved)
    return Result;
  Result.DerivedTuples = P.derivedCount();
  Result.MayPhiEntry.resize(CFG.numLabels() + 1);
  Result.CfEntry.resize(CFG.numLabels() + 1);
  for (const Atom *T : P.tuples(PhiEntry))
    Result.MayPhiEntry[AtomLabels.at(T[2])].insert(
        DefPair{AtomResources.at(T[0]), AtomLabels.at(T[1])});
  for (const Atom *T : P.tuples(CfEntry))
    Result.CfEntry[AtomLabels.at(T[2])].insert(
        DefPair{AtomResources.at(T[0]), AtomLabels.at(T[1])});
  return Result;
}
