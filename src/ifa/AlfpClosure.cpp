//===- ifa/AlfpClosure.cpp ------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "ifa/AlfpClosure.h"

#include "alfp/Alfp.h"

using namespace vif;
using alfp::Atom;
using alfp::Literal;
using alfp::RelId;
using alfp::Term;

namespace {

/// Bidirectional atom maps for resources, labels and access kinds.
struct Encoding {
  alfp::Program &P;
  std::map<uint32_t, Atom> ResourceAtoms;
  std::map<Atom, Resource> AtomResources;
  std::map<LabelId, Atom> LabelAtoms;
  std::map<Atom, LabelId> AtomLabels;
  Atom AccessAtoms[4];

  explicit Encoding(alfp::Program &P) : P(P) {
    AccessAtoms[0] = P.atoms().intern("m0");
    AccessAtoms[1] = P.atoms().intern("m1");
    AccessAtoms[2] = P.atoms().intern("r0");
    AccessAtoms[3] = P.atoms().intern("r1");
  }

  Atom resource(Resource N) {
    auto [It, New] = ResourceAtoms.try_emplace(
        N.raw(), P.atoms().intern("n" + std::to_string(N.raw())));
    if (New)
      AtomResources.emplace(It->second, N);
    return It->second;
  }

  Atom label(LabelId L) {
    auto [It, New] = LabelAtoms.try_emplace(
        L, P.atoms().intern("l" + std::to_string(L)));
    if (New)
      AtomLabels.emplace(It->second, L);
    return It->second;
  }

  Atom access(Access A) { return AccessAtoms[static_cast<int>(A)]; }

  Access accessOf(Atom A) const {
    for (int I = 0; I < 4; ++I)
      if (AccessAtoms[I] == A)
        return static_cast<Access>(I);
    assert(false && "not an access atom");
    return Access::R0;
  }
};

} // namespace

AlfpClosureResult vif::closeWithAlfp(const ElaboratedProgram &Program,
                                     const ProgramCFG &CFG,
                                     const IFAResult &Native,
                                     const IFAOptions &Opts) {
  AlfpClosureResult Result;
  alfp::Program P;
  Encoding E(P);

  // Relations. Arities: rmlo/rmgl(n, l, a); rdcf/rdphi(n, lDef, lUse);
  // derived rdd/rddphi likewise; cfcomp(li, lj); unary label predicates.
  RelId RMlo = P.relation("rmlo", 3);
  RelId RMgl = P.relation("rmgl", 3);
  RelId RDcf = P.relation("rdcf", 3);
  RelId RDphi = P.relation("rdphi", 3);
  RelId RDd = P.relation("rdd", 3);
  RelId RDdphi = P.relation("rddphi", 3);
  RelId Real = P.relation("reallabel", 1);
  RelId WS = P.relation("ws", 1);
  RelId CfComp = P.relation("cfcomp", 2);
  RelId InPair = P.relation("incpair", 2);
  RelId InSig = P.relation("insig", 1);
  RelId OutSig = P.relation("outsig", 2);
  RelId EndCopy = P.relation("endcopy", 2);

  size_t NumLabels = CFG.numLabels();

  // --- Base facts ---------------------------------------------------------
  for (const RMEntry &Entry : Native.RMlo)
    P.fact(RMlo, {E.resource(Entry.N), E.label(Entry.L),
                  E.access(Entry.A)});

  for (LabelId L = 1; L <= NumLabels; ++L) {
    P.fact(Real, {E.label(L)});
    // RDcf is only ever joined with rmlo(n, l, r0) (Table 7), so RD†
    // holds every fact the closure can use.
    for (const DefPair &D : Native.RDDagger[L])
      P.fact(RDcf, {E.resource(D.N), E.label(D.L), E.label(L)});
    if (CFG.isWaitLabel(L)) {
      P.fact(WS, {E.label(L)});
      for (const DefPair &D : Native.Active.MayEntry[L])
        P.fact(RDphi, {E.resource(D.N), E.label(D.L), E.label(L)});
    }
  }

  std::vector<LabelId> WaitLabels = CFG.allWaitLabels();
  for (LabelId A : WaitLabels)
    for (LabelId B : WaitLabels)
      if (CFG.cfCompatible(A, B))
        P.fact(CfComp, {E.label(A), E.label(B)});

  bool Improved = Opts.Improved || Opts.ProgramEndOutgoing;
  if (Improved) {
    // incpair(n, n◦) for every plain resource.
    for (const ElabVariable &V : Program.Variables) {
      Resource N = Resource::variable(V.Id);
      P.fact(InPair, {E.resource(N), E.resource(N.incoming())});
    }
    for (const ElabSignal &S : Program.Signals) {
      Resource N = Resource::signal(S.Id);
      P.fact(InPair, {E.resource(N), E.resource(N.incoming())});
      if (S.isInput())
        P.fact(InSig, {E.resource(N)});
    }
    // (n•, l_{n•}, M) facts for every outgoing label.
    for (const auto &[N, LOut] : Native.OutgoingLabels)
      P.fact(RMgl, {E.resource(N.outgoing()), E.label(LOut),
                    E.access(N.isVariable() ? Access::M0 : Access::M1)});
    // outsig participates in the [Outcoming values] rule, which applies to
    // genuine out ports only (end-outgoing resources flow via endcopy).
    if (Opts.Improved)
      for (unsigned Sig : Program.outputSignals()) {
        Resource N = Resource::signal(Sig);
        auto It = Native.OutgoingLabels.find(N);
        if (It != Native.OutgoingLabels.end())
          P.fact(OutSig, {E.resource(N), E.label(It->second)});
      }
  }

  if (Opts.ProgramEndOutgoing) {
    for (const ProcessCFG &Proc : CFG.processes()) {
      if (Program.process(Proc.ProcessId).Looped)
        continue;
      PairSet EndDefs = Native.RD.atProcessEnd(Proc);
      for (const DefPair &D : EndDefs) {
        auto It = Native.OutgoingLabels.find(D.N);
        if (It == Native.OutgoingLabels.end())
          continue;
        if (D.L == InitialLabel)
          P.fact(RMgl, {E.resource(D.N.incoming()), E.label(It->second),
                        E.access(Access::R0)});
        else
          P.fact(EndCopy, {E.label(D.L), E.label(It->second)});
      }
    }
  }

  // --- Rules (Tables 7-9) -------------------------------------------------
  auto V = [](uint32_t Id) { return Term::var(Id); };
  auto A = [](Atom At) { return Term::atom(At); };
  Atom R0A = E.access(Access::R0), R1A = E.access(Access::R1);
  Atom QL = E.label(InitialLabel);
  enum : uint32_t { N = 0, L = 1, LP = 2, NP = 3, LI = 4, LJ = 5, LPP = 6,
                    AV = 7, NI = 8, LO = 9 };

  // rdd(N, LDef, L) :- rmlo(N, L, r0), rdcf(N, LDef, L).       [Table 7]
  P.clause({Literal{RDd, false, {V(N), V(LP), V(L)}},
            {Literal{RMlo, false, {V(N), V(L), A(R0A)}},
             Literal{RDcf, false, {V(N), V(LP), V(L)}}}});
  // rddphi(S, LDef, L) :- rmlo(S, L, r1), rdphi(S, LDef, L).   [Table 7]
  P.clause({Literal{RDdphi, false, {V(N), V(LP), V(L)}},
            {Literal{RMlo, false, {V(N), V(L), A(R1A)}},
             Literal{RDphi, false, {V(N), V(LP), V(L)}}}});
  // rmgl(N, L, A) :- rmlo(N, L, A).                            [Init]
  P.clause({Literal{RMgl, false, {V(N), V(L), V(AV)}},
            {Literal{RMlo, false, {V(N), V(L), V(AV)}}}});
  // rmgl(N, L, r0) :- rdd(NP, LP, L), reallabel(LP), rmgl(N, LP, r0).
  P.clause({Literal{RMgl, false, {V(N), V(L), A(R0A)}},
            {Literal{RDd, false, {V(NP), V(LP), V(L)}},
             Literal{Real, false, {V(LP)}},
             Literal{RMgl, false, {V(N), V(LP), A(R0A)}}}});
  // rmgl(S, L, r0) :- rdd(SP, LI, L), ws(LI), cfcomp(LI, LJ),
  //                   rddphi(SP, LPP, LJ), rmgl(S, LPP, r0).
  P.clause({Literal{RMgl, false, {V(N), V(L), A(R0A)}},
            {Literal{RDd, false, {V(NP), V(LI), V(L)}},
             Literal{WS, false, {V(LI)}},
             Literal{CfComp, false, {V(LI), V(LJ)}},
             Literal{RDdphi, false, {V(NP), V(LPP), V(LJ)}},
             Literal{RMgl, false, {V(N), V(LPP), A(R0A)}}}});

  if (Improved) {
    // rmgl(N◦, L, r0) :- rdd(N, ?, L), incpair(N, N◦).     [Initial values]
    P.clause({Literal{RMgl, false, {V(NI), V(L), A(R0A)}},
              {Literal{RDd, false, {V(N), A(QL), V(L)}},
               Literal{InPair, false, {V(N), V(NI)}}}});
    // rmgl(N◦, L, r0) :- rdd(N, LP, L), ws(LP), insig(N),
    //                    incpair(N, N◦).                  [Incoming values]
    P.clause({Literal{RMgl, false, {V(NI), V(L), A(R0A)}},
              {Literal{RDd, false, {V(N), V(LP), V(L)}},
               Literal{WS, false, {V(LP)}},
               Literal{InSig, false, {V(N)}},
               Literal{InPair, false, {V(N), V(NI)}}}});
    // rmgl(NP, LOut, r0) :- outsig(N, LOut), rddphi(N, LDef, LW),
    //                       rmgl(NP, LDef, r0).          [Outcoming values]
    P.clause({Literal{RMgl, false, {V(NP), V(LO), A(R0A)}},
              {Literal{OutSig, false, {V(N), V(LO)}},
               Literal{RDdphi, false, {V(N), V(LP), V(LJ)}},
               Literal{RMgl, false, {V(NP), V(LP), A(R0A)}}}});
    // rmgl(NP, LOut, r0) :- endcopy(LDef, LOut), rmgl(NP, LDef, r0).
    P.clause({Literal{RMgl, false, {V(NP), V(LO), A(R0A)}},
              {Literal{EndCopy, false, {V(LP), V(LO)}},
               Literal{RMgl, false, {V(NP), V(LP), A(R0A)}}}});
  }

  // --- Solve and decode ----------------------------------------------------
  Result.Solved = P.solve(&Result.Error);
  if (!Result.Solved)
    return Result;
  Result.DerivedTuples = P.derivedCount();
  Result.Applications = P.applications();
  for (const Atom *T : P.tuples(RMgl)) {
    Resource RN = E.AtomResources.at(T[0]);
    LabelId RL = E.AtomLabels.at(T[1]);
    Result.RMgl.insert(RN, RL, E.accessOf(T[2]));
  }
  return Result;
}
