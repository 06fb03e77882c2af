//===- rd/DenseDomain.cpp -------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "rd/DenseDomain.h"

using namespace vif;

namespace {

using Range = std::pair<size_t, size_t>;

/// One table's kept pairs of the current round, in schedule order: the
/// label at RPO position Q emitted Buf[At[Q] .. At[Q + 1]).
struct RowSink {
  const DefPairDomain &Dom;
  std::vector<DefPair> Buf;
  std::vector<uint32_t> At;

  /// Emits the set bits of \p Row in the index range \p R.
  void emit(const uint64_t *Row, Range R) {
    for (size_t WI = R.first >> 6; WI << 6 < R.second; ++WI)
      for (uint64_t Word = Row[WI]; Word; Word &= Word - 1) {
        size_t B = (WI << 6) + static_cast<size_t>(__builtin_ctzll(Word));
        if (B >= R.first && B < R.second)
          Buf.push_back(Dom.pair(B));
      }
  }
  /// The round's pairs as CSR rows in local label order.
  std::shared_ptr<const PairRows> take(const std::vector<uint32_t> &Pos) {
    auto R = std::make_shared<PairRows>(Pos.size());
    for (uint32_t Q : Pos) {
      R->Items.insert(R->Items.end(), Buf.begin() + At[Q],
                      Buf.begin() + At[Q + 1]);
      R->closeRow();
    }
    return R;
  }
};

/// solveGenKill, with the must component compiled in or out.
template <bool Must>
RdProcessArtifact solve(const ProgramCFG &CFG, const ProcessCFG &P,
                        const ProcessKillGen &KG, const PairSet &Initial,
                        const RowKeep &Keep) {
  size_t NL = P.NumLabels;
  // The domain: only initial and gen'd pairs can ever be present (⊥ = ∅
  // and the transfer functions add nothing else), of tracked resources.
  bool Prune = Keep.prunes();
  std::vector<Resource> Only = Keep.Reads.Items;
  std::sort(Only.begin(), Only.end());
  DefPairDomain Dom;
  auto track = [&](const DefPair &D) {
    if (!Prune || std::binary_search(Only.begin(), Only.end(), D.N))
      Dom.add(D);
  };
  std::for_each(Initial.begin(), Initial.end(), track);
  for (const PairSet &G : KG.Gen)
    std::for_each(G.begin(), G.end(), track);
  Dom.finalize();
  size_t K = Dom.size(), W = (K + 63) / 64, RW = Must ? 2 * W : W;

  // The kept facts of Entry, Exit, MustEntry and MustExit, this round, in
  // reverse postorder (Pos is each label's place in it).
  ProgramCFG::Range Order = CFG.rpo(P);
  std::vector<uint32_t> Pos(NL);
  for (uint32_t Q = 0; Q < NL; ++Q)
    Pos[Order[Q]] = Q;
  std::vector<RowSink> Sinks(4, RowSink{Dom, {}, {}});
  for (RowSink &S : Sinks)
    S.At.assign(NL + 1, 0);
  RowSink &Entry = Sinks[0], &Exit = Sinks[1], &MustEntry = Sinks[2],
          &MustExit = Sinks[3];
  RdProcessArtifact A;
  auto finish = [&] {
    for (int T = 0; T < 4; ++T)
      if (RdProcessArtifact::present(T, Keep.keepsExits(), Must))
        A.Tables[T] = Sinks[T].take(Pos);
    return std::move(A);
  };
  if (K == 0) // nothing is ever defined: every kept row stays ∅
    return finish();

  // The transfer functions and the kept entry ranges resolved against the
  // domain once, as CSR rows per label: the index ranges Kill clears (a
  // killed resource's whole range; adjacent ranges merged, empty ones
  // dropped), the indices GenBits sets and the ranges Kept keeps.
  Rows<Range> Kill(NL), Kept(NL);
  Rows<size_t> GenBits(NL);
  auto addRange = [](Rows<Range> &V, Range R) {
    if (R.first == R.second)
      return;
    if (V.Items.size() > V.Start.back() && V.Items.back().second == R.first)
      V.Items.back().second = R.second;
    else
      V.Items.push_back(R);
  };
  auto whole = [&](uint32_t I, uint8_t Bit) {
    return Keep.Full || (Keep.Whole[I] & Bit);
  };
  for (uint32_t I = 0; I < NL; ++I) {
    for (Resource N : KG.Kill[I])
      addRange(Kill, Dom.rangeOf(N));
    for (const DefPair &D : KG.Gen[I])
      if (size_t B = Dom.indexOf(D); B != DefPairDomain::npos)
        GenBits.Items.push_back(B);
    if (whole(I, 1))
      addRange(Kept, {0, K});
    else
      for (const Resource *N = Keep.Reads.begin(I); N != Keep.Reads.end(I);
           ++N)
        addRange(Kept, Dom.rangeOf(*N));
    Kill.closeRow();
    GenBits.closeRow();
    Kept.closeRow();
  }
  // exit = (entry \ kill) ∪ gen, in place on a W-word span.
  auto transfer = [&](uint32_t I, uint64_t *Row) {
    for (const Range *R = Kill.begin(I); R != Kill.end(I); ++R)
      BitMatrix::clearRange(Row, R->first, R->second);
    for (const size_t *B = GenBits.begin(I); B != GenBits.end(I); ++B)
      Row[*B >> 6] |= uint64_t(1) << (*B & 63);
  };

  // The schedule: a label with a retreating out-edge (to itself or an
  // earlier label in reverse postorder) owns a persistent exit row, which
  // no other label aliases or steals. Every other exit lives in a pool
  // row that counts the forward reads still pending on it (Fanout, the
  // label's successors, per exit published) and returns to the pool when
  // the count drops to zero. Row ids below NumPersist are persistent.
  std::vector<uint32_t> Persist(NL, 0), Fanout(NL, 0);
  size_t NumPersist = 0;
  for (uint32_t I = 0; I < NL; ++I) {
    ProgramCFG::Range Succs = CFG.succs(P.label(I));
    Fanout[I] = static_cast<uint32_t>(Succs.size());
    for (uint32_t S : Succs)
      if (Pos[S] <= Pos[I] && !Persist[I])
        Persist[I] = static_cast<uint32_t>(++NumPersist);
  }
  constexpr uint32_t Released = ~uint32_t(0);
  std::vector<uint64_t> Persistent(NumPersist * RW);
  std::vector<uint64_t *> RowAt(NumPersist);
  std::vector<uint32_t> Pending(NumPersist, Released), ExitOf(NL, 0), Free;
  for (uint32_t R = 0; R < NumPersist; ++R)
    RowAt[R] = Persistent.data() + R * RW;
  for (uint32_t I = 0; I < NL; ++I)
    if (Persist[I])
      ExitOf[I] = Persist[I] - 1;
  std::vector<std::vector<uint64_t>> Pool;
  auto take = [&] {
    if (Free.empty()) {
      Free.push_back(static_cast<uint32_t>(RowAt.size()));
      RowAt.push_back(Pool.emplace_back(RW).data());
      Pending.push_back(Released);
    }
    uint32_t R = Free.back();
    Free.pop_back();
    Pending[R] = 0;
    return R;
  };
  // Returns pool row R once no read is pending on it (idempotent).
  auto settle = [&](uint32_t R) {
    if (R >= NumPersist && Pending[R] == 0) {
      Pending[R] = Released;
      Free.push_back(R);
    }
  };
  std::vector<uint64_t> InitRow(W);
  for (const DefPair &D : Initial)
    if (size_t B = Dom.indexOf(D); B != DefPairDomain::npos)
      InitRow[B >> 6] |= uint64_t(1) << (B & 63);
  uint32_t InitLocal = P.localOf(P.Init);

  for (bool Changed = true; Changed;) {
    Changed = false;
    A.Iterations += NL;
    for (RowSink &S : Sinks)
      S.Buf.clear();
    for (uint32_t Q = 0; Q < NL; ++Q) {
      uint32_t I = Order[Q];
      ProgramCFG::Range Preds = CFG.preds(P.label(I));
      // The entry: a lone predecessor's exit row, read in place. Else the
      // may half is Initial at init plus the union of the predecessor
      // exits, and the must half their intersection, except that it keeps
      // ∅ at init (the program-start path carries no facts and dominates
      // the ⋂˙) and ⋂˙ over an empty predecessor family is ∅ as well.
      // That is built in a predecessor row this label reads last, or else
      // in a fresh row that starts as a copy of the first predecessor's.
      uint32_t In = Released;
      for (uint32_t U : Preds)
        if (!Persist[U])
          --Pending[ExitOf[U]];
      if (I != InitLocal && Preds.size() == 1) {
        In = ExitOf[Preds[0]];
      } else {
        for (uint32_t U : Preds)
          if (!Persist[U] && Pending[ExitOf[U]] == 0) {
            In = ExitOf[U];
            break;
          }
        uint32_t Base = In;
        if (In == Released) {
          In = take();
          if (Preds.empty()) {
            BitMatrix::clear(RowAt[In], RW);
          } else {
            Base = ExitOf[Preds[0]];
            BitMatrix::copy(RowAt[In], RowAt[Base], RW);
          }
        }
        uint64_t *Row = RowAt[In];
        for (uint32_t U : Preds)
          if (ExitOf[U] != Base) {
            bits::orWords(Row, RowAt[ExitOf[U]], W);
            if (Must)
              BitMatrix::andWith(Row + W, RowAt[ExitOf[U]] + W, W);
          }
        if (I == InitLocal) {
          bits::orWords(Row, InitRow.data(), W);
          if (Must)
            BitMatrix::clear(Row + W, W);
        }
        for (uint32_t U : Preds)
          if (ExitOf[U] != In)
            settle(ExitOf[U]);
      }
      for (const Range *R = Kept.begin(I); R != Kept.end(I); ++R) {
        Entry.emit(RowAt[In], *R);
        if (Must)
          MustEntry.emit(RowAt[In] + W, *R);
      }

      // The exit, when a successor, the exit table or the round's change
      // test reads it: the entry row itself when the transfer is the
      // identity (unless that is another label's persistent row) or when
      // no other read is pending on it, else a copy into a fresh row.
      uint32_t Out = In;
      if (Persist[I] || Fanout[I] || whole(I, 2)) {
        bool Identity = Kill.begin(I) == Kill.end(I) &&
                        GenBits.begin(I) == GenBits.end(I);
        bool Pooled = In >= NumPersist;
        if (Identity ? !Pooled && !Persist[I]
                     : !Pooled || Pending[In] != 0) {
          Out = take();
          BitMatrix::copy(RowAt[Out], RowAt[In], RW);
        }
        uint64_t *Row = RowAt[Out];
        transfer(I, Row);
        if (Must)
          transfer(I, Row + W);
        if (whole(I, 2)) {
          Exit.emit(Row, {0, K});
          if (Must)
            MustExit.emit(Row + W, {0, K});
        }
        if (Persist[I]) {
          if (uint64_t *Own = RowAt[ExitOf[I]];
              !BitMatrix::equal(Own, Row, RW)) {
            BitMatrix::copy(Own, Row, RW);
            Changed = true;
          }
        } else {
          ExitOf[I] = Out;
          Pending[Out] += Fanout[I];
        }
      }
      settle(In);
      settle(Out);
      for (RowSink &S : Sinks)
        S.At[Q + 1] = static_cast<uint32_t>(S.Buf.size());
    }
    assert(Free.size() == Pool.size() && "a pool row outlived its reads");
  }
  return finish();
}

} // namespace

RdProcessArtifact vif::solveGenKill(const ProgramCFG &CFG,
                                    const ProcessCFG &P,
                                    const ProcessKillGen &KG,
                                    const PairSet &Initial, bool Must,
                                    const RowKeep &Keep) {
  return Must ? solve<true>(CFG, P, KG, Initial, Keep)
              : solve<false>(CFG, P, KG, Initial, Keep);
}

void vif::expandKillGen(const ProcessCFG &P, const ProcessKillGen &F,
                        const DefPairDomain &Sites, ReachingDefsKillGen &KG) {
  for (uint32_t I = 0; I < P.NumLabels; ++I) {
    LabelId L = P.label(I);
    PairSet Kill;
    for (Resource N : F.Kill[I]) {
      auto [First, Last] = Sites.rangeOf(N);
      for (size_t J = First; J < Last; ++J)
        Kill.append(Sites.pair(J));
    }
    KG.Kill[L] = std::move(Kill);
    KG.Gen[L] = F.Gen[I];
  }
}

void vif::installProcessRows(const ProcessCFG &P, const RdProcessArtifact &A,
                             LazyPairSets &Entry, LazyPairSets &Exit,
                             LazyPairSets *MustEntry,
                             LazyPairSets *MustExit) {
  LazyPairSets *Tables[] = {&Entry, &Exit, MustEntry, MustExit};
  for (int T = 0; T < 4; ++T)
    if (A.Tables[T])
      Tables[T]->setRows(P.FirstLabel, P.NumLabels, A.Tables[T]);
}
