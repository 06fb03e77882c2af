//===- driver/ArtifactStore.cpp -------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "driver/ArtifactStore.h"

#include "support/BinaryIO.h"
#include "support/Hash.h"

#include <cassert>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

using namespace vif;
using namespace vif::driver;

namespace fs = std::filesystem;

namespace {

/// The blob checksum: FNV-1a over the payload bytes.
uint64_t checksum(std::string_view S) {
  return HashBuilder().bytes(S.data(), S.size()).value();
}

/// Frames tagged sections inside a blob payload, mirroring the v1b frame
/// discipline: four ASCII tag chars, then the u64-length-prefixed body.
/// tools/schema_check.py pins every tag handed to section() against
/// docs/SCHEMA.md, exactly as it pins the v1b section tags.
class SectionFramer {
public:
  void section(const char (&Tag)[5], std::string_view Body) {
    W.bytes(Tag, 4);
    W.str(Body);
  }
  std::string take() { return W.take(); }

private:
  ByteWriter W;
};

bool readSection(ByteReader &R, const char (&Tag)[5],
                 std::string_view &Body) {
  char T[4];
  R.bytes(T, 4);
  Body = R.str();
  return R.ok() && std::memcmp(T, Tag, 4) == 0;
}

/// Raw u64 words, little-endian: a plain copy on little-endian hosts.
void putWords(ByteWriter &W, const uint64_t *Words, size_t N) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  W.bytes(Words, N * sizeof(uint64_t));
#else
  for (size_t I = 0; I < N; ++I)
    W.u64(Words[I]);
#endif
}

void getWords(ByteReader &R, uint64_t *Words, size_t N) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  R.bytes(Words, N * sizeof(uint64_t));
#else
  for (size_t I = 0; I < N; ++I)
    Words[I] = R.u64();
#endif
}

/// A matrix's flat entries: a varint count, then per entry the label
/// delta, the access byte and the resource — a delta to the previous
/// one within a (label, access) run, absolute where a run starts.
void encodeEntries(ByteWriter &W, const std::vector<RMEntry> &Entries) {
  W.varint(static_cast<uint32_t>(Entries.size()));
  LabelId PrevL = 0;
  int PrevA = -1;
  uint32_t PrevN = 0;
  for (const RMEntry &E : Entries) {
    int A = static_cast<int>(E.A);
    bool SameRun = E.L == PrevL && A == PrevA;
    W.varint(E.L - PrevL);
    W.u8(static_cast<uint8_t>(A));
    W.varint(SameRun ? E.N.raw() - PrevN : E.N.raw());
    PrevL = E.L;
    PrevA = A;
    PrevN = E.N.raw();
  }
}

/// Reads encodeEntries' stream. The grammar admits only ascending
/// labels; within a label an access above R1 or below the previous one
/// (entries out of order), a zero resource delta (an entry repeated), a
/// label or resource past 32 bits, or a count the payload cannot hold
/// fails the decode.
bool decodeEntries(ByteReader &R, std::vector<RMEntry> &Out) {
  uint32_t N = R.varint();
  if (!R.ok() || N > R.remaining() / 3) // an entry takes at least 3 bytes
    return false;
  Out.reserve(N);
  uint64_t L = 0, Res = 0;
  int PrevA = -1;
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t DL = R.varint();
    int A = R.u8();
    uint32_t X = R.varint();
    L += DL;
    if (DL)
      PrevA = -1;
    if (A > static_cast<int>(Access::R1) || A < PrevA ||
        (A == PrevA && X == 0))
      return false;
    Res = A == PrevA ? Res + X : X;
    if (L > UINT32_MAX || Res > UINT32_MAX)
      return false;
    PrevA = A;
    Out.push_back(RMEntry{static_cast<LabelId>(L), static_cast<Access>(A),
                          Resource::fromRaw(static_cast<uint32_t>(Res))});
  }
  return R.ok();
}

/// The R0 rows of a matrix: the universe size, then (when non-zero) the
/// universe as delta varints, the row count and each row's meaningful
/// words. Zero-width rows (no R0 entry anywhere) are written as none.
void encodeRows(ByteWriter &W, const ResourceMatrix &M) {
  const std::vector<uint32_t> &Universe = M.rowUniverse();
  W.varint(static_cast<uint32_t>(Universe.size()));
  if (Universe.empty())
    return;
  uint32_t Prev = 0;
  for (uint32_t Raw : Universe) {
    W.varint(Raw - Prev);
    Prev = Raw;
  }
  const BitMatrix &Rows = M.rows();
  size_t Words = (Universe.size() + 63) / 64;
  W.varint(static_cast<uint32_t>(Rows.numRows()));
  for (size_t L = 0; L < Rows.numRows(); ++L)
    putWords(W, Rows.row(L), Words);
}

/// Reads encodeRows' part into \p Rows (no rows: zero rows). A universe
/// not strictly ascending, a row count of zero beside a universe or past
/// the payload, or a bit set past the universe fails the decode.
bool decodeRows(ByteReader &R, R0Rows &Rows) {
  uint32_t U = R.varint();
  if (!R.ok() || U > R.remaining()) // an id takes at least a byte
    return false;
  if (U == 0)
    return true;
  Rows.Universe.resize(U);
  uint64_t Raw = 0;
  for (uint32_t I = 0; I < U; ++I) {
    uint32_t D = R.varint();
    Raw += D;
    if ((I && D == 0) || Raw > UINT32_MAX)
      return false;
    Rows.Universe[I] = static_cast<uint32_t>(Raw);
  }
  size_t Words = (static_cast<size_t>(U) + 63) / 64;
  uint32_t NumRows = R.varint();
  if (!R.ok() || NumRows == 0 ||
      NumRows > R.remaining() / (Words * sizeof(uint64_t)))
    return false;
  Rows.layout(NumRows);
  uint64_t Padding = U % 64 ? ~uint64_t(0) << (U % 64) : 0;
  for (uint32_t L = 0; L < NumRows; ++L) {
    uint64_t *Row = Rows.Bits.row(L);
    getWords(R, Row, Words);
    if (Row[Words - 1] & Padding)
      return false;
  }
  return R.ok();
}

/// A matrix section: the flat entries, then — for RMGL — the R0 rows.
std::string encodeMatrix(const ResourceMatrix &M, bool WithRows) {
  assert((WithRows || M.rows().numRows() == 0) && "rows in a flat section");
  ByteWriter W;
  const std::vector<RMEntry> &Flat = M.flatEntries();
  size_t RowWords = M.rows().numRows() * ((M.rowUniverse().size() + 63) / 64);
  W.reserve(Flat.size() * 4 + M.rowUniverse().size() * 2 +
            RowWords * sizeof(uint64_t) + 16);
  encodeEntries(W, Flat);
  if (WithRows)
    encodeRows(W, M);
  return W.take();
}

/// Decodes a matrix section straight into the factored form: the flat
/// entries as they are, the rows adopted through insertR0Rows.
bool decodeMatrix(std::string_view Blob, ResourceMatrix &M, bool WithRows) {
  ByteReader R(Blob);
  std::vector<RMEntry> Flat;
  R0Rows Rows;
  if (!decodeEntries(R, Flat) || (WithRows && !decodeRows(R, Rows)) ||
      !R.atEnd())
    return false;
  size_t NumFlat = Flat.size(), NumRows = Rows.Bits.numRows();
  M = ResourceMatrix(std::move(Flat));
  if (NumRows == 0)
    return true;
  M.insertR0Rows(std::move(Rows));
  // The adoption drops flat R0 entries at row labels and enters rows
  // that do not pay (ResourceMatrix::rowsPay) flat. The encoder writes
  // neither, so either one is a corrupt section.
  return M.flatEntries().size() == NumFlat && M.rows().numRows() == NumRows;
}

/// The flow graph: the node names in id order, then per node its
/// out-degree and successors — ascending, so the first absolute and the
/// rest as deltas — which is the (from, to) order of forEachEdgeId.
std::string encodeGraph(const Digraph &G) {
  ByteWriter W;
  size_t N = G.numNodes();
  W.varint(static_cast<uint32_t>(N));
  for (std::string_view Name : G.nodes()) {
    W.varint(static_cast<uint32_t>(Name.size()));
    W.bytes(Name.data(), Name.size());
  }
  std::vector<uint32_t> Degree(N, 0);
  G.forEachEdgeId([&](Digraph::NodeId From, Digraph::NodeId) {
    ++Degree[From];
  });
  W.reserve(W.size() + N + G.numEdges() * 2);
  Digraph::NodeId Next = 0, Prev = 0;
  G.forEachEdgeId([&](Digraph::NodeId From, Digraph::NodeId To) {
    bool First = Next <= From;
    while (Next <= From)
      W.varint(Degree[Next++]);
    W.varint(First ? To : To - Prev);
    Prev = To;
  });
  while (Next < N)
    W.varint(Degree[Next++]);
  return W.take();
}

/// Reads encodeGraph's section. A repeated name, a degree past the node
/// count or the payload, a zero successor delta (an edge repeated) or a
/// successor past the node count (out of range, or a delta that wraps
/// back to an earlier one) fails the decode.
bool decodeGraph(std::string_view Blob, Digraph &G) {
  ByteReader R(Blob);
  uint32_t N = R.varint();
  if (!R.ok() || N > R.remaining() / 2) // a name length and a degree each
    return false;
  G.reserveNodes(N);
  for (uint32_t I = 0; I < N; ++I) {
    std::string_view Name = R.raw(R.varint());
    if (!R.ok())
      return false;
    G.addNode(Name);
  }
  if (G.numNodes() != N) // duplicate names can only come from corruption
    return false;
  // Two walks over the successor lists: the first checks them and counts
  // the edges, so the second fills a list of exactly that size, which the
  // graph adopts without a shrinking copy.
  auto Walk = [N](ByteReader R, auto &&Emit) {
    for (Digraph::NodeId From = 0; From < N; ++From) {
      uint32_t Degree = R.varint();
      if (!R.ok() || Degree > N || Degree > R.remaining())
        return false;
      uint64_t To = 0;
      for (uint32_t K = 0; K < Degree; ++K) {
        uint32_t D = R.varint();
        To += D;
        if ((K && D == 0) || To >= N)
          return false;
        Emit(From, static_cast<Digraph::NodeId>(To));
      }
    }
    return R.ok() && R.atEnd();
  };
  size_t NumEdges = 0;
  if (!Walk(R, [&](Digraph::NodeId, Digraph::NodeId) { ++NumEdges; }))
    return false;
  std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>> Edges;
  Edges.reserve(NumEdges);
  Walk(R, [&](Digraph::NodeId From, Digraph::NodeId To) {
    Edges.emplace_back(From, To);
  });
  G.addEdges(std::move(Edges));
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// ArtifactStore
//===----------------------------------------------------------------------===//

ArtifactStore::ArtifactStore(std::string Directory)
    : Dir(std::move(Directory)) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  Usable = fs::is_directory(Dir, EC);
}

std::string ArtifactStore::fileName(const char (&Kind)[5], uint64_t Key) {
  return std::string(Kind, 4) + "-" + HashBuilder::hex(Key) + ".bin";
}

bool ArtifactStore::load(const char (&Kind)[5], uint64_t Key,
                         std::string &Payload) {
  return load(Kind, Key, [&](std::string_view Body) {
    Payload.assign(Body);
    return true;
  });
}

bool ArtifactStore::load(
    const char (&Kind)[5], uint64_t Key,
    const std::function<bool(std::string_view)> &Decode) {
  if (Usable) {
    // One sized read of the whole file.
    std::ifstream In(fs::path(Dir) / fileName(Kind, Key),
                     std::ios::binary | std::ios::ate);
    std::streamoff Size = In ? static_cast<std::streamoff>(In.tellg()) : -1;
    std::string Blob;
    if (Size > 0) {
      Blob.resize(static_cast<size_t>(Size));
      In.seekg(0);
      In.read(Blob.data(), Size);
    }
    if (In && Size > 0) {
      ByteReader R(Blob);
      char Magic[4];
      R.bytes(Magic, 4);
      uint32_t Version = R.u32();
      char StoredKind[4];
      R.bytes(StoredKind, 4);
      uint64_t StoredKey = R.u64();
      std::string_view Body = R.str();
      uint64_t Check = R.u64();
      // The hit is settled only once the payload decodes: a sound
      // envelope around a payload the decoder rejects is a miss.
      if (R.ok() && R.atEnd() &&
          std::memcmp(Magic, ArtifactStoreMagic, 4) == 0 &&
          Version == ArtifactStoreVersion &&
          std::memcmp(StoredKind, Kind, 4) == 0 && StoredKey == Key &&
          Check == checksum(Body) && Decode(Body)) {
        Hits.fetch_add(1, std::memory_order_relaxed);
        BytesRead.fetch_add(Blob.size(), std::memory_order_relaxed);
        return true;
      }
    }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ArtifactStore::store(const char (&Kind)[5], uint64_t Key,
                          std::string_view Payload) {
  if (!Usable)
    return;
  ByteWriter W;
  W.bytes(ArtifactStoreMagic, 4);
  W.u32(ArtifactStoreVersion);
  W.bytes(Kind, 4);
  W.u64(Key);
  W.str(Payload);
  W.u64(checksum(Payload));
  std::string Blob = W.take();

  // Temp name is per-thread so concurrent writers of the same key never
  // interleave; the final rename is atomic, so readers see old-or-new.
  uint64_t Tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  fs::path Tmp = fs::path(Dir) /
                 (".tmp-" + fileName(Kind, Key) + "-" + HashBuilder::hex(Tid));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return;
    Out.write(Blob.data(), static_cast<std::streamsize>(Blob.size()));
    if (!Out) {
      Out.close();
      std::error_code EC;
      fs::remove(Tmp, EC);
      return;
    }
  }
  std::error_code EC;
  fs::rename(Tmp, fs::path(Dir) / fileName(Kind, Key), EC);
  if (EC) {
    fs::remove(Tmp, EC);
    return;
  }
  Writes.fetch_add(1, std::memory_order_relaxed);
  BytesWritten.fetch_add(Blob.size(), std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Whole-design blob ("dsgn")
//===----------------------------------------------------------------------===//

std::string vif::driver::encodeDesignArtifact(const IFAResult &R) {
  SectionFramer F;
  F.section("RMLO", encodeMatrix(R.RMlo, false));
  F.section("RMGL", encodeMatrix(R.RMgl, true));
  F.section("GRPH", encodeGraph(R.Graph));
  return F.take();
}

bool vif::driver::decodeDesignArtifact(std::string_view Payload,
                                       ResourceMatrix &RMlo,
                                       ResourceMatrix &RMgl,
                                       Digraph &Graph) {
  ByteReader R(Payload);
  std::string_view Lo, Gl, Gr;
  if (!readSection(R, "RMLO", Lo) || !readSection(R, "RMGL", Gl) ||
      !readSection(R, "GRPH", Gr) || !R.atEnd())
    return false;
  return decodeMatrix(Lo, RMlo, false) && decodeMatrix(Gl, RMgl, true) &&
         decodeGraph(Gr, Graph);
}

//===----------------------------------------------------------------------===//
// Query-index blob ("qidx")
//===----------------------------------------------------------------------===//

std::string vif::driver::encodeQueryIndex(const query::FlowQueryEngine &E) {
  const BitMatrix &C = E.closureMatrix();
  size_t N = C.numRows();
  size_t Words = (N + 63) / 64; // meaningful words per row (bits == rows)
  ByteWriter W;
  W.u64(N);
  for (size_t RI = 0; RI < N; ++RI)
    putWords(W, C.row(RI), Words);
  SectionFramer F;
  F.section("QIDX", W.take());
  return F.take();
}

std::optional<query::FlowQueryEngine>
vif::driver::decodeQueryIndex(std::string_view Payload,
                              const Digraph &Graph) {
  ByteReader Outer(Payload);
  std::string_view Body;
  if (!readSection(Outer, "QIDX", Body) || !Outer.atEnd())
    return std::nullopt;
  ByteReader R(Body);
  uint64_t N = R.u64();
  if (N != Graph.numNodes())
    return std::nullopt;
  size_t Words = (static_cast<size_t>(N) + 63) / 64;
  if (N && N > R.remaining() / (Words * 8))
    return std::nullopt;
  BitMatrix Closure(static_cast<size_t>(N), static_cast<size_t>(N));
  for (uint64_t RI = 0; RI < N; ++RI) {
    uint64_t *Row = Closure.row(static_cast<size_t>(RI));
    getWords(R, Row, Words);
    // Padding bits beyond N in the last word must stay clear — the
    // matrix's word-level consumers rely on it.
    if (N % 64)
      Row[Words - 1] &= ~uint64_t(0) >> (64 - N % 64);
  }
  if (!R.ok() || !R.atEnd())
    return std::nullopt;
  return query::FlowQueryEngine::fromIndex(Graph, std::move(Closure));
}
