//===- driver/ArtifactStore.cpp -------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "driver/ArtifactStore.h"

#include "support/BinaryIO.h"
#include "support/Hash.h"

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

std::string encodeMatrix(const ResourceMatrix &M) {
  ByteWriter W;
  W.u64(M.size());
  for (const RMEntry &E : M) {
    W.u32(E.L);
    W.u8(static_cast<uint8_t>(E.A));
    W.u32(E.N.raw());
  }
  return W.take();
}

/// Reads one (u32 label, u8 access, u32 resource) entry; the access byte
/// is returned unchecked in \p A.
RMEntry readEntry(ByteReader &R, uint8_t &A) {
  RMEntry E;
  E.L = R.u32();
  A = R.u8();
  E.N = Resource::fromRaw(R.u32());
  E.A = static_cast<Access>(A);
  return E;
}

/// Decodes a matrix section into the form the pipeline builds: flat, or
/// (\p R0AsRows, the closed RMgl) flat non-R0 entries plus R0 rows when
/// ResourceMatrix::rowsPay — the rule the closure's adoption applies, so
/// the row allocation is bounded by the section's own R0 entry count. One
/// validating scan reads every entry — access in range and strictly
/// ascending, which also rejects the duplicates and reorderings only
/// corruption produces — fills the flat part and numbers the rows; a
/// second scan sets the row bits (or, for sparse rows, reads every entry
/// flat). No per-entry insert.
bool decodeMatrix(std::string_view Blob, ResourceMatrix &M, bool R0AsRows) {
  constexpr size_t EntryBytes = 9;
  ByteReader R(Blob);
  uint64_t N = R.u64();
  if (!R.ok() || N > R.remaining() / EntryBytes ||
      R.remaining() != N * EntryBytes)
    return false;
  std::vector<RMEntry> Flat;
  if (!R0AsRows)
    Flat.reserve(static_cast<size_t>(N));
  R0Rows Rows;
  size_t NumRows = 0, NumR0 = 0;
  RMEntry Prev;
  for (uint64_t I = 0; I < N; ++I) {
    uint8_t A;
    RMEntry E = readEntry(R, A);
    if (A > static_cast<uint8_t>(Access::R1) || (I && !(Prev < E)))
      return false;
    Prev = E;
    if (R0AsRows && E.A == Access::R0) {
      Rows.name(E.N.raw());
      NumRows = static_cast<size_t>(E.L) + 1;
      ++NumR0;
    } else {
      Flat.push_back(E);
    }
  }
  if (NumR0 == 0) {
    M = ResourceMatrix(std::move(Flat));
    return true;
  }
  Rows.number();
  bool Keep = ResourceMatrix::rowsPay(NumRows, Rows.Universe.size(), NumR0);
  if (Keep) {
    Rows.layout(NumRows);
  } else {
    Flat.clear();
    Flat.reserve(static_cast<size_t>(N));
  }
  ByteReader Again(Blob);
  Again.u64();
  for (uint64_t I = 0; I < N; ++I) {
    uint8_t A;
    RMEntry E = readEntry(Again, A);
    if (!Keep)
      Flat.push_back(E);
    else if (E.A == Access::R0)
      Rows.set(E.L, E.N.raw());
  }
  M = ResourceMatrix(std::move(Flat));
  if (Keep)
    M.insertR0Rows(std::move(Rows));
  return true;
}

std::string encodeGraph(const Digraph &G) {
  ByteWriter W;
  W.u64(G.numNodes());
  for (std::string_view Name : G.nodes())
    W.str(Name);
  W.u64(G.numEdges());
  G.forEachEdgeId([&W](Digraph::NodeId From, Digraph::NodeId To) {
    W.u32(From);
    W.u32(To);
  });
  return W.take();
}

bool decodeGraph(std::string_view Blob, Digraph &G) {
  ByteReader R(Blob);
  uint64_t N = R.u64();
  if (N > R.remaining() / 8) // every name costs at least its length prefix
    return false;
  G.reserveNodes(static_cast<size_t>(N));
  for (uint64_t I = 0; I < N; ++I) {
    std::string_view Name = R.str();
    if (!R.ok())
      return false;
    G.addNode(Name);
  }
  if (G.numNodes() != N) // duplicate names can only come from corruption
    return false;
  uint64_t NumEdges = R.u64();
  if (NumEdges > R.remaining() / 8)
    return false;
  std::vector<std::pair<Digraph::NodeId, Digraph::NodeId>> Edges;
  Edges.reserve(static_cast<size_t>(NumEdges));
  for (uint64_t I = 0; I < NumEdges; ++I) {
    uint32_t From = R.u32();
    uint32_t To = R.u32();
    if (From >= N || To >= N)
      return false;
    Edges.emplace_back(From, To);
  }
  G.addEdges(std::move(Edges));
  return R.ok() && R.atEnd();
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
  if (Usable) {
    std::ifstream In(fs::path(Dir) / fileName(Kind, Key),
                     std::ios::binary);
    if (In) {
      std::string Blob((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
      ByteReader R(Blob);
      char Magic[4];
      R.bytes(Magic, 4);
      uint32_t Version = R.u32();
      char StoredKind[4];
      R.bytes(StoredKind, 4);
      uint64_t StoredKey = R.u64();
      std::string_view Body = R.str();
      uint64_t Check = R.u64();
      if (R.ok() && R.atEnd() &&
          std::memcmp(Magic, ArtifactStoreMagic, 4) == 0 &&
          Version == ArtifactStoreVersion &&
          std::memcmp(StoredKind, Kind, 4) == 0 && StoredKey == Key &&
          Check == checksum(Body)) {
        Payload.assign(Body);
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
  F.section("RMLO", encodeMatrix(R.RMlo));
  F.section("RMGL", encodeMatrix(R.RMgl));
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
  for (size_t RI = 0; RI < N; ++RI) {
    const uint64_t *Row = C.row(RI);
    for (size_t WI = 0; WI < Words; ++WI)
      W.u64(Row[WI]);
  }
  W.u64(E.rowStart().size());
  for (uint32_t V : E.rowStart())
    W.u32(V);
  W.u64(E.succList().size());
  for (Digraph::NodeId S : E.succList())
    W.u32(S);
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
    for (size_t WI = 0; WI < Words; ++WI)
      Row[WI] = R.u64();
    // Padding bits beyond N in the last word must stay clear — the
    // matrix's word-level consumers rely on it.
    if (N % 64)
      Row[Words - 1] &= ~uint64_t(0) >> (64 - N % 64);
  }
  uint64_t RSCount = R.u64();
  if (RSCount != N + 1 || RSCount > R.remaining() / 4)
    return std::nullopt;
  std::vector<uint32_t> RowStart(static_cast<size_t>(RSCount));
  for (uint32_t &V : RowStart)
    V = R.u32();
  uint64_t SCount = R.u64();
  if (SCount > R.remaining() / 4)
    return std::nullopt;
  std::vector<Digraph::NodeId> Succ(static_cast<size_t>(SCount));
  for (Digraph::NodeId &S : Succ)
    S = R.u32();
  if (!R.ok() || !R.atEnd())
    return std::nullopt;
  return query::FlowQueryEngine::fromIndex(Graph, std::move(Closure),
                                           std::move(RowStart),
                                           std::move(Succ));
}
