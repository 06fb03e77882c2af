//===- ast/Arena.h - Storage of one parse tree ------------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AstArena is the bump allocator that holds every Expr and Stmt node of
/// one tree, their child lists, identifier spellings and literal bits. A
/// DesignFile or StatementProgram owns the arena its parser filled, and an
/// ElaboratedProgram adopts it, so a tree is freed in one sweep of its
/// blocks and never node by node. The arena runs no destructors: whatever
/// lives in it must be trivially destructible.
///
/// Blocks grow geometrically from a small first block, so a tiny design
/// pays for a few hundred bytes and a large one for a few dozen blocks.
/// Moving an arena moves its blocks, never the bytes in them: node
/// pointers stay valid across moves.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_AST_ARENA_H
#define VIF_AST_ARENA_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace vif {

/// A read-only run of \p T that lives in an AstArena (or is empty).
template <typename T> class ArenaArray {
public:
  ArenaArray() = default;
  ArenaArray(const T *Data, size_t Size)
      : Data(Data), Count(static_cast<uint32_t>(Size)) {
    assert(Size <= UINT32_MAX && "arena array too long");
  }

  const T *begin() const { return Data; }
  const T *end() const { return Data + Count; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  const T &operator[](size_t I) const {
    assert(I < Count && "arena array index out of range");
    return Data[I];
  }
  const T &front() const { return (*this)[0]; }

private:
  const T *Data = nullptr;
  uint32_t Count = 0;
};

class AstArena {
public:
  AstArena() = default;
  AstArena(AstArena &&O) noexcept { *this = std::move(O); }
  AstArena &operator=(AstArena &&O) noexcept {
    Blocks = std::move(O.Blocks);
    Cur = std::exchange(O.Cur, nullptr);
    End = std::exchange(O.End, nullptr);
    NextBlock = std::exchange(O.NextBlock, FirstBlockBytes);
    Bytes = std::exchange(O.Bytes, 0);
    O.Blocks.clear();
    return *this;
  }
  AstArena(const AstArena &) = delete;
  AstArena &operator=(const AstArena &) = delete;

  /// Constructs a \p T in the arena.
  template <typename T, typename... Args> T *make(Args &&...A) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena never runs destructors");
    return new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(A)...);
  }

  /// Uninitialized room for \p N items of \p T.
  template <typename T> T *allocateArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena never runs destructors");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// A copy of \p N items of \p T starting at \p Items.
  template <typename T> ArenaArray<T> copy(const T *Items, size_t N) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "arena arrays are copied bytewise");
    if (N == 0)
      return {};
    T *Out = allocateArray<T>(N);
    std::memcpy(static_cast<void *>(Out), Items, N * sizeof(T));
    return ArenaArray<T>(Out, N);
  }
  template <typename T> ArenaArray<T> copy(const std::vector<T> &Items) {
    return copy(Items.data(), Items.size());
  }

  /// A copy of \p S's characters.
  std::string_view copyString(std::string_view S) {
    if (S.empty())
      return {};
    char *Out = allocateArray<char>(S.size());
    std::memcpy(Out, S.data(), S.size());
    return std::string_view(Out, S.size());
  }

  /// Bytes of every block the arena holds (used or not).
  size_t blockBytes() const { return Bytes; }

private:
  static constexpr size_t FirstBlockBytes = 1024;
  static constexpr size_t MaxBlockBytes = 256 * 1024;

  void *allocate(size_t Size, size_t Align) {
    assert(Align <= alignof(std::max_align_t) && "over-aligned arena item");
    uintptr_t P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) &
                  ~static_cast<uintptr_t>(Align - 1);
    if (Cur && P + Size <= reinterpret_cast<uintptr_t>(End)) {
      Cur = reinterpret_cast<char *>(P + Size);
      return reinterpret_cast<void *>(P);
    }
    return grow(Size);
  }

  /// Starts the next block, or gives an item too large for it a block of
  /// its own (the current block stays open).
  void *grow(size_t Size) {
    size_t BlockSize = NextBlock;
    if (Size > BlockSize / 2) {
      Blocks.emplace_back(new char[Size]);
      Bytes += Size;
      return Blocks.back().get();
    }
    NextBlock = std::min(NextBlock * 2, MaxBlockBytes);
    Blocks.emplace_back(new char[BlockSize]);
    Bytes += BlockSize;
    Cur = Blocks.back().get() + Size;
    End = Blocks.back().get() + BlockSize;
    return Blocks.back().get();
  }

  std::vector<std::unique_ptr<char[]>> Blocks;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextBlock = FirstBlockBytes;
  size_t Bytes = 0;
};

} // namespace vif

#endif // VIF_AST_ARENA_H
