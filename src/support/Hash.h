//===- support/Hash.h - Content hashing -------------------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small incremental content hash (64-bit FNV-1a) for content-addressed
/// caching: the driver's SessionCache keys sessions by the hash of the
/// VHDL source text plus the analysis options (see driver/SessionCache.h).
/// It is the project's one FNV-1a and one hex formatter: serve's
/// contentKeys, the artifact store's file names and blob checksums, and
/// the per-process slice keys (rd/Incremental.h) all come from here.
/// Not cryptographic — collisions are tolerable for a cache (a collision
/// serves the wrong artifact, so keys also fold in lengths to keep the
/// accidental-collision surface small) and the stream is trusted local
/// input, not an adversary.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_SUPPORT_HASH_H
#define VIF_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace vif {

/// Incremental 64-bit FNV-1a. Feed bytes/integers/strings in a fixed
/// order; equal feed sequences produce equal values.
class HashBuilder {
public:
  HashBuilder &bytes(const void *Data, size_t Len) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I < Len; ++I) {
      H ^= P[I];
      H *= 0x100000001b3ull;
    }
    return *this;
  }

  /// Length-prefixed, so ("ab","c") and ("a","bc") hash differently.
  HashBuilder &str(std::string_view S) {
    u64(S.size());
    return bytes(S.data(), S.size());
  }

  HashBuilder &u64(uint64_t V) { return bytes(&V, sizeof(V)); }

  /// The words \p W[0 .. N) trimmed of trailing zero words, length-prefixed:
  /// a bit set folds the same under any universe padding.
  HashBuilder &words(const uint64_t *W, size_t N) {
    while (N && !W[N - 1])
      --N;
    u64(N);
    return bytes(W, N * sizeof(uint64_t));
  }

  HashBuilder &boolean(bool B) { return u64(B ? 1 : 0); }

  uint64_t value() const { return H; }

  /// 16 lowercase hex digits of value().
  std::string hex() const { return hex(H); }

  /// 16 lowercase hex digits of \p V (zero-padded, like "%016llx").
  static std::string hex(uint64_t V) {
    static const char Digits[] = "0123456789abcdef";
    std::string Out(16, '0');
    for (int I = 15; I >= 0; --I, V >>= 4)
      Out[static_cast<size_t>(I)] = Digits[V & 0xf];
    return Out;
  }

private:
  uint64_t H = 0xcbf29ce484222325ull; // FNV offset basis
};

} // namespace vif

#endif // VIF_SUPPORT_HASH_H
