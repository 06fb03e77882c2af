//===- support/BinaryIO.h - Bounds-checked little-endian IO -----*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-level encode/decode helpers shared by every binary format in the
/// project: the v1b response frames (driver/V1b.cpp, whose strings carry
/// a u32 length prefix — str32), the on-disk artifact store's blob
/// envelope (driver/ArtifactStore.cpp) and the per-process artifact
/// payloads inside it (rd/Incremental.cpp). Writers append to a
/// std::string; readers carry an Ok flag that latches false on the first
/// out-of-bounds read, so decoders can run a whole parse and check once at
/// the end — the discipline that lets corrupt store entries degrade to
/// cache misses instead of undefined behavior.
///
/// All integers are little-endian regardless of host order. varint is
/// the unsigned LEB128 form of a u32 field (7 bits per byte, low group
/// first, the high bit set on every byte but the last): 1 to 5 bytes,
/// and the reader accepts only the shortest form, so a decoded stream
/// re-encodes to the bytes it came from.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_SUPPORT_BINARYIO_H
#define VIF_SUPPORT_BINARYIO_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace vif {

/// Appends little-endian scalars and raw bytes to an owned buffer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }

  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }

  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }

  void varint(uint32_t V) {
    for (; V >= 0x80; V >>= 7)
      Buf.push_back(static_cast<char>((V & 0x7f) | 0x80));
    Buf.push_back(static_cast<char>(V));
  }

  void bytes(const void *Data, size_t Len) {
    Buf.append(static_cast<const char *>(Data), Len);
  }

  /// Length-prefixed string (u64 length, then the bytes).
  void str(std::string_view S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }

  /// Length-prefixed string with a u32 length (the v1b string form).
  void str32(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    bytes(S.data(), S.size());
  }

  void reserve(size_t N) { Buf.reserve(N); }
  size_t size() const { return Buf.size(); }
  const std::string &data() const { return Buf; }
  std::string take() { return std::move(Buf); }

private:
  std::string Buf;
};

/// Reads little-endian scalars and raw bytes from a borrowed buffer. Any
/// read past the end returns zeros/empties and latches ok() to false; the
/// caller checks ok() (and usually atEnd()) once after decoding.
class ByteReader {
public:
  explicit ByteReader(std::string_view Data)
      : P(Data.data()), End(Data.data() + Data.size()) {}

  uint8_t u8() {
    if (!need(1))
      return 0;
    return static_cast<uint8_t>(*P++);
  }

  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(static_cast<unsigned char>(*P++)) << (8 * I);
    return V;
  }

  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(static_cast<unsigned char>(*P++)) << (8 * I);
    return V;
  }

  /// A varint u32. An overlong form (a final zero byte after the first),
  /// a sixth byte or a value past 32 bits returns 0 and latches ok()
  /// false, like a read past the end.
  uint32_t varint() {
    uint32_t V = 0;
    for (unsigned Shift = 0; Shift < 35; Shift += 7) {
      if (!need(1))
        return 0;
      uint8_t B = static_cast<uint8_t>(*P++);
      if (Shift == 28 && B > 0x0f)
        break; // past 32 bits, or a continuation into a sixth byte
      V |= static_cast<uint32_t>(B & 0x7f) << Shift;
      if (!(B & 0x80)) {
        if (B == 0 && Shift != 0)
          break; // overlong
        return V;
      }
    }
    OkFlag = false;
    return 0;
  }

  void bytes(void *Dst, size_t Len) {
    if (!need(Len)) {
      std::memset(Dst, 0, Len);
      return;
    }
    std::memcpy(Dst, P, Len);
    P += Len;
  }

  /// A borrowed view of the next \p Len bytes (empty on underflow).
  std::string_view raw(size_t Len) {
    if (!need(Len))
      return {};
    std::string_view V(P, Len);
    P += Len;
    return V;
  }

  /// Length-prefixed string written by ByteWriter::str.
  std::string_view str() {
    uint64_t Len = u64();
    if (Len > remaining()) { // also catches absurd lengths from corruption
      OkFlag = false;
      return {};
    }
    return raw(static_cast<size_t>(Len));
  }

  /// Length-prefixed string written by ByteWriter::str32.
  std::string_view str32() { return raw(u32()); }

  size_t remaining() const { return static_cast<size_t>(End - P); }
  bool atEnd() const { return P == End; }
  bool ok() const { return OkFlag; }

private:
  bool need(size_t N) {
    if (static_cast<size_t>(End - P) < N) {
      OkFlag = false;
      return false;
    }
    return true;
  }

  const char *P;
  const char *End;
  bool OkFlag = true;
};

} // namespace vif

#endif // VIF_SUPPORT_BINARYIO_H
