//===- support/Json.h - Streaming JSON writer -------------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal streaming JSON writer for machine-readable tool output (the
/// driver layer's batch reports, `vifc --json`). No external dependency,
/// no DOM: values are emitted directly to an ostream, with the writer
/// tracking nesting so commas, newlines and indentation come out right.
/// Strings are escaped per RFC 8259; non-ASCII bytes pass through verbatim
/// (the repo's node names carry UTF-8 ◦/• marks).
///
//===----------------------------------------------------------------------===//

#ifndef VIF_SUPPORT_JSON_H
#define VIF_SUPPORT_JSON_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace vif {

/// Escapes \p S for inclusion in a double-quoted JSON string (quotes not
/// included).
std::string jsonEscape(std::string_view S);

/// Appends the escaped form of \p S to \p Out. Clean runs (the common
/// case — most emitted strings need no escaping at all) are appended in
/// one block instead of per character.
void jsonEscapeTo(std::string &Out, std::string_view S);

/// Layout of an emitted document: Pretty is the human-facing multi-line
/// form (`vifc --json`); Compact packs the whole document onto one line
/// with no trailing newline — the shape the line-delimited `vifc serve`
/// protocol requires (docs/SERVER.md).
enum class JsonStyle : uint8_t { Pretty, Compact };

/// Writes one JSON document. Usage:
///
///   JsonWriter J(OS);
///   J.beginObject();
///   J.key("designs"); J.beginArray(); ... J.endArray();
///   J.endObject();   // emits the final newline (Pretty style only)
///
/// Output is batched in an internal buffer that is handed to the stream
/// in chunks of about ChunkBytes (and the rest when the top-level
/// container closes or on destruction), so emitting a large document
/// costs string appends, not per-token ostream calls, and never holds
/// more than one chunk. A writer over a std::string appends straight to
/// it instead: the whole response is built once, in place.
class JsonWriter {
public:
  /// The buffered bytes that trigger a write to the stream.
  static constexpr size_t ChunkBytes = size_t(64) << 10;

  explicit JsonWriter(std::ostream &OS, unsigned IndentWidth = 2)
      : OS(&OS), IndentWidth(IndentWidth) {
    Buf.reserve(ChunkBytes + 1024);
  }
  JsonWriter(std::ostream &OS, JsonStyle Style, unsigned IndentWidth = 2)
      : JsonWriter(OS, IndentWidth) {
    Compact = Style == JsonStyle::Compact;
  }
  JsonWriter(std::string &Out, JsonStyle Style, unsigned IndentWidth = 2)
      : Buf(Out), IndentWidth(IndentWidth),
        Compact(Style == JsonStyle::Compact) {}
  JsonWriter(const JsonWriter &) = delete;
  JsonWriter &operator=(const JsonWriter &) = delete;
  ~JsonWriter() { flush(); }

  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }

  /// Emits the key of the next object member.
  void key(std::string_view K);

  void value(std::string_view V);
  void value(const char *V) { value(std::string_view(V)); }
  void value(const std::string &V) { value(std::string_view(V)); }
  void value(bool V);
  void value(double V);
  // One overload per standard integer width so size_t/uint64_t/unsigned
  // all resolve exactly on every platform (size_t is unsigned long on
  // LP64 Linux but maps differently elsewhere).
  void value(long long V);
  void value(unsigned long long V);
  void value(long V) { value(static_cast<long long>(V)); }
  void value(unsigned long V) { value(static_cast<unsigned long long>(V)); }
  void value(int V) { value(static_cast<long long>(V)); }
  void value(unsigned V) { value(static_cast<unsigned long long>(V)); }
  void null();
  /// Emits \p Token, an already-rendered JSON value, verbatim.
  void rawValue(std::string_view Token);

  /// The fixed bytes of an object whose members \p Keys all hold strings,
  /// laid out as the next element of the open array: piece 0 runs from
  /// the comma that separates it from the previous element through the
  /// first value's opening quote, piece I from value I-1's closing quote
  /// through value I's opening quote, and the last piece closes the last
  /// value and the object. So rawElement({F[0], V0, F[1], V1, F[2]}), with
  /// V0 and V1 already escaped, emits the bytes beginObject,
  /// member("k0", V0), member("k1", V1), endObject would; adjacent pieces
  /// may be joined up front. The bulk path for large arrays of objects.
  std::vector<std::string>
  stringObjectFrame(std::initializer_list<std::string_view> Keys) const;
  /// Emits one already-rendered element of the open array, given in
  /// pieces whose first starts with the separating comma (as
  /// stringObjectFrame lays it out); the array's first element drops it.
  void rawElement(std::initializer_list<std::string_view> Pieces);

  /// key() + value() in one call.
  template <typename T> void member(std::string_view K, const T &V) {
    key(K);
    value(V);
  }

private:
  void open(char C);
  void close(char C);
  /// Emits the separator/indentation due before the next value, after
  /// handing a full chunk to the stream.
  void prefix();
  void indent();
  /// Writes the buffered output to the stream (no-op for a string sink).
  void flush();

  /// The stream sink, or null when the writer appends to a string.
  std::ostream *OS = nullptr;
  /// Pending output of a stream sink.
  std::string Own;
  /// Where output is appended: Own, or the caller's string.
  std::string &Buf = Own;
  unsigned IndentWidth;
  /// Compact style: no newlines, no indentation, no trailing newline.
  bool Compact = false;
  /// One entry per open container: the number of elements emitted so far.
  std::vector<size_t> Stack;
  /// True right after key(): the next value sits on the same line.
  bool AfterKey = false;
};

} // namespace vif

#endif // VIF_SUPPORT_JSON_H
