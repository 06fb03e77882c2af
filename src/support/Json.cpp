//===- support/Json.cpp ---------------------------------------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <ostream>

using namespace vif;

void vif::jsonEscapeTo(std::string &Out, std::string_view S) {
  size_t RunStart = 0;
  auto FlushRun = [&](size_t End) {
    if (End > RunStart)
      Out.append(S.data() + RunStart, End - RunStart);
  };
  for (size_t I = 0; I < S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    const char *Escape = nullptr;
    switch (C) {
    case '"':
      Escape = "\\\"";
      break;
    case '\\':
      Escape = "\\\\";
      break;
    case '\b':
      Escape = "\\b";
      break;
    case '\f':
      Escape = "\\f";
      break;
    case '\n':
      Escape = "\\n";
      break;
    case '\r':
      Escape = "\\r";
      break;
    case '\t':
      Escape = "\\t";
      break;
    default:
      if (C < 0x20) {
        FlushRun(I);
        char Hex[8];
        std::snprintf(Hex, sizeof(Hex), "\\u%04x", C);
        Out += Hex;
        RunStart = I + 1;
      }
      continue;
    }
    FlushRun(I);
    Out += Escape;
    RunStart = I + 1;
  }
  FlushRun(S.size());
}

std::string vif::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  jsonEscapeTo(Out, S);
  return Out;
}

void JsonWriter::flush() {
  if (OS && !Buf.empty()) {
    OS->write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
    Buf.clear();
  }
}

void JsonWriter::indent() {
  Buf.append(Stack.size() * IndentWidth, ' ');
}

void JsonWriter::prefix() {
  if (Buf.size() >= ChunkBytes)
    flush();
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (Stack.empty())
    return;
  if (Stack.back() != 0)
    Buf += ',';
  if (!Compact) {
    Buf += '\n';
    indent();
  }
  ++Stack.back();
}

void JsonWriter::open(char C) {
  prefix();
  Buf += C;
  Stack.push_back(0);
}

void JsonWriter::close(char C) {
  assert(!Stack.empty() && "unbalanced JSON container");
  bool HadElements = Stack.back() != 0;
  Stack.pop_back();
  if (HadElements && !Compact) {
    Buf += '\n';
    indent();
  }
  Buf += C;
  if (Stack.empty()) {
    if (!Compact)
      Buf += '\n';
    // The document is complete; hand the rest to the stream.
    flush();
  }
}

void JsonWriter::key(std::string_view K) {
  assert(!AfterKey && "key without a value");
  prefix();
  Buf += '"';
  jsonEscapeTo(Buf, K);
  Buf += (Compact ? "\":" : "\": ");
  AfterKey = true;
}

void JsonWriter::value(std::string_view V) {
  prefix();
  Buf += '"';
  jsonEscapeTo(Buf, V);
  Buf += '"';
}

void JsonWriter::rawValue(std::string_view Token) {
  prefix();
  Buf += Token;
}

void JsonWriter::rawElement(std::initializer_list<std::string_view> Pieces) {
  assert(!AfterKey && !Stack.empty() && "an element needs an open array");
  if (Buf.size() >= ChunkBytes)
    flush();
  bool First = Stack.back()++ == 0;
  for (std::string_view Piece : Pieces) {
    if (First) {
      assert(!Piece.empty() && Piece[0] == ',' && "element without a comma");
      Piece.remove_prefix(1);
      First = false;
    }
    Buf += Piece;
  }
}

std::vector<std::string> JsonWriter::stringObjectFrame(
    std::initializer_list<std::string_view> Keys) const {
  assert(Keys.size() != 0 && "an object frame needs a member");
  // The object sits one level below the open array, its members two.
  std::string Break, MemberBreak;
  if (!Compact) {
    Break = "\n" + std::string(Stack.size() * IndentWidth, ' ');
    MemberBreak = "\n" + std::string((Stack.size() + 1) * IndentWidth, ' ');
  }
  std::vector<std::string> Frame;
  std::string Piece = "," + Break + "{";
  for (std::string_view K : Keys) {
    if (!Frame.empty())
      Piece += ',';
    Piece += MemberBreak;
    Piece += '"';
    jsonEscapeTo(Piece, K);
    Piece += Compact ? "\":\"" : "\": \"";
    Frame.push_back(std::move(Piece));
    Piece = "\"";
  }
  Piece += Break;
  Piece += '}';
  Frame.push_back(std::move(Piece));
  return Frame;
}

void JsonWriter::value(bool V) {
  prefix();
  Buf += (V ? "true" : "false");
}

void JsonWriter::value(double V) {
  prefix();
  if (!std::isfinite(V)) {
    Buf += "null"; // JSON has no Inf/NaN
    return;
  }
  char Num[32];
  std::snprintf(Num, sizeof(Num), "%.6g", V);
  Buf += Num;
}

void JsonWriter::value(long long V) {
  prefix();
  char Num[24];
  std::snprintf(Num, sizeof(Num), "%lld", V);
  Buf += Num;
}

void JsonWriter::value(unsigned long long V) {
  prefix();
  char Num[24];
  std::snprintf(Num, sizeof(Num), "%llu", V);
  Buf += Num;
}

void JsonWriter::null() {
  prefix();
  Buf += "null";
}
