//===- tests/jsonparse_test.cpp - support/JsonParse -----------------------===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/JsonParse.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace vif;

namespace {

JsonValue parseOk(const std::string &Text) {
  std::string Error;
  std::optional<JsonValue> V = parseJson(Text, &Error);
  EXPECT_TRUE(V.has_value()) << Text << " -> " << Error;
  return V ? *V : JsonValue();
}

std::string parseErr(const std::string &Text) {
  std::string Error;
  EXPECT_FALSE(parseJson(Text, &Error).has_value()) << Text;
  return Error;
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_TRUE(parseOk("true").asBool());
  EXPECT_FALSE(parseOk("false").asBool());
  EXPECT_DOUBLE_EQ(parseOk("42").asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(parseOk("-3.5e2").asNumber(), -350.0);
  EXPECT_DOUBLE_EQ(parseOk("0").asNumber(), 0.0);
  EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
  EXPECT_EQ(parseOk("  \"ws\"  ").asString(), "ws");
}

TEST(JsonParse, NestedContainersKeepOrder) {
  JsonValue V = parseOk(R"({"b": [1, {"x": true}], "a": null, "b": 2})");
  ASSERT_TRUE(V.isObject());
  ASSERT_EQ(V.members().size(), 3u) << "duplicates preserved";
  EXPECT_EQ(V.members()[0].first, "b");
  EXPECT_EQ(V.members()[1].first, "a");
  const JsonValue *B = V.find("b");
  ASSERT_NE(B, nullptr);
  ASSERT_TRUE(B->isArray()) << "find returns the first member";
  ASSERT_EQ(B->elements().size(), 2u);
  const JsonValue *X = B->elements()[1].find("x");
  ASSERT_NE(X, nullptr);
  EXPECT_TRUE(X->asBool());
  EXPECT_EQ(V.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parseOk(R"("a\"b\\c\/d")").asString(), "a\"b\\c/d");
  EXPECT_EQ(parseOk(R"("\b\f\n\r\t")").asString(), "\b\f\n\r\t");
  EXPECT_EQ(parseOk(R"("A")").asString(), "A");
  EXPECT_EQ(parseOk(R"("é")").asString(), "\xc3\xa9");
  EXPECT_EQ(parseOk(R"("◦")").asString(), "◦");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parseOk(R"("😀")").asString(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(parseOk("\"raw ◦ utf8\"").asString(), "raw ◦ utf8");
}

TEST(JsonParse, ErrorsCarryOffsets) {
  EXPECT_NE(parseErr("").find("unexpected end"), std::string::npos);
  EXPECT_NE(parseErr("{\"a\": }").find("offset"), std::string::npos);
  EXPECT_NE(parseErr("[1, 2").find("unterminated array"),
            std::string::npos);
  EXPECT_NE(parseErr("[1 2]").find("','"), std::string::npos);
  EXPECT_NE(parseErr("\"open").find("unterminated"), std::string::npos);
  EXPECT_NE(parseErr("nul"), "");
  EXPECT_NE(parseErr("01"), "");
  EXPECT_NE(parseErr("1 2").find("trailing"), std::string::npos);
  EXPECT_NE(parseErr("{\"a\" 1}").find("':'"), std::string::npos);
  EXPECT_NE(parseErr(R"("\ud83d")").find("surrogate"), std::string::npos);
  EXPECT_NE(parseErr(R"("\q")"), "");
  EXPECT_NE(parseErr("{1: 2}").find("member name"), std::string::npos);
}

TEST(JsonParse, DepthLimitFailsCleanly) {
  std::string Deep(200, '[');
  Deep += std::string(200, ']');
  EXPECT_NE(parseErr(Deep).find("nesting too deep"), std::string::npos);
  // 32 levels is comfortably within the limit.
  std::string Ok(32, '[');
  Ok += "1";
  Ok += std::string(32, ']');
  parseOk(Ok);
}

// Round-trip: whatever JsonWriter emits (both styles), parseJson accepts.
TEST(JsonParse, RoundTripsWriterOutput) {
  for (JsonStyle Style : {JsonStyle::Pretty, JsonStyle::Compact}) {
    std::ostringstream OS;
    JsonWriter J(OS, Style);
    J.beginObject();
    J.member("text", "line\nbreak \"quoted\" ◦");
    J.member("count", 42);
    J.member("ratio", 0.25);
    J.member("flag", true);
    J.key("null");
    J.null();
    J.key("list");
    J.beginArray();
    J.value(1);
    J.value("two");
    J.endArray();
    J.endObject();

    JsonValue V = parseOk(OS.str());
    EXPECT_EQ(V.find("text")->asString(), "line\nbreak \"quoted\" ◦");
    EXPECT_DOUBLE_EQ(V.find("count")->asNumber(), 42);
    EXPECT_DOUBLE_EQ(V.find("ratio")->asNumber(), 0.25);
    EXPECT_TRUE(V.find("flag")->asBool());
    EXPECT_TRUE(V.find("null")->isNull());
    ASSERT_EQ(V.find("list")->elements().size(), 2u);
  }
}

TEST(JsonWriterCompact, SingleLineNoTrailingNewline) {
  std::ostringstream OS;
  JsonWriter J(OS, JsonStyle::Compact);
  J.beginObject();
  J.member("a", 1);
  J.key("b");
  J.beginArray();
  J.value("x");
  J.endArray();
  J.key("c");
  J.beginObject();
  J.endObject();
  J.endObject();
  EXPECT_EQ(OS.str(), R"({"a":1,"b":["x"],"c":{}})");
}

// The string sink, the chunked stream sink and the object-frame bulk path
// all write the bytes beginObject/member/endObject would, in both styles
// and at any depth; the document is large enough to span several chunks.
TEST(JsonWriterSinks, StreamChunksStringSinkAndFramesAgree) {
  const std::vector<std::pair<std::string, std::string>> Pairs = {
      {"a", "b"}, {"q\"uote", "back\\slash"}, {"tab\t", "n\xe2\x97\xa6"}};
  auto Document = [&](JsonWriter &J, bool Framed) {
    J.beginObject();
    J.key("outer");
    J.beginArray();
    J.beginObject();
    J.key("edges");
    J.beginArray();
    std::vector<std::string> F;
    if (Framed)
      F = J.stringObjectFrame({"from", "to"});
    for (unsigned I = 0; I < 10000; ++I) {
      const auto &[From, To] = Pairs[I % Pairs.size()];
      if (Framed) {
        J.rawElement({F[0], jsonEscape(From), F[1], jsonEscape(To), F[2]});
      } else {
        J.beginObject();
        J.member("from", From);
        J.member("to", To);
        J.endObject();
      }
    }
    J.endArray();
    J.endObject();
    J.endArray();
    J.endObject();
  };
  for (JsonStyle Style : {JsonStyle::Pretty, JsonStyle::Compact}) {
    std::ostringstream Plain, Framed;
    std::string InPlace;
    {
      JsonWriter J(Plain, Style);
      Document(J, false);
    }
    {
      JsonWriter J(Framed, Style);
      Document(J, true);
    }
    {
      JsonWriter J(InPlace, Style);
      Document(J, true);
    }
    EXPECT_GT(Plain.str().size(), 4 * JsonWriter::ChunkBytes);
    EXPECT_EQ(Framed.str(), Plain.str());
    EXPECT_EQ(InPlace, Plain.str());
    JsonValue V = parseOk(Plain.str());
    EXPECT_EQ(V.find("outer")->elements()[0].find("edges")->elements().size(),
              10000u);
  }
}

} // namespace
