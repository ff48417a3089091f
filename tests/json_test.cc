#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/json.h"

namespace litegpu {
namespace {

TEST(Json, ScalarConstructionAndAccess) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_EQ(Json(true).AsBool(false), true);
  EXPECT_DOUBLE_EQ(Json(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Json(42).AsDouble(), 42.0);
  EXPECT_EQ(Json("hi").AsString(), "hi");
  // Type mismatches fall back.
  EXPECT_EQ(Json("hi").AsDouble(-1.0), -1.0);
  EXPECT_EQ(Json(1.0).AsString("dflt"), "dflt");
}

TEST(Json, ObjectKeysKeepInsertionOrderAndSetReplaces) {
  Json j = Json::Object();
  j.Set("z", 1).Set("a", 2).Set("z", 3);
  ASSERT_EQ(j.size(), 2u);
  EXPECT_EQ(j.members()[0].first, "z");
  EXPECT_EQ(j.members()[1].first, "a");
  EXPECT_EQ(j.Find("z")->AsDouble(), 3.0);
  EXPECT_EQ(j.Dump(0), "{\"z\":3,\"a\":2}");
}

TEST(Json, FindAndTolerantAccessors) {
  Json j = Json::Object();
  j.Set("n", 1.5).Set("s", "x").Set("b", true);
  EXPECT_DOUBLE_EQ(j.Find("n")->AsDouble(), 1.5);
  EXPECT_EQ(j.Find("absent"), nullptr);
  EXPECT_EQ(Json(1.5).Find("n"), nullptr);  // not an object
  EXPECT_DOUBLE_EQ(j.Find("s")->AsDouble(7.0), 7.0);  // type mismatch -> fallback
  EXPECT_EQ(j.Find("b")->AsString("dflt"), "dflt");
  EXPECT_TRUE(j.Find("b")->AsBool());
}

TEST(Json, DumpParseRoundTripExact) {
  Json j = Json::Object();
  Json arr = Json::Array();
  arr.Append(1).Append(0.05).Append("text").Append(false).Append(Json());
  j.Set("values", std::move(arr))
      .Set("nested", Json::Object().Set("pi", 3.141592653589793))
      .Set("neg", -1234567.25)
      .Set("escaped", "line\nbreak \"quoted\" back\\slash");
  for (int indent : {0, 2, 4}) {
    auto parsed = Json::Parse(j.Dump(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent " << indent;
    EXPECT_TRUE(*parsed == j) << "indent " << indent;
  }
}

TEST(Json, NumbersPrintShortestRoundTrip) {
  EXPECT_EQ(Json(0.05).Dump(0), "0.05");
  EXPECT_EQ(Json(1500).Dump(0), "1500");
  EXPECT_EQ(Json(2e15).Dump(0), "2000000000000000");
  EXPECT_EQ(Json(-0.5).Dump(0), "-0.5");
  // A value with no short decimal form still round-trips exactly.
  double ugly = 0.1 + 0.2;
  auto parsed = Json::Parse(Json(ugly).Dump(0));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsDouble(), ugly);
}

TEST(Json, DigitsOnlyNumbersKeepTheirExactUint64) {
  auto parsed = Json::Parse("[9007199254740993, 18446744073709551615, 1e3, -5, "
                            "18446744073709551616]");
  ASSERT_TRUE(parsed.has_value());
  const std::vector<Json>& v = parsed->elements();
  EXPECT_TRUE(v[0].is_uint64());
  EXPECT_EQ(v[0].AsUint64(), 9007199254740993u);
  EXPECT_EQ(v[1].AsUint64(), 18446744073709551615u);
  EXPECT_FALSE(v[2].is_uint64());  // not digits only: read as a double
  EXPECT_FALSE(v[3].is_uint64());
  EXPECT_FALSE(v[4].is_uint64());  // past uint64: read as a double
  EXPECT_EQ(v[4].AsDouble(), 0x1p64);
  // Dump and == still go by the double.
  EXPECT_EQ(v[0].Dump(0), Json(9007199254740992.0).Dump(0));
  EXPECT_EQ(Json::ParseNumber("12x"), std::nullopt);
  EXPECT_EQ(Json::ParseNumber(""), std::nullopt);
  EXPECT_EQ(Json::ParseNumber("0x10")->AsDouble(), 16.0);
}

TEST(Json, ParserToleratesCommentsAndTrailingCommas) {
  const char* text = R"({
    // a line comment
    "a": 1,  /* a block comment */
    "b": [1, 2, 3,],
  })";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->Find("a"), nullptr);
  EXPECT_EQ(parsed->Find("a")->AsDouble(), 1.0);
  ASSERT_NE(parsed->Find("b"), nullptr);
  EXPECT_EQ(parsed->Find("b")->size(), 3u);
}

TEST(Json, ParserRejectsMalformedInputWithLineNumbers) {
  std::string error;
  EXPECT_FALSE(Json::Parse("{\"a\": }", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(Json::Parse("{\n\"a\": 1\n\"b\": 2}", &error).has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos);
  EXPECT_FALSE(Json::Parse("", &error).has_value());
  EXPECT_FALSE(Json::Parse("[1, 2] trailing", &error).has_value());
  EXPECT_FALSE(Json::Parse("{\"unterminated\": \"str", &error).has_value());
  EXPECT_FALSE(Json::Parse("12abc", &error).has_value());
}

TEST(Json, ParserCapsNestingDepth) {
  // 256 levels of objects and arrays parse; anything deeper is a
  // line-labelled error instead of a stack overflow.
  std::string ok;
  for (int i = 0; i < 128; ++i) {
    ok += "[{\"k\":";
  }
  ok += "1";
  for (int i = 0; i < 128; ++i) {
    ok += "}]";
  }
  std::string error;
  EXPECT_TRUE(Json::Parse(ok, &error).has_value()) << error;
  EXPECT_TRUE(Json::Parse(std::string(256, '[') + std::string(256, ']')).has_value());
  EXPECT_FALSE(
      Json::Parse(std::string(257, '[') + std::string(257, ']'), &error).has_value());
  EXPECT_NE(error.find("line 1: nesting deeper than 256"), std::string::npos) << error;
  EXPECT_FALSE(Json::Parse(std::string(200000, '['), &error).has_value());
  EXPECT_NE(error.find("line 1: nesting deeper than 256"), std::string::npos) << error;
}

TEST(Json, StringEscapes) {
  auto parsed = Json::Parse(R"("tab\there A\n")");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsString(), "tab\there A\n");
}

TEST(Json, EqualityIsStructural) {
  Json a = Json::Object();
  a.Set("x", 1);
  Json b = Json::Object();
  b.Set("x", 1);
  EXPECT_TRUE(a == b);
  b.Set("x", 2);
  EXPECT_TRUE(a != b);
  // Key order matters (serialization identity).
  Json c = Json::Object();
  c.Set("x", 1).Set("y", 2);
  Json d = Json::Object();
  d.Set("y", 2).Set("x", 1);
  EXPECT_TRUE(c != d);
}

TEST(Json, ParseFileReportsMissingFile) {
  std::string error;
  EXPECT_FALSE(Json::ParseFile("/nonexistent/path.json", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace litegpu
