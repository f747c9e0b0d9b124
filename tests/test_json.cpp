// Unit tests for the JSON value/parser/serializer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "json/json.h"

namespace emlio::json {
namespace {

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(parse("3.5").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNestedStructure) {
  auto v = parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_TRUE(v.at("a").as_array()[2].at("b").as_bool());
  EXPECT_EQ(v.at("c").as_string(), "x");
}

TEST(Json, StringEscapes) {
  auto v = parse(R"("line\nquote\"back\\slash\ttab")");
  EXPECT_EQ(v.as_string(), "line\nquote\"back\\slash\ttab");
}

TEST(Json, UnicodeEscapes) {
  auto v = parse(R"("Aé")");
  EXPECT_EQ(v.as_string(), "A\xC3\xA9");  // 'A' + e-acute in UTF-8
}

TEST(Json, RoundTripThroughDump) {
  auto original = parse(R"({"n": -3, "d": 0.25, "s": "a\"b", "arr": [true, null], "o": {}})");
  auto reparsed = parse(original.dump());
  EXPECT_EQ(reparsed.at("n").as_int(), -3);
  EXPECT_DOUBLE_EQ(reparsed.at("d").as_double(), 0.25);
  EXPECT_EQ(reparsed.at("s").as_string(), "a\"b");
  EXPECT_EQ(reparsed.at("arr").as_array().size(), 2u);
  EXPECT_TRUE(reparsed.at("o").is_object());
}

TEST(Json, PrettyPrintIsReparseable) {
  auto v = parse(R"({"a": [1, 2], "b": {"c": 3}})");
  auto pretty = v.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(parse(pretty).at("b").at("c").as_int(), 3);
}

TEST(Json, ErrorsOnMalformedInput) {
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("{"), std::runtime_error);
  EXPECT_THROW(parse("[1,]"), std::runtime_error);
  EXPECT_THROW(parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(parse("tru"), std::runtime_error);
  EXPECT_THROW(parse("1 2"), std::runtime_error);
  EXPECT_THROW(parse("\"unterminated"), std::runtime_error);
  // A number token must convert in full, not just a prefix of it.
  EXPECT_THROW(parse("[1-2]"), std::runtime_error);
  EXPECT_THROW(parse("[1+]"), std::runtime_error);
  EXPECT_THROW(parse("[1ee]"), std::runtime_error);
  EXPECT_THROW(parse("[1.2.3]"), std::runtime_error);
  EXPECT_THROW(parse("[1e5e5]"), std::runtime_error);
}

TEST(Json, TypeMismatchThrows) {
  auto v = parse("[1]");
  EXPECT_THROW(v.as_object(), std::runtime_error);
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.at("x"), std::runtime_error);
}

TEST(Json, GettersWithFallback) {
  auto v = parse(R"({"i": 5, "d": 2.5, "s": "t"})");
  EXPECT_EQ(v.get_int("i", -1), 5);
  EXPECT_EQ(v.get_int("missing", -1), -1);
  EXPECT_DOUBLE_EQ(v.get_double("d", 0), 2.5);
  EXPECT_EQ(v.get_string("s", ""), "t");
  EXPECT_EQ(v.get_string("missing", "def"), "def");
  EXPECT_TRUE(v.contains("i"));
  EXPECT_FALSE(v.contains("zzz"));
}

TEST(Json, IntAndDoubleInterchange) {
  EXPECT_EQ(parse("2.0").as_int(), 2);
  EXPECT_DOUBLE_EQ(parse("2").as_double(), 2.0);
}

TEST(Json, FileRoundTrip) {
  auto dir = std::filesystem::temp_directory_path() / "emlio_json_test";
  std::filesystem::create_directories(dir);
  auto path = (dir / "doc.json").string();
  Object o;
  o["key"] = Value("value");
  o["n"] = Value(static_cast<std::int64_t>(7));
  write_file(path, Value(std::move(o)));
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  auto v = parse(text);
  EXPECT_EQ(v.at("key").as_string(), "value");
  EXPECT_EQ(v.at("n").as_int(), 7);
  std::filesystem::remove_all(dir);
}

TEST(Json, DeterministicKeyOrder) {
  auto v = parse(R"({"zebra": 1, "apple": 2})");
  auto dumped = v.dump();
  EXPECT_LT(dumped.find("apple"), dumped.find("zebra"));
}

// Fuzz regression: parse_value recurses once per nesting level, so an
// unterminated "[[[[..." document used to probe the stack until it
// overflowed. The parser now caps nesting at 256 levels.
TEST(Json, DeepNestingRejectedNotStackOverflow) {
  EXPECT_THROW(parse(std::string(100000, '[')), std::runtime_error);
  EXPECT_THROW(parse(std::string(100000, '[') + std::string(100000, ']')),
               std::runtime_error);
  // Mixed array/object nesting hits the same cap.
  std::string alternating;
  for (int i = 0; i < 300; ++i) alternating += "[{\"k\":";
  EXPECT_THROW(parse(alternating), std::runtime_error);
  // 100 levels — far beyond any real shard index — still parses.
  EXPECT_NO_THROW(parse(std::string(100, '[') + std::string(100, ']')));
}

}  // namespace
}  // namespace emlio::json
