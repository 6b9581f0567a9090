// JsonWriter: separators in both styles, explicit line breaks, escaping and
// number formatting, pinned as exact text.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "src/obs/json.h"

namespace fbufs {
namespace {

TEST(JsonWriter, SpacedStyleNestsObjectsAndArrays) {
  JsonWriter w;
  w.BeginObject().Key("a").Number(1).Key("list").BeginArray();
  w.Number(2).BeginObject().Key("x").String("y").EndObject();
  w.BeginArray().EndArray().EndArray();
  w.Key("empty").BeginObject().EndObject().Key("ok").Bool(true);
  w.EndObject();
  EXPECT_EQ(w.Take(),
            R"({"a": 1, "list": [2, {"x": "y"}, []], "empty": {}, "ok": true})");
}

TEST(JsonWriter, CompactStyleDropsTheSpaces) {
  JsonWriter w(JsonWriter::Style::kCompact);
  w.BeginObject().Key("a").BeginArray().Number(1).Number(2).EndArray();
  w.Key("b").BeginObject().Key("c").Bool(false).EndObject().EndObject();
  EXPECT_EQ(w.Take(), R"({"a":[1,2],"b":{"c":false}})");
}

TEST(JsonWriter, BreakPutsTheNextTokenOnANewLineAfterTheComma) {
  JsonWriter w;
  w.BeginObject().Break(2).Key("rows").BeginArray();
  w.Break(4).BeginObject().Key("n").Number(1).EndObject();
  w.Break(4).BeginObject().Key("n").Number(2).EndObject();
  w.Break(2).EndArray();
  w.Break(2).Key("empty").BeginArray().Break(2).EndArray();
  w.Break(0).EndObject();
  EXPECT_EQ(w.Take(),
            "{\n"
            "  \"rows\": [\n"
            "    {\"n\": 1},\n"
            "    {\"n\": 2}\n"
            "  ],\n"
            "  \"empty\": [\n"
            "  ]\n"
            "}");
}

TEST(JsonWriter, LeadingCommaBreakStartsTheLineWithTheComma) {
  JsonWriter w;
  w.BeginObject().Break(2).Key("a").Number(1);
  w.LeadingCommaBreak(2).Key("t").BeginObject().Key("x").Number(1);
  w.Key("y").Number(2).EndObject();
  w.Break(0).EndObject();
  // Only the break's own comma moves; the ones after it keep their style.
  EXPECT_EQ(w.Take(), "{\n  \"a\": 1\n  ,\"t\": {\"x\": 1, \"y\": 2}\n}");
}

TEST(JsonWriter, RawInsertsAnotherWritersValue) {
  JsonWriter inner(JsonWriter::Style::kCompact);
  const std::string obj = inner.BeginObject().Key("k").Number(7).EndObject().Take();
  JsonWriter w;
  w.BeginArray().Raw(obj).Raw(obj).EndArray();
  EXPECT_EQ(w.Take(), R"([{"k":7}, {"k":7}])");
}

TEST(JsonWriter, IntegersAreExact) {
  JsonWriter w;
  w.BeginArray().Number(std::numeric_limits<std::uint64_t>::max());
  w.Number(std::numeric_limits<std::int64_t>::min()).Number(-1);
  w.Number(std::uint32_t{4000000000u}).Number(0).EndArray();
  EXPECT_EQ(w.Take(),
            "[18446744073709551615, -9223372036854775808, -1, 4000000000, 0]");
}

TEST(JsonWriter, DoublesUseTenSignificantDigitsAndNanIsNull) {
  JsonWriter w;
  w.BeginArray().Number(1.0).Number(0.1).Number(2.0 / 3.0).Number(1e21);
  w.Number(123456789012.0).Number(-0.5).Number(std::nan("")).EndArray();
  EXPECT_EQ(w.Take(),
            "[1, 0.1, 0.6666666667, 1e+21, 1.23456789e+11, -0.5, null]");
}

TEST(JsonWriter, ThousandthsWriteThreeDecimals) {
  JsonWriter w(JsonWriter::Style::kCompact);
  w.BeginArray().Thousandths(0).Thousandths(5).Thousandths(12005);
  w.Thousandths(1000).EndArray();
  EXPECT_EQ(w.Take(), "[0.000,0.005,12.005,1.000]");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter w;
  w.BeginObject().Key("k\"ey").String("a\"b\\c\nd\te\x01" "f\x1f").EndObject();
  EXPECT_EQ(w.Take(),
            R"({"k\"ey": "a\"b\\c\nd\te\u0001f\u001f"})");
}

TEST(JsonWriter, NonAsciiBytesPassThrough) {
  JsonWriter w;
  w.String("\xc2\xb5s");  // UTF-8 "µs"
  EXPECT_EQ(w.Take(), "\"\xc2\xb5s\"");
}

TEST(JsonWriter, WriteTextFileReplacesTheFile) {
  const std::string path = "json_test_write_text_file.json";
  ASSERT_TRUE(WriteTextFile(path, "first, longer text\n"));
  ASSERT_TRUE(WriteTextFile(path, "{}\n"));
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), "{}\n");
  std::remove(path.c_str());
  EXPECT_FALSE(WriteTextFile("no-such-dir/x.json", "{}"));
}

}  // namespace
}  // namespace fbufs
