/**
 * @file
 * JSON writer tests (nesting, comma placement, escaping, number
 * round-tripping, misuse panics) and parser tests (round-trips
 * through the writer, escapes, \uXXXX decoding, error reporting
 * with line/column positions).
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"

namespace qsurf {
namespace {

TEST(Json, FlatObject)
{
    std::ostringstream os;
    {
        JsonWriter j(os);
        j.beginObject();
        j.field("name", "fig6");
        j.field("points", 28);
        j.field("ok", true);
        j.endObject();
    }
    EXPECT_EQ(os.str(), "{\n  \"name\": \"fig6\",\n"
                        "  \"points\": 28,\n  \"ok\": true\n}");
}

TEST(Json, NestedArraysAndObjects)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    j.key("rows");
    j.beginArray();
    j.beginObject();
    j.field("x", 1);
    j.endObject();
    j.beginObject();
    j.field("x", 2);
    j.endObject();
    j.endArray();
    j.endObject();
    EXPECT_EQ(os.str(), "{\n  \"rows\": [\n    {\n      \"x\": 1\n"
                        "    },\n    {\n      \"x\": 2\n    }\n"
                        "  ]\n}");
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(JsonWriter::quote("a\"b\\c\nd\te"),
              "\"a\\\"b\\\\c\\nd\\te\"");
    EXPECT_EQ(JsonWriter::quote(std::string(1, '\x01')),
              "\"\\u0001\"");
}

TEST(Json, NumbersRoundTrip)
{
    for (double v : {0.0, 1.0, -2.5, 0.1, 1e24, 1e-24,
                     0.30000000000000004, 3.141592653589793}) {
        std::string s = JsonWriter::number(v);
        double parsed = std::stod(s);
        EXPECT_EQ(parsed, v) << s;
    }
}

TEST(Json, NonFiniteNumbersBecomeNull)
{
    EXPECT_EQ(JsonWriter::number(
                  std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(JsonWriter::number(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
}

TEST(Json, MismatchedNestingPanics)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    EXPECT_THROW(j.endArray(), PanicError);
    j.endObject();
}

TEST(Json, KeyOutsideObjectPanics)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginArray();
    EXPECT_THROW(j.key("x"), PanicError);
    j.endArray();
}

TEST(JsonParser, Values)
{
    JsonValue v = parseJson(
        " {\"s\": \"hi\", \"n\": -2.5, \"t\": true, \"f\": false,"
        " \"z\": null, \"a\": [1, 2, 3], \"o\": {\"k\": 1e2}} ");
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.members.size(), 7u);
    EXPECT_EQ(v.find("s")->str, "hi");
    EXPECT_DOUBLE_EQ(v.find("n")->num, -2.5);
    EXPECT_TRUE(v.find("t")->boolean);
    EXPECT_TRUE(v.find("t")->isBool());
    EXPECT_FALSE(v.find("f")->boolean);
    EXPECT_TRUE(v.find("z")->isNull());
    ASSERT_TRUE(v.find("a")->isArray());
    ASSERT_EQ(v.find("a")->items.size(), 3u);
    EXPECT_DOUBLE_EQ(v.find("a")->items[2].num, 3.0);
    EXPECT_DOUBLE_EQ(v.find("o")->find("k")->num, 100.0);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParser, EmptyContainers)
{
    EXPECT_TRUE(parseJson("{}").isObject());
    EXPECT_TRUE(parseJson("{}").members.empty());
    EXPECT_TRUE(parseJson("[]").isArray());
    EXPECT_TRUE(parseJson("[]").items.empty());
}

TEST(JsonParser, DuplicateKeysLastWins)
{
    JsonValue v = parseJson("{\"k\": 1, \"k\": 2}");
    EXPECT_DOUBLE_EQ(v.find("k")->num, 2.0);
}

TEST(JsonParser, Escapes)
{
    JsonValue v =
        parseJson("\"a\\\"b\\\\c\\nd\\te\\u0041\\u00e9\\u20ac\"");
    // é and € UTF-8 encode to 2 and 3 bytes.
    EXPECT_EQ(v.str,
              "a\"b\\c\nd\teA\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonParser, WriterOutputRoundTrips)
{
    std::ostringstream os;
    {
        JsonWriter j(os);
        j.beginObject();
        j.field("name", "tricky \"quotes\"\n");
        j.field("x", 0.30000000000000004);
        j.key("rows");
        j.beginArray();
        j.value(int64_t{-7});
        j.value(true);
        j.null();
        j.endArray();
        j.endObject();
    }
    JsonValue v = parseJson(os.str());
    EXPECT_EQ(v.find("name")->str, "tricky \"quotes\"\n");
    EXPECT_DOUBLE_EQ(v.find("x")->num, 0.30000000000000004);
    const JsonValue *rows = v.find("rows");
    ASSERT_TRUE(rows && rows->isArray());
    ASSERT_EQ(rows->items.size(), 3u);
    EXPECT_DOUBLE_EQ(rows->items[0].num, -7.0);
    EXPECT_TRUE(rows->items[1].boolean);
    EXPECT_TRUE(rows->items[2].isNull());
}

TEST(JsonParser, IntegersReadExactlyOrNotAtAll)
{
    auto u64 = [](const char *text, uint64_t &out) {
        return parseJson(text).integer(out);
    };
    auto i64 = [](const char *text, int64_t &out) {
        return parseJson(text).integer(out);
    };
    uint64_t u = 0;
    int64_t i = 0;
    // Above 2^53 a double cannot hold every integer; the literal
    // text can.
    ASSERT_TRUE(u64("9007199254740993", u));
    EXPECT_EQ(u, (1ull << 53) + 1);
    ASSERT_TRUE(u64("18446744073709551615", u));
    EXPECT_EQ(u, ~0ull);
    ASSERT_TRUE(i64("-9223372036854775808", i));
    EXPECT_EQ(i, std::numeric_limits<int64_t>::min());
    ASSERT_TRUE(u64("1e3", u));
    EXPECT_EQ(u, 1000u);
    ASSERT_TRUE(i64("-4.0", i));
    EXPECT_EQ(i, -4);

    for (const char *bad :
         {"-1", "18446744073709551616", "1.5", "1e300", "-0.5",
          "9007199254740993.0", "\"7\"", "true", "null"})
        EXPECT_FALSE(u64(bad, u)) << bad;
    for (const char *bad :
         {"9223372036854775808", "-9223372036854775809", "2.5",
          "1e19", "[1]"})
        EXPECT_FALSE(i64(bad, i)) << bad;
}

TEST(JsonParser, NumbersReadOnlyWhenFinite)
{
    double d = 0;
    ASSERT_TRUE(parseJson("0.25").number(d));
    EXPECT_DOUBLE_EQ(d, 0.25);
    ASSERT_TRUE(parseJson("-3e2").number(d));
    EXPECT_DOUBLE_EQ(d, -300.0);
    for (const char *bad : {"1e400", "\"0.5\"", "true", "null", "[1]"})
        EXPECT_FALSE(parseJson(bad).number(d)) << bad;
}

TEST(JsonParser, ErrorsThrowWithPosition)
{
    for (const char *bad :
         {"", "{", "[1, 2", "{\"a\" 1}", "{\"a\": }", "tru",
          "\"unterminated", "\"bad \\q escape\"", "1.2.3",
          "[1] trailing", "{\"a\": 1,}"}) {
        EXPECT_THROW(parseJson(bad), FatalError) << bad;
    }
    try {
        parseJson("{\n  \"a\": flse\n}");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace qsurf
