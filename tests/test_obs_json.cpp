// Edge cases of the obs:: JSON parser: escapes, unicode, the "+Inf" bucket
// bound convention, deep nesting, and the error paths.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace nfvm::obs {
namespace {

TEST(JsonParser, StringEscapes) {
  const JsonValue v = parse_json(R"("a\"b\\c\/d\b\f\n\r\te")");
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.string, "a\"b\\c/d\b\f\n\r\te");
}

TEST(JsonParser, UnicodeEscapesDecodeToUtf8) {
  // 2-byte (é), 3-byte (€), and a surrogate pair (😀 = U+1F600).
  const JsonValue v = parse_json(R"("é € 😀")");
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.string, "\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80");
}

TEST(JsonParser, UnpairedSurrogatesAreRejected) {
  EXPECT_THROW(parse_json(R"("\ud83d")"), std::runtime_error);
  EXPECT_THROW(parse_json(R"("\ud83dA")"), std::runtime_error);
  EXPECT_THROW(parse_json(R"("\ude00")"), std::runtime_error);
}

TEST(JsonParser, RawControlCharactersAreRejected) {
  EXPECT_THROW(parse_json("\"a\nb\""), std::runtime_error);
  EXPECT_THROW(parse_json("\"a\tb\""), std::runtime_error);
}

TEST(JsonParser, PlusInfBucketBoundsStaySymbolicStrings) {
  // Registry::write_json encodes the overflow bucket's bound as the string
  // "+Inf" (JSON has no infinity literal); the parser must keep it a string
  // and never coerce it into a number.
  const JsonValue doc = parse_json(
      R"({"histograms":{"h":{"count":3,"sum":9,)"
      R"("buckets":[{"le":2,"count":1},{"le":"+Inf","count":2}]}}})");
  const JsonValue& buckets = doc.at("histograms").at("h").at("buckets");
  ASSERT_TRUE(buckets.is_array());
  ASSERT_EQ(buckets.array.size(), 2u);
  EXPECT_TRUE(buckets.array[0].at("le").is_number());
  EXPECT_EQ(buckets.array[0].at("le").number, 2.0);
  ASSERT_TRUE(buckets.array[1].at("le").is_string());
  EXPECT_EQ(buckets.array[1].at("le").string, "+Inf");
  // "+Inf" in a bare value position is not JSON at all.
  EXPECT_THROW(parse_json("+Inf"), std::runtime_error);
  EXPECT_THROW(parse_json("Infinity"), std::runtime_error);
}

TEST(JsonParser, NestedEmptyObjectsAndArrays) {
  const JsonValue v = parse_json(R"({"a":{"b":{}},"c":[[],{}],"d":{}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_TRUE(v.at("a").at("b").is_object());
  EXPECT_TRUE(v.at("a").at("b").object.empty());
  ASSERT_EQ(v.at("c").array.size(), 2u);
  EXPECT_TRUE(v.at("c").array[0].is_array());
  EXPECT_TRUE(v.at("c").array[0].array.empty());
  EXPECT_TRUE(v.at("c").array[1].is_object());
  EXPECT_TRUE(v.at("d").object.empty());
}

TEST(JsonParser, ScalarsAndLiterals) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").boolean);
  EXPECT_FALSE(parse_json("false").boolean);
  EXPECT_EQ(parse_json("-12.5e2").number, -1250.0);
  EXPECT_EQ(parse_json("0").number, 0.0);
}

TEST(JsonParser, WhitespaceEverywhere) {
  const JsonValue v = parse_json(" \t\r\n{ \"k\" : [ 1 , 2 ] } \n");
  EXPECT_EQ(v.at("k").array.size(), 2u);
}

TEST(JsonParser, DuplicateKeysAreRejected) {
  EXPECT_THROW(parse_json(R"({"k":1,"k":2})"), std::runtime_error);
}

TEST(JsonParser, MalformedDocumentsAreRejected) {
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"k\":}"), std::runtime_error);
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse_json("1 2"), std::runtime_error);   // trailing bytes
  EXPECT_THROW(parse_json("1.2.3"), std::runtime_error); // malformed number
  EXPECT_THROW(parse_json("nul"), std::runtime_error);
  EXPECT_THROW(parse_json(R"("\x41")"), std::runtime_error);  // unknown escape
}

TEST(JsonParser, ErrorsCarryByteOffsets) {
  try {
    parse_json("{\"k\": nope}");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(JsonParser, NestingIsCappedAtMaxDepth) {
  const std::string doc =
      std::string(kMaxJsonDepth, '[') + std::string(kMaxJsonDepth, ']');
  const JsonValue v = parse_json(doc);
  EXPECT_TRUE(v.is_array());
  EXPECT_THROW(parse_json("[" + doc + "]"), std::runtime_error);
}

// Both inputs overflowed the stack before the parser capped its nesting.
TEST(JsonParser, DeepNestingIsAnErrorNotACrash) {
  try {
    parse_json(std::string(100000, '['));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("JSON error at byte " +
                                         std::to_string(kMaxJsonDepth) + ":"),
              std::string::npos)
        << e.what();
  }
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(parse_json(objects), std::runtime_error);
}

TEST(JsonValue, AtThrowsOnMissingKey) {
  const JsonValue v = parse_json(R"({"present":1})");
  EXPECT_TRUE(v.has("present"));
  EXPECT_FALSE(v.has("absent"));
  EXPECT_THROW(v.at("absent"), std::runtime_error);
}

TEST(JsonRoundTrip, WriterOutputParsesBack) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("text").value("line1\nline2\t\"quoted\"");
  w.key("nested").begin_object().key("empty").begin_object().end_object().end_object();
  w.key("values").begin_array().value(1.5).value(std::uint64_t{7}).value(true).end_array();
  w.end_object();
  const JsonValue v = parse_json(os.str());
  EXPECT_EQ(v.at("text").string, "line1\nline2\t\"quoted\"");
  EXPECT_TRUE(v.at("nested").at("empty").object.empty());
  ASSERT_EQ(v.at("values").array.size(), 3u);
  EXPECT_EQ(v.at("values").array[0].number, 1.5);
  EXPECT_TRUE(v.at("values").array[2].boolean);
}

// ---------------------------------------------------------------------------
// JsonlCursor: the truncated-file-safe record iterator
// ---------------------------------------------------------------------------

TEST(JsonlCursor, TracksOffsetsAndLineNumbers) {
  JsonlCursor cursor("{\"a\":1}\n\n{\"b\":2}\n");
  JsonlCursor::Record record;
  ASSERT_TRUE(cursor.next(record));
  EXPECT_EQ(record.line, "{\"a\":1}");
  EXPECT_EQ(record.offset, 0u);
  EXPECT_EQ(record.number, 1u);
  EXPECT_FALSE(record.unterminated);
  // The blank line is skipped but still counted.
  ASSERT_TRUE(cursor.next(record));
  EXPECT_EQ(record.line, "{\"b\":2}");
  EXPECT_EQ(record.offset, 9u);
  EXPECT_EQ(record.number, 3u);
  EXPECT_FALSE(cursor.next(record));
}

TEST(JsonlCursor, FlagsUnterminatedTail) {
  JsonlCursor cursor("{\"a\":1}\n{\"b\":");
  JsonlCursor::Record record;
  ASSERT_TRUE(cursor.next(record));
  EXPECT_FALSE(record.unterminated);
  ASSERT_TRUE(cursor.next(record));
  EXPECT_TRUE(record.unterminated);
  EXPECT_EQ(record.line, "{\"b\":");
  // The cut record fails to parse, named as a truncation with its absolute
  // byte position.
  try {
    parse_jsonl_record(record);
    FAIL() << "truncated record parsed";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("byte"), std::string::npos) << what;
  }
}

TEST(JsonlCursor, ParseableUnterminatedTailStillParses) {
  // Kill landed between the payload and the '\n': flagged, but usable.
  JsonlCursor cursor("{\"a\":1}");
  JsonlCursor::Record record;
  ASSERT_TRUE(cursor.next(record));
  EXPECT_TRUE(record.unterminated);
  EXPECT_EQ(parse_jsonl_record(record).at("a").number, 1.0);
}

TEST(JsonlCursor, EmptyBufferYieldsNothing) {
  JsonlCursor empty("");
  JsonlCursor blank("\n\n\n");
  JsonlCursor::Record record;
  EXPECT_FALSE(empty.next(record));
  EXPECT_FALSE(blank.next(record));
}

}  // namespace
}  // namespace nfvm::obs
