// Unit tests for the JSON support layer: the streaming writer's protocol
// (nesting, commas, escaping), the reader, and a round trip of a run-report
// shaped document carrying the §5 headline counters.
#include "support/json.h"

#include <gtest/gtest.h>

#include <limits>

#include "support/error.h"

namespace wrl {
namespace {

TEST(JsonWriter, CompactObject) {
  JsonWriter w(0);
  w.BeginObject();
  w.KV("a", 1);
  w.KV("b", true);
  w.Key("c").BeginArray().Value(1).Value(2).EndArray();
  w.EndObject();
  EXPECT_EQ(w.TakeString(), R"({"a":1,"b":true,"c":[1,2]})");
}

TEST(JsonWriter, PrettyPrintIndents) {
  JsonWriter w(2);
  w.BeginObject();
  w.KV("a", 1);
  w.EndObject();
  EXPECT_EQ(w.TakeString(), "{\n  \"a\": 1\n}\n");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w(2);
  w.BeginObject();
  w.Key("obj").BeginObject().EndObject();
  w.Key("arr").BeginArray().EndArray();
  w.EndObject();
  EXPECT_EQ(w.TakeString(), "{\n  \"obj\": {},\n  \"arr\": []\n}\n");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w(0);
  w.BeginObject();
  w.KV("s", "a\"b\\c\nd\te");
  w.KV("ctl", std::string_view("\x01", 1));
  w.EndObject();
  EXPECT_EQ(w.TakeString(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\",\"ctl\":\"\\u0001\"}");
}

TEST(JsonWriter, NumberKinds) {
  JsonWriter w(0);
  w.BeginArray();
  w.Value(static_cast<uint64_t>(18446744073709551615ull));
  w.Value(static_cast<int64_t>(-42));
  w.Value(0.5);
  w.Null();
  w.EndArray();
  EXPECT_EQ(w.TakeString(), "[18446744073709551615,-42,0.5,null]");
}

TEST(JsonWriter, NonFiniteDoublesBecomeStrings) {
  JsonWriter w(0);
  w.BeginArray();
  w.Value(std::numeric_limits<double>::infinity());
  w.Value(-std::numeric_limits<double>::infinity());
  w.Value(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  EXPECT_EQ(w.TakeString(), R"(["inf","-inf","nan"])");
}

TEST(JsonWriter, MisuseThrows) {
  JsonWriter w;
  w.BeginObject();
  EXPECT_THROW(w.Value(1), InternalError);  // Value without a Key.
  EXPECT_THROW(w.EndArray(), InternalError);
  EXPECT_FALSE(w.Done());
}

TEST(JsonParse, Scalars) {
  EXPECT_EQ(ParseJson("null").kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(ParseJson("true").boolean);
  EXPECT_FALSE(ParseJson("false").boolean);
  EXPECT_DOUBLE_EQ(ParseJson("-12.5e2").number, -1250.0);
  EXPECT_EQ(ParseJson(R"("hi\n\t\"\\")").string, "hi\n\t\"\\");
  EXPECT_EQ(ParseJson(R"("\u0041")").string, "A");
}

TEST(JsonParse, ObjectPreservesSourceOrder) {
  JsonValue v = ParseJson(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(v.IsObject());
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "z");
  EXPECT_EQ(v.object[1].first, "a");
  EXPECT_EQ(v.object[2].first, "m");
  EXPECT_DOUBLE_EQ(v.At("a").number, 2.0);
  EXPECT_TRUE(v.Has("m"));
  EXPECT_EQ(v.Find("absent"), nullptr);
  EXPECT_THROW(v.At("absent"), Error);
}

TEST(JsonParse, NestedStructure) {
  JsonValue v = ParseJson(R"({"arr": [1, {"k": "v"}, [true]]})");
  const JsonValue& arr = v.At("arr");
  ASSERT_TRUE(arr.IsArray());
  ASSERT_EQ(arr.array.size(), 3u);
  EXPECT_EQ(arr.array[1].At("k").string, "v");
  EXPECT_TRUE(arr.array[2].array[0].boolean);
}

TEST(JsonParse, MalformedInputThrows) {
  EXPECT_THROW(ParseJson(""), Error);
  EXPECT_THROW(ParseJson("{"), Error);
  EXPECT_THROW(ParseJson("[1,]"), Error);
  EXPECT_THROW(ParseJson("\"unterminated"), Error);
  EXPECT_THROW(ParseJson("nulx"), Error);
  EXPECT_THROW(ParseJson("{} trailing"), Error);
  // Nesting is bounded: a million '[' fails cleanly instead of overflowing
  // the stack, and the diagnostic names where the limit was crossed.
  try {
    ParseJson(std::string(1'000'000, '['));
    ADD_FAILURE() << "deep nesting accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 64 levels at offset 64"),
              std::string::npos)
        << e.what();
  }
  const std::string deepest = std::string(kMaxJsonDepth, '[') + std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(ParseJson(deepest).IsArray());
  EXPECT_THROW(ParseJson("[" + deepest + "]"), Error);
}

// A run-report shaped document with the §5 headline counters (cycles, UTLB
// misses, idle instructions) survives a write -> parse round trip intact.
TEST(JsonRoundTrip, ExperimentReportShape) {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema", "wrlstats/1");
  w.KV("tool", "json_test");
  w.Key("metrics").BeginObject();
  w.KV("ultrix.sed.measured_seconds", 0.1875);
  w.KV("ultrix.sed.time_error_percent", -3.25);
  w.EndObject();
  w.Key("experiments").BeginArray();
  w.BeginObject();
  w.KV("workload", "sed");
  w.KV("personality", "ultrix");
  w.Key("measured").BeginObject();
  w.KV("cycles", static_cast<uint64_t>(4688000));
  w.KV("utlb_misses", static_cast<uint64_t>(1234));
  w.KV("idle_instructions", static_cast<uint64_t>(99));
  w.EndObject();
  w.Key("predicted").BeginObject();
  w.KV("cycles", static_cast<uint64_t>(4535000));
  w.KV("utlb_misses", static_cast<uint64_t>(1190));
  w.EndObject();
  w.EndObject();
  w.EndArray();
  w.Key("traceEvents").BeginArray().EndArray();
  w.EndObject();
  ASSERT_TRUE(w.Done());

  JsonValue v = ParseJson(w.TakeString());
  EXPECT_EQ(v.At("schema").string, "wrlstats/1");
  EXPECT_DOUBLE_EQ(v.At("metrics").At("ultrix.sed.time_error_percent").number, -3.25);
  const JsonValue& exp = v.At("experiments").array.at(0);
  EXPECT_EQ(exp.At("workload").string, "sed");
  EXPECT_DOUBLE_EQ(exp.At("measured").At("cycles").number, 4688000.0);
  EXPECT_DOUBLE_EQ(exp.At("measured").At("utlb_misses").number, 1234.0);
  EXPECT_DOUBLE_EQ(exp.At("measured").At("idle_instructions").number, 99.0);
  EXPECT_DOUBLE_EQ(exp.At("predicted").At("cycles").number, 4535000.0);
  EXPECT_TRUE(v.At("traceEvents").IsArray());
}

}  // namespace
}  // namespace wrl
