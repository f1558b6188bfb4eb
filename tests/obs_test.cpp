// Unit tests for the observability layer: metrics registry semantics
// (counters, gauges, histograms, registry merge), the JSON
// writer/parser the structured reports are built on, and the lenient field
// readers every decoder shares.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace snake::obs {
namespace {

// ------------------------------------------------------------- registry

TEST(Metrics, CounterSlotsAreStableAndAdditive) {
  MetricsRegistry reg;
  std::uint64_t& c = reg.counter("events");
  ++c;
  c += 41;
  EXPECT_EQ(reg.counter("events"), 42u);
  EXPECT_EQ(&reg.counter("events"), &c) << "slot reference must be stable";
  EXPECT_EQ(reg.counter("other"), 0u) << "new counters start at zero";
}

TEST(Metrics, GaugeMaxKeepsHighWatermark) {
  MetricsRegistry reg;
  reg.gauge_max("queue.highwater", 3.0);
  reg.gauge_max("queue.highwater", 17.0);
  reg.gauge_max("queue.highwater", 5.0);
  EXPECT_DOUBLE_EQ(reg.gauge("queue.highwater"), 17.0);
}

TEST(Metrics, HistogramBucketsAndSummary) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {1.0, 10.0});
  h.record(0.5);   // bucket 0 (<= 1.0)
  h.record(1.0);   // bucket 0 (bounds are inclusive upper bounds)
  h.record(5.0);   // bucket 1 (<= 10.0)
  h.record(100.0); // +inf tail
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 106.5);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
}

TEST(Metrics, MergeFoldsExecutorRegistries) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("runs") = 3;
  b.counter("runs") = 4;
  b.counter("only_b") = 1;
  a.gauge_max("hw", 2.0);
  b.gauge_max("hw", 9.0);
  a.histogram("t", {1.0}).record(0.5);
  b.histogram("t", {1.0}).record(2.0);

  a.merge_from(b);
  EXPECT_EQ(a.counter("runs"), 7u);
  EXPECT_EQ(a.counter("only_b"), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("hw"), 9.0);
  const Histogram& h = a.histogram("t", {1.0});
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_DOUBLE_EQ(h.sum, 2.5);
}

TEST(Metrics, ScopedTimerRecordsOnceAndNullRegistryIsNoop) {
  MetricsRegistry reg;
  {
    ScopedTimer t(&reg, "stage_seconds");
  }
  EXPECT_EQ(reg.histogram("stage_seconds").count, 1u);
  EXPECT_GE(reg.histogram("stage_seconds").sum, 0.0);

  {
    ScopedTimer t(&reg, "stopped");
    double elapsed = t.stop();
    EXPECT_GE(elapsed, 0.0);
  }  // destructor must not double-record after stop()
  EXPECT_EQ(reg.histogram("stopped").count, 1u);

  ScopedTimer none(nullptr, "ignored");
  EXPECT_EQ(none.stop(), 0.0);
}

TEST(Metrics, RegistryJsonRoundTrips) {
  MetricsRegistry reg;
  reg.counter("a.count") = 12;
  reg.gauge("b.level") = 2.5;
  reg.histogram("c.time", {1.0}).record(0.25);

  std::string doc = reg.to_json();
  std::string error;
  auto parsed = parse_json(doc, &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << doc;
  const JsonValue* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("a.count"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("a.count")->num_v, 12.0);
  const JsonValue* gauges = parsed->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("b.level")->num_v, 2.5);
  const JsonValue* hists = parsed->find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* h = hists->find("c.time");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->num_v, 1.0);
  ASSERT_TRUE(h->find("buckets")->is_array());
  EXPECT_EQ(h->find("buckets")->array_v.size(), 2u);
  // The +inf tail bucket serializes its bound as null.
  EXPECT_TRUE(h->find("buckets")->array_v.back().find("le")->is_null());
}

// ----------------------------------------------------------------- JSON

TEST(Json, WriterProducesValidNestedDocument) {
  JsonWriter w;
  w.begin_object()
      .key("name")
      .value("tab\"le\n1")
      .key("n")
      .value(3)
      .key("ok")
      .value(true)
      .key("ratio")
      .value(0.5)
      .key("none")
      .null_value()
      .key("xs")
      .begin_array()
      .value(1)
      .value(2)
      .begin_object()
      .key("k")
      .value("v")
      .end_object()
      .end_array()
      .end_object();

  std::string error;
  auto parsed = parse_json(w.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << w.str();
  EXPECT_EQ(parsed->find("name")->str_v, "tab\"le\n1");
  EXPECT_DOUBLE_EQ(parsed->find("n")->num_v, 3.0);
  EXPECT_TRUE(parsed->find("ok")->bool_v);
  EXPECT_TRUE(parsed->find("none")->is_null());
  ASSERT_EQ(parsed->find("xs")->array_v.size(), 3u);
  EXPECT_EQ(parsed->find("xs")->array_v[2].find("k")->str_v, "v");
}

TEST(Json, RawEmbedsPreRenderedDocuments) {
  JsonWriter inner;
  inner.begin_object().key("a").value(1).end_object();
  JsonWriter w;
  w.begin_object().key("docs").begin_array().raw(inner.str()).raw(inner.str()).end_array();
  w.end_object();
  auto parsed = parse_json(w.str());
  ASSERT_TRUE(parsed.has_value()) << w.str();
  ASSERT_EQ(parsed->find("docs")->array_v.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->find("docs")->array_v[1].find("a")->num_v, 1.0);
}

TEST(Json, ParserHandlesEscapesAndNumbers) {
  auto v = parse_json(R"({"s":"aA\n\\","x":-1.5e2,"arr":[true,false,null]})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("s")->str_v, "aA\n\\");
  EXPECT_DOUBLE_EQ(v->find("x")->num_v, -150.0);
  ASSERT_EQ(v->find("arr")->array_v.size(), 3u);
}

TEST(Json, EscapeGoldenForControlCharactersQuotesAndBackslashes) {
  // Every control character, the quote and the backslash, each between
  // plain runs, escape exactly as the reports have always written them;
  // everything else (DEL and UTF-8 bytes included) is copied as-is.
  std::string text;
  for (int c = 0; c < 0x20; ++c) {
    text += 'a';
    text += static_cast<char>(c);
  }
  text += "q\"b\\z\x7f\xc3\xa9!";
  const std::string expected =
      "a\\u0000a\\u0001a\\u0002a\\u0003a\\u0004a\\u0005a\\u0006a\\u0007"
      "a\\ba\\ta\\na\\u000ba\\fa\\ra\\u000ea\\u000f"
      "a\\u0010a\\u0011a\\u0012a\\u0013a\\u0014a\\u0015a\\u0016a\\u0017"
      "a\\u0018a\\u0019a\\u001aa\\u001ba\\u001ca\\u001da\\u001ea\\u001f"
      "q\\\"b\\\\z\x7f\xc3\xa9!";
  EXPECT_EQ(json_escape(text), expected);
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("\"\""), "\\\"\\\"");
  // The escaped text parses back to the original.
  auto v = parse_json("\"" + expected + "\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->str_v, text);
}

TEST(Json, ParserRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_json("{", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\":}", &error).has_value());
  EXPECT_FALSE(parse_json("[1,]", &error).has_value());
  EXPECT_FALSE(parse_json("{} trailing", &error).has_value());
  EXPECT_FALSE(parse_json("\"unterminated", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Json, NonFiniteDoublesSerializeAsNull) {
  JsonWriter w;
  w.begin_array().value(std::numeric_limits<double>::infinity()).end_array();
  auto v = parse_json(w.str());
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->array_v[0].is_null());
}

// ------------------------------------------------- histogram auto-ranging

JsonValue number(double d) {
  JsonValue v;
  v.type = JsonValue::Type::kNumber;
  v.num_v = d;
  return v;
}

TEST(Json, LenientFieldReadersDefaultHostileValues) {
  // Each row stores `value` under "f" (or nothing) and reads it back with
  // every shared reader; the fallbacks are u64 7, i64 -7, num 0.25, bool
  // true. Out-of-range, negative and NaN numbers must take the fallback
  // rather than reach an undefined float-to-integer cast.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  JsonValue flag;
  flag.type = JsonValue::Type::kBool;
  JsonValue text;
  text.type = JsonValue::Type::kString;
  text.str_v = "12";
  JsonValue null_value;
  JsonValue array;
  array.type = JsonValue::Type::kArray;
  array.array_v.push_back(number(1));

  struct Row {
    const char* label;
    std::optional<JsonValue> value;
    std::uint64_t u64;
    std::int64_t i64;
    double num;
    bool boolean;
    std::string str;
  };
  const std::vector<Row> rows = {
      {"absent", std::nullopt, 7, -7, 0.25, true, ""},
      {"zero", number(0), 0, 0, 0, true, ""},
      {"integer", number(42), 42, 42, 42, true, ""},
      {"fraction truncates", number(1.9), 1, 1, 1.9, true, ""},
      {"negative", number(-1), 7, -1, -1, true, ""},
      {"negative fraction", number(-0.5), 7, 0, -0.5, true, ""},
      {"huge", number(1e300), 7, -7, 1e300, true, ""},
      {"huge negative", number(-1e308), 7, -7, -1e308, true, ""},
      {"2^64", number(18446744073709551616.0), 7, -7, 18446744073709551616.0, true, ""},
      {"largest below 2^64", number(18446744073709549568.0), 18446744073709549568ULL, -7,
       18446744073709549568.0, true, ""},
      {"2^63", number(9223372036854775808.0), 9223372036854775808ULL, -7,
       9223372036854775808.0, true, ""},
      {"-2^63", number(-9223372036854775808.0), 7, std::numeric_limits<std::int64_t>::min(),
       -9223372036854775808.0, true, ""},
      {"NaN", number(kNaN), 7, -7, kNaN, true, ""},
      {"+inf", number(kInf), 7, -7, kInf, true, ""},
      {"-inf", number(-kInf), 7, -7, -kInf, true, ""},
      {"bool", flag, 7, -7, 0.25, false, ""},
      {"string", text, 7, -7, 0.25, true, "12"},
      {"null", null_value, 7, -7, 0.25, true, ""},
      {"array", array, 7, -7, 0.25, true, ""},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.label);
    JsonValue obj;
    obj.type = JsonValue::Type::kObject;
    if (row.value.has_value()) obj.object_v["f"] = *row.value;
    EXPECT_EQ(u64_field(obj, "f", 7), row.u64);
    EXPECT_EQ(u64_of(row.value.value_or(JsonValue())).value_or(7), row.u64);
    EXPECT_EQ(i64_field(obj, "f", -7), row.i64);
    const double num = num_field(obj, "f", 0.25);
    EXPECT_TRUE(std::isnan(row.num) ? std::isnan(num) : num == row.num) << num;
    EXPECT_EQ(bool_field(obj, "f", true), row.boolean);
    EXPECT_EQ(str_field(obj, "f"), row.str);
  }
  // Readers on a non-object see every key as absent.
  EXPECT_EQ(u64_field(number(3), "f", 7), 7u);
  EXPECT_EQ(str_field(text, "f"), "");
}

TEST(Metrics, AutoExtendWidensBoundsAlongLogLadder) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t", default_time_bounds(), /*auto_extend=*/true);
  h.record(0.5);
  h.record(250.0);  // past the default 30 s top bound
  // The ladder continues 30 -> 100 -> 300; 250 lands in the (100, 300]
  // bucket and the +inf tail stays empty.
  ASSERT_GE(h.bounds.size(), default_time_bounds().size() + 2);
  EXPECT_DOUBLE_EQ(h.bounds[default_time_bounds().size()], 100.0);
  EXPECT_DOUBLE_EQ(h.bounds[default_time_bounds().size() + 1], 300.0);
  EXPECT_EQ(h.counts.back(), 0u);
  EXPECT_EQ(h.counts[h.counts.size() - 2], 1u);
  EXPECT_EQ(h.count, 2u);
}

TEST(Metrics, FixedBoundsHistogramsDoNotAutoExtend) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {1.0, 10.0});
  h.record(100.0);
  EXPECT_EQ(h.bounds.size(), 2u);
  EXPECT_EQ(h.counts.back(), 1u);  // tail keeps catching outliers
}

TEST(Metrics, MergeAlignsPrefixExtendedBounds) {
  // Executor A auto-extended; executor B (same metric) never saw a large
  // value. Merging either direction must line buckets up exactly.
  Histogram extended;
  extended.bounds = default_time_bounds();
  extended.auto_extend = true;
  extended.record(0.05);
  extended.record(70.0);  // extends to ..., 100

  Histogram plain;
  plain.bounds = default_time_bounds();
  plain.record(0.05);

  Histogram into_plain = plain;
  into_plain.merge_from(extended);
  EXPECT_EQ(into_plain.bounds, extended.bounds);
  EXPECT_EQ(into_plain.count, 3u);
  EXPECT_EQ(into_plain.counts.back(), 0u);

  Histogram into_extended = extended;
  into_extended.merge_from(plain);
  EXPECT_EQ(into_extended.bounds, extended.bounds);
  EXPECT_EQ(into_extended.count, 3u);
  EXPECT_EQ(into_extended.counts.back(), 0u);
}

// ------------------------------------------------------ streaming writer

TEST(Json, StreamingWriterFlushesChunksPreservingStructure) {
  std::string sunk;
  std::size_t flushes = 0;
  {
    JsonWriter w([&](std::string_view chunk) {
      sunk += chunk;
      ++flushes;
    });
    w.begin_object();
    w.key("items").begin_array();
    w.flush();  // header chunk
    for (int i = 0; i < 3; ++i) {
      w.begin_object().key("i").value(i).end_object();
      w.flush();  // one chunk per element — comma state survives the flush
    }
    w.end_array();
    w.end_object();
    // Destructor flushes the trailer.
  }
  EXPECT_GE(flushes, 4u);
  auto v = parse_json(sunk);
  ASSERT_TRUE(v.has_value()) << sunk;
  const JsonValue* items = v->find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->array_v.size(), 3u);
  EXPECT_DOUBLE_EQ(items->array_v[2].find("i")->num_v, 2.0);
}

TEST(Json, BufferedWriterStillAccumulates) {
  JsonWriter w;
  w.begin_array().value(1).end_array();
  w.flush();  // no sink: must be a no-op, not a data loss
  EXPECT_EQ(w.str(), "[1]");
}

}  // namespace
}  // namespace snake::obs
