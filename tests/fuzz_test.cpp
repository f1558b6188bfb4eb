// Mutation fuzzing of the untrusted-input surfaces: the packet codec and
// header-format DSL, the JSON parser behind reports/journals, and the
// journal loader. Deterministic — every mutant derives from a printed seed.
// The CI sanitizer jobs run this suite under ASan/UBSan; the assertions here
// are no-crash (only documented exception types escape) plus round-trip
// identity where a codec promises one.
//
// tests/corpus/ holds previously-found crashing/rejecting inputs; each file
// is replayed verbatim every run (regression) and used as a mutation seed.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "dist/wire.h"
#include "obs/json.h"
#include "packet/dccp_format.h"
#include "packet/format_dsl.h"
#include "packet/tcp_format.h"
#include "snake/journal.h"
#include "tcp/segment.h"
#include "testing/fuzz.h"
#include "trace/trace.h"
#include "testing/property.h"
#include "util/rng.h"

using namespace snake;
using namespace snake::testing;

namespace {

std::vector<CorpusFile> corpus(const std::string& category) {
  return load_corpus(std::string(SNAKE_CORPUS_DIR) + "/" + category);
}

const CorpusFile* find_file(const std::vector<CorpusFile>& files, const std::string& name) {
  for (const CorpusFile& f : files)
    if (f.name == name) return &f;
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Regression corpus replay: every past finding stays fixed.

TEST(CorpusRegression, JsonCorpusParsesWithoutCrashing) {
  std::vector<CorpusFile> files = corpus("json");
  ASSERT_FALSE(files.empty()) << "corpus dir missing: " SNAKE_CORPUS_DIR "/json";
  for (const CorpusFile& f : files) {
    std::string error;
    // Must terminate and must not crash; acceptance is file-specific below.
    (void)obs::parse_json(f.contents, &error);
  }
}

TEST(CorpusRegression, JsonDepthLimitEnforced) {
  std::vector<CorpusFile> files = corpus("json");
  const CorpusFile* arrays = find_file(files, "deep_nesting_arrays.json");
  const CorpusFile* objects = find_file(files, "deep_nesting_objects.json");
  const CorpusFile* at_limit = find_file(files, "nesting_at_limit.json");
  const CorpusFile* over_limit = find_file(files, "nesting_over_limit.json");
  ASSERT_TRUE(arrays && objects && at_limit && over_limit);
  EXPECT_FALSE(obs::parse_json(arrays->contents).has_value());
  EXPECT_FALSE(obs::parse_json(objects->contents).has_value());
  EXPECT_TRUE(obs::parse_json(at_limit->contents).has_value());
  EXPECT_FALSE(obs::parse_json(over_limit->contents).has_value());
}

TEST(CorpusRegression, JsonMalformedTokensRejected) {
  std::vector<CorpusFile> files = corpus("json");
  for (const char* name : {"truncated_unicode_escape.json", "truncated_escape.json",
                           "truncated_string.json", "number_inf.json", "number_minus_inf.json",
                           "number_nan.json", "number_hex.json", "number_leading_plus.json",
                           "number_bare_dot.json", "number_bare_exp.json", "trailing_junk.json",
                           "empty.json", "only_whitespace.json", "unbalanced_close.json"}) {
    const CorpusFile* f = find_file(files, name);
    ASSERT_TRUE(f) << name;
    EXPECT_FALSE(obs::parse_json(f->contents).has_value()) << name;
  }
  const CorpusFile* surrogate = find_file(files, "surrogate_pair.json");
  ASSERT_TRUE(surrogate);
  auto parsed = obs::parse_json(surrogate->contents);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_string());
  // Lone surrogates are not rejected: the parser substitutes U+FFFD rather
  // than fabricating invalid UTF-8 (documented in obs/json.cpp).
  for (const char* name : {"lone_high_surrogate.json", "lone_low_surrogate.json"}) {
    const CorpusFile* f = find_file(files, name);
    ASSERT_TRUE(f) << name;
    auto lone = obs::parse_json(f->contents);
    ASSERT_TRUE(lone.has_value()) << name;
    EXPECT_EQ(lone->str_v, "\xEF\xBF\xBD") << name;  // U+FFFD
  }
}

namespace {

/// Every journal corpus line is stamped with this campaign identity.
constexpr std::uint64_t kCorpusIdentity = 0xc0ffee42;

core::TrialLog load_log(const std::string& text) {
  core::TrialLog log;
  log.ingest(text);
  return log;
}

}  // namespace

TEST(CorpusRegression, JournalCorpusLoadsWithoutCrashing) {
  std::vector<CorpusFile> files = corpus("journal");
  ASSERT_FALSE(files.empty());
  for (const CorpusFile& f : files) (void)load_log(f.contents);
  // Hostile values inside checksummed lines load with the lenient readers'
  // fallbacks instead of undefined behaviour.
  for (const char* name : {"huge_counts.jsonl", "negative_counts.jsonl",
                           "non_string_observations.jsonl", "reasons_not_strings.jsonl"}) {
    const CorpusFile* f = find_file(files, name);
    ASSERT_TRUE(f) << name;
    core::TrialLog log = load_log(f->contents);
    EXPECT_EQ(log.count(kCorpusIdentity), 1u) << name;
    EXPECT_EQ(log.rejected(), 0u) << name;
  }
}

TEST(CorpusRegression, JournalTruncatedTailSkippedGarbageTolerated) {
  std::vector<CorpusFile> files = corpus("journal");
  const CorpusFile* truncated = find_file(files, "truncated_tail.jsonl");
  ASSERT_TRUE(truncated);
  core::TrialLog log = load_log(truncated->contents);
  EXPECT_NE(log.find(kCorpusIdentity, "k5"), nullptr);
  EXPECT_EQ(log.find(kCorpusIdentity, "k6"), nullptr);
  EXPECT_EQ(log.rejected(), 1u);

  const CorpusFile* garbage = find_file(files, "garbage_lines.jsonl");
  ASSERT_TRUE(garbage);
  log = load_log(garbage->contents);
  EXPECT_NE(log.find(kCorpusIdentity, "k7"), nullptr);
  EXPECT_EQ(log.rejected(), 2u);

  // Lines that parse but break the loading rule — a verdict edited under a
  // stale check, a line pasted under another identity, a checksummed line
  // whose newline never reached the disk — are rejected one by one.
  for (auto [name, lines] : {std::pair{"tampered_verdict.jsonl", 2u},
                             std::pair{"identity_swapped.jsonl", 1u},
                             std::pair{"unterminated_tail.jsonl", 1u}}) {
    const CorpusFile* f = find_file(files, name);
    ASSERT_TRUE(f) << name;
    log = load_log(f->contents);
    EXPECT_TRUE(log.empty()) << name;
    EXPECT_EQ(log.rejected(), lines) << name;
  }
}

TEST(CorpusRegression, WireCorpusParsesWithoutCrashing) {
  std::vector<CorpusFile> files = corpus("wire");
  ASSERT_FALSE(files.empty()) << "corpus dir missing: " SNAKE_CORPUS_DIR "/wire";
  for (const CorpusFile& f : files) (void)dist::parse_message(f.contents);
}

TEST(CorpusRegression, WireDecoderAcceptsAndRejectsAsDocumented) {
  std::vector<CorpusFile> files = corpus("wire");
  // Hardened rejections: unknown type, missing required payloads,
  // out-of-range numbers. Each must fail cleanly with nullopt.
  for (const char* name :
       {"bad_type.json", "campaign_missing_topology.json", "result_missing_record.json",
        "trials_bad_strategy.json", "feedback_bad_pairs.json", "stolen_huge_seq.json",
        "steal_negative.json", "frame_garbage.json",
        // v2: a result whose record was edited after checksumming (a flipped
        // verdict here) must fail checksum re-validation.
        "result_bad_checksum.json",
        // v5: the checksum covers the trial's metrics too; one counter edited
        // after checksumming fails it.
        "result_metrics_tampered.json",
        // v3: a campaign config must hash to its identity_hash — neither a
        // mistyped profile field (sack_renege as a string) nor an edited one
        // (min_rto under the stock profile's identity) gets through.
        "campaign_bad_profile.json", "campaign_identity_mismatch.json"}) {
    const CorpusFile* f = find_file(files, name);
    ASSERT_TRUE(f) << name;
    EXPECT_FALSE(dist::parse_message(f->contents).has_value()) << name;
  }
  for (const char* name : {"hello.json", "campaign.json", "heartbeat.json",
                           // Chaos-schedule campaign fields (re-encoded at v3),
                           // a checksummed result frame (v2), and one carrying
                           // its trial's metrics (v5).
                           "campaign_chaos.json", "result_checksummed.json",
                           "result_metrics.json"}) {
    const CorpusFile* f = find_file(files, name);
    ASSERT_TRUE(f) << name;
    EXPECT_TRUE(dist::parse_message(f->contents).has_value()) << name;
  }
  const CorpusFile* campaign = find_file(files, "campaign.json");
  auto m = dist::parse_message(campaign->contents);
  ASSERT_TRUE(m.has_value());
  // Decode -> encode -> decode fixpoint for the richest message type.
  auto again = dist::parse_message(dist::encode_campaign(m->campaign));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(dist::encode_campaign(again->campaign), dist::encode_campaign(m->campaign));
}

TEST(CorpusRegression, TraceCorpusAcceptsAndRejectsAsDocumented) {
  std::vector<CorpusFile> files = corpus("trace");
  ASSERT_FALSE(files.empty()) << "corpus dir missing: " SNAKE_CORPUS_DIR "/trace";
  // File names are the oracle: valid_* parse, everything else must be
  // rejected with a line-numbered error.
  for (const CorpusFile& f : files) {
    std::string error;
    auto parsed = trace::parse_trace(f.contents, &error);
    if (f.name.rfind("valid_", 0) == 0) {
      EXPECT_TRUE(parsed.has_value()) << f.name << ": " << error;
      // Every accepted trace builds a plan without crashing.
      (void)trace::build_replay_plan(*parsed, trace::ReplayOptions{});
    } else {
      EXPECT_FALSE(parsed.has_value()) << f.name;
      EXPECT_NE(error.find("trace line "), std::string::npos) << f.name << ": " << error;
    }
  }
}

TEST(CorpusRegression, DslCorpusAllThrowInvalidArgument) {
  std::vector<CorpusFile> files = corpus("dsl");
  ASSERT_FALSE(files.empty());
  for (const CorpusFile& f : files)
    EXPECT_THROW(packet::parse_header_format(f.contents), std::invalid_argument) << f.name;
}

// ---------------------------------------------------------------------------
// Codec fuzzing: random bytes through classify/get, round-trip identity on
// built packets. Defaults to 10k iterations; SNAKE_PROPERTY_ITERS overrides.

namespace {

/// The name-keyed reference the compiled codec is checked against: a field
/// is read through its FieldSpec's bit offset and width (read_bits throws
/// std::out_of_range when the buffer is shorter than the field span), and
/// classification resolves each type's discriminator by name, first match
/// in declaration order.
std::uint64_t reference_get(const packet::HeaderFormat& format, const Bytes& raw,
                            const std::string& field) {
  const packet::FieldSpec& f = format.field_or_throw(field);
  return read_bits(raw, f.bit_offset, f.bit_width);
}

std::string reference_classify(const packet::HeaderFormat& format, const Bytes& raw) {
  if (raw.size() < format.header_bytes()) return "unknown";
  for (const auto& t : format.packet_types())
    if ((reference_get(format, raw, t.discriminator_field) & t.match_mask) == t.match_value)
      return t.name;
  return "unknown";
}

/// classify + read every field; the only escapes allowed are the documented
/// std::out_of_range (buffer shorter than the field span). On full-size
/// buffers the compiled fixed-offset path must agree with the name-keyed
/// reference bit-for-bit — mutants included.
void probe_codec(const packet::HeaderFormat& format, const packet::Codec& codec,
                 const Bytes& raw) {
  EXPECT_EQ(format.type_name(codec.classify_index(raw)), reference_classify(format, raw));
  for (std::size_t i = 0; i < format.fields().size(); ++i) {
    const auto& f = format.fields()[i];
    try {
      std::uint64_t reference = reference_get(format, raw, f.name);
      // The compiled path's contract requires a full-size header.
      if (raw.size() >= format.header_bytes()) {
        EXPECT_EQ(codec.get_fast(raw, format.compiled_at(i)), reference) << f.name;
      }
    } catch (const std::out_of_range&) {
      EXPECT_LT(raw.size(), format.header_bytes());  // only legal on short buffers
    }
  }
}

bool overlaps_discriminator(const packet::HeaderFormat& format, const std::string& type,
                            const std::map<std::string, std::uint64_t>& fields) {
  // classify() takes the first matching type in declaration order, so a user
  // field can reroute classification by touching the discriminator of the
  // built type itself OR of any higher-priority type (e.g. TCP's sack_flag
  // turns a built SYN+ACK into a SACK).
  for (const auto& t : format.packet_types()) {
    const packet::FieldSpec& d = format.field_or_throw(t.discriminator_field);
    for (const auto& [name, value] : fields) {
      (void)value;
      const packet::FieldSpec& f = format.field_or_throw(name);
      if (f.bit_offset < d.bit_offset + d.bit_width && d.bit_offset < f.bit_offset + f.bit_width)
        return true;
    }
    if (t.name == type) break;
  }
  return false;
}

void fuzz_codec(const packet::HeaderFormat& format, const packet::Codec& codec) {
  PropertyConfig config = PropertyConfig::from_env(10'000);
  auto failure = for_each_seed(config, [&](std::uint64_t seed) -> std::optional<std::string> {
    Rng rng(seed);
    // 1. Build a packet from a random type + random field values.
    const auto& types = format.packet_types();
    const auto& type = types[rng.uniform(0, types.size() - 1)];
    std::map<std::string, std::uint64_t> values;
    for (const auto& f : format.fields())
      if (f.kind != packet::FieldKind::kChecksum && f.name != type.discriminator_field &&
          rng.chance(0.5))
        values[f.name] = rng.next_u64();
    Bytes built = codec.build(type.name, values);
    if (built.size() != format.header_bytes()) return "built wrong size";

    // 2. Round-trip identity: every user field reads back masked to width.
    for (const auto& [name, value] : values) {
      const packet::FieldSpec& f = format.field_or_throw(name);
      if (reference_get(format, built, name) != (value & f.max_value()))
        return "round-trip mismatch on field " + name;
    }
    // Classification honours the discriminator unless a user field overwrote it.
    if (!overlaps_discriminator(format, type.name, values) &&
        reference_classify(format, built) != type.name)
      return "classify(" + reference_classify(format, built) + ") != built type " + type.name;

    // 3. set_fast() keeps the identity on an already-valid packet.
    const auto& fields = format.fields();
    const std::size_t i = rng.uniform(0, fields.size() - 1);
    const packet::FieldSpec& f = fields[i];
    std::uint64_t v = rng.next_u64();
    codec.set_fast(built, format.compiled_at(i), v);
    if (f.kind != packet::FieldKind::kChecksum &&
        reference_get(format, built, f.name) != (v & f.max_value()))
      return "set/get mismatch on field " + f.name;

    // 4. Mutated buffers (length changes included) must never crash.
    Bytes mutant = mutate_bytes(rng, built);
    probe_codec(format, codec, mutant);
    probe_codec(format, codec, Bytes());
    return std::nullopt;
  });
  EXPECT_FALSE(failure.has_value())
      << "seed " << failure->seed << ": " << failure->message;
}

}  // namespace

TEST(CodecFuzz, TcpCodecRoundTripsAndSurvivesMutants) {
  fuzz_codec(packet::tcp_format(), packet::tcp_codec());
}

TEST(CodecFuzz, DccpCodecRoundTripsAndSurvivesMutants) {
  fuzz_codec(packet::dccp_format(), packet::dccp_codec());
}

// ---------------------------------------------------------------------------
// JSON parser fuzzing, with a parse -> emit -> parse -> emit fixpoint check.

namespace {

void emit_value(obs::JsonWriter& w, const obs::JsonValue& v) {
  switch (v.type) {
    case obs::JsonValue::Type::kNull: w.null_value(); break;
    case obs::JsonValue::Type::kBool: w.value(v.bool_v); break;
    case obs::JsonValue::Type::kNumber: w.value(v.num_v); break;
    case obs::JsonValue::Type::kString: w.value(v.str_v); break;
    case obs::JsonValue::Type::kArray:
      w.begin_array();
      for (const obs::JsonValue& e : v.array_v) emit_value(w, e);
      w.end_array();
      break;
    case obs::JsonValue::Type::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.object_v) {
        w.key(k);
        emit_value(w, e);
      }
      w.end_object();
      break;
  }
}

std::string emit(const obs::JsonValue& v) {
  obs::JsonWriter w;
  emit_value(w, v);
  return w.take();
}

}  // namespace

TEST(ParserFuzz, JsonMutantsNeverCrashAndSurvivorsReachEmitFixpoint) {
  std::vector<CorpusFile> seeds = corpus("json");
  ASSERT_FALSE(seeds.empty());
  // A well-formed report-shaped document seeds the interesting mutants.
  seeds.push_back({"report", R"({"campaign":{"seed":42,"trials":[{"key":"a","found":true},)"
                             R"({"key":"b","score":0.25}],"notes":"é\n"}})"});
  PropertyConfig config = PropertyConfig::from_env(2'000);
  auto failure = for_each_seed(config, [&](std::uint64_t seed) -> std::optional<std::string> {
    Rng rng(seed);
    const CorpusFile& base = seeds[rng.uniform(0, seeds.size() - 1)];
    std::string mutant = mutate_text(rng, base.contents);
    auto parsed = obs::parse_json(mutant);
    if (!parsed.has_value()) return std::nullopt;  // rejection is fine
    // Accepted documents must round-trip: emit is parseable and a fixpoint.
    std::string first = emit(*parsed);
    auto reparsed = obs::parse_json(first);
    if (!reparsed.has_value()) return "emitted JSON failed to re-parse: " + first;
    if (emit(*reparsed) != first) return "emit not a fixpoint for: " + first;
    return std::nullopt;
  });
  EXPECT_FALSE(failure.has_value())
      << "seed " << failure->seed << " (base corpus varies by seed): " << failure->message;
}

TEST(ParserFuzz, JournalMutantsNeverCrash) {
  std::vector<CorpusFile> seeds = corpus("journal");
  ASSERT_FALSE(seeds.empty());
  PropertyConfig config = PropertyConfig::from_env(2'000);
  auto failure = for_each_seed(config, [&](std::uint64_t seed) -> std::optional<std::string> {
    Rng rng(seed);
    const CorpusFile& base = seeds[rng.uniform(0, seeds.size() - 1)];
    std::string mutant = mutate_text(rng, base.contents);
    (void)load_log(mutant);  // must terminate, no crash/UB
    return std::nullopt;
  });
  EXPECT_FALSE(failure.has_value())
      << "seed " << failure->seed << ": " << failure->message;
}

TEST(ParserFuzz, WireDecoderMutantsNeverCrash) {
  // Seeds: the regression corpus plus one live encoding of every message
  // type, so mutants explore the neighbourhood of real traffic.
  std::vector<CorpusFile> seeds = corpus("wire");
  ASSERT_FALSE(seeds.empty());
  seeds.push_back({"live_hello", dist::encode_hello()});
  seeds.push_back({"live_steal", dist::encode_steal(4)});
  seeds.push_back({"live_stolen", dist::encode_stolen({5, 6, 7})});
  seeds.push_back({"live_feedback", dist::encode_feedback({{"ESTABLISHED", "ACK"}})});
  seeds.push_back({"live_heartbeat", dist::encode_heartbeat(2)});
  seeds.push_back({"live_ready", dist::encode_ready(core::RunMetrics{}, core::RunMetrics{})});
  seeds.push_back({"live_shutdown", dist::encode_shutdown()});
  core::TrialRecord record;
  record.key = "k";
  seeds.push_back({"live_result", dist::encode_result(1, record)});
  obs::MetricsRegistry metrics;
  metrics.counter("scenario.attack_runs") = 2;
  metrics.gauge_max("sim.virtual_time_seconds", 3.5);
  metrics.histogram("scenario.run_seconds").record(0.004);
  seeds.push_back({"live_result_metrics", dist::encode_result(2, record, &metrics)});

  PropertyConfig config = PropertyConfig::from_env(2'000);
  auto failure = for_each_seed(config, [&](std::uint64_t seed) -> std::optional<std::string> {
    Rng rng(seed);
    const CorpusFile& base = seeds[rng.uniform(0, seeds.size() - 1)];
    std::string mutant = mutate_text(rng, base.contents);
    // Must terminate without crashing; acceptance is optional, but an
    // accepted message must carry a known type (the decoder never invents
    // one) — and decoding twice must agree (pure function of the input).
    auto first = dist::parse_message(mutant);
    auto second = dist::parse_message(mutant);
    if (first.has_value() != second.has_value()) return "non-deterministic decode";
    if (first.has_value() && second.has_value() && first->type != second->type)
      return "non-deterministic message type";
    return std::nullopt;
  });
  EXPECT_FALSE(failure.has_value())
      << "seed " << failure->seed << ": " << failure->message;
}

TEST(ParserFuzz, TraceMutantsNeverCrash) {
  std::vector<CorpusFile> seeds = corpus("trace");
  ASSERT_FALSE(seeds.empty());
  PropertyConfig config = PropertyConfig::from_env(2'000);
  auto failure = for_each_seed(config, [&](std::uint64_t seed) -> std::optional<std::string> {
    Rng rng(seed);
    const CorpusFile& base = seeds[rng.uniform(0, seeds.size() - 1)];
    std::string mutant = mutate_text(rng, base.contents);
    // Parsing must terminate without crash/UB and be a pure function.
    std::string e1, e2;
    auto first = trace::parse_trace(mutant, &e1);
    auto second = trace::parse_trace(mutant, &e2);
    if (first.has_value() != second.has_value()) return "non-deterministic accept";
    if (!first.has_value()) {
      if (e1 != e2) return "non-deterministic error message";
      return std::nullopt;
    }
    // An accepted mutant must build the same plan every time, and the plan
    // must be internally consistent with its flows.
    trace::ReplayOptions opts;
    opts.max_flows = 1 + static_cast<std::size_t>(seed % 4);
    opts.seed = seed;
    trace::ReplayPlan a = trace::build_replay_plan(*first, opts);
    trace::ReplayPlan b = trace::build_replay_plan(*second, opts);
    if (a.flows.size() != b.flows.size()) return "non-deterministic plan";
    std::uint64_t client = 0, server = 0;
    double horizon = 0.0;
    for (std::size_t i = 0; i < a.flows.size(); ++i) {
      if (a.flows[i].id != b.flows[i].id) return "non-deterministic flow order";
      client += a.flows[i].total_client_bytes;
      server += a.flows[i].total_server_bytes;
      horizon = std::max(horizon, a.flows[i].open_at_s);
      for (const trace::FlowTransfer& t : a.flows[i].transfers)
        horizon = std::max(horizon, t.at_s);
      if (a.flows[i].close_at_s.has_value())
        horizon = std::max(horizon, *a.flows[i].close_at_s);
    }
    if (client != a.total_client_bytes || server != a.total_server_bytes)
      return "plan totals disagree with flow sums";
    if (horizon != a.horizon_s) return "plan horizon disagrees with flow schedule";
    return std::nullopt;
  });
  EXPECT_FALSE(failure.has_value())
      << "seed " << failure->seed << ": " << failure->message;
}

TEST(CodecFuzz, TcpSackOptionMutantsNeverCrashAndRoundTrip) {
  // The option area ([20, data_offset*4)) is beyond the header codec's
  // fixed fields, so it gets its own fuzz: random SACK-carrying segments
  // must round-trip exactly, and byte mutants (option kinds, lengths,
  // truncations, checksum damage) must parse cleanly or be rejected —
  // never crash.
  PropertyConfig config = PropertyConfig::from_env(10'000);
  auto failure = for_each_seed(config, [&](std::uint64_t seed) -> std::optional<std::string> {
    Rng rng(seed);
    tcp::Segment s;
    s.src_port = static_cast<std::uint16_t>(rng.next_u64());
    s.dst_port = static_cast<std::uint16_t>(rng.next_u64());
    s.seq = static_cast<std::uint32_t>(rng.next_u64());
    s.ack = static_cast<std::uint32_t>(rng.next_u64());
    s.flags = static_cast<std::uint8_t>(rng.next_u64() & 0x3f);
    s.window = static_cast<std::uint16_t>(rng.next_u64());
    s.dsack = rng.chance(0.3);
    s.sack_permitted = rng.chance(0.3);
    std::size_t blocks = rng.uniform(0, 6);  // beyond kMaxSackBlocks on purpose
    for (std::size_t i = 0; i < blocks; ++i) {
      tcp::SackBlock b;
      b.start = static_cast<std::uint32_t>(rng.next_u64());
      b.end = b.start + static_cast<std::uint32_t>(rng.uniform(1, 100000));
      s.sack_blocks.push_back(b);
    }
    if (rng.chance(0.5)) s.payload = Bytes(rng.uniform(1, 64), 0x42);

    Bytes wire = tcp::serialize(s);
    std::optional<tcp::Segment> back = tcp::parse_segment(wire);
    if (!back.has_value()) return "serialize -> parse rejected a valid segment";
    std::size_t kept = std::min(blocks, tcp::Segment::kMaxSackBlocks);
    if (back->sack_blocks.size() != kept) return "SACK block count changed in flight";
    for (std::size_t i = 0; i < kept; ++i)
      if (!(back->sack_blocks[i] == s.sack_blocks[i])) return "SACK block moved in flight";
    if (back->sack_permitted != s.sack_permitted) return "sack_permitted flipped";
    if (back->dsack != s.dsack) return "dsack flipped";
    if (back->payload != s.payload) return "payload changed";

    // Mutants: parse must terminate; survivors must re-serialize parseably.
    Bytes mutant = mutate_bytes(rng, wire);
    std::optional<tcp::Segment> parsed = tcp::parse_segment(mutant);
    if (parsed.has_value()) {
      const Bytes reserialized = tcp::serialize(*parsed);
      std::optional<tcp::Segment> again = tcp::parse_segment(reserialized);
      if (!again.has_value()) return "accepted mutant failed to re-serialize/parse";
    }
    return std::nullopt;
  });
  EXPECT_FALSE(failure.has_value())
      << "seed " << failure->seed << ": " << failure->message;
}

TEST(ParserFuzz, FormatDslMutantsNeverCrash) {
  std::vector<CorpusFile> seeds = corpus("dsl");
  seeds.push_back({"tcp", packet::tcp_format_dsl()});
  seeds.push_back({"dccp", packet::dccp_format_dsl()});
  PropertyConfig config = PropertyConfig::from_env(2'000);
  auto failure = for_each_seed(config, [&](std::uint64_t seed) -> std::optional<std::string> {
    Rng rng(seed);
    const CorpusFile& base = seeds[rng.uniform(0, seeds.size() - 1)];
    std::string mutant = mutate_text(rng, base.contents);
    try {
      packet::HeaderFormat format = packet::parse_header_format(mutant);
      // A mutant the DSL accepts must produce a usable format: bounded
      // header, fields inside it, and a codec that can build every type.
      if (format.header_bytes() == 0 || format.header_bytes() > 4096)
        return "accepted format with absurd header size";
      packet::Codec codec(format);
      for (const auto& t : format.packet_types()) (void)codec.build(t.name, {});
      // Any accepted format must also compile coherently: the fixed-offset
      // accessors and index-based classifier agree with the name-keyed
      // reference on random full-size headers.
      Bytes raw(format.header_bytes(), 0);
      for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next_u64());
      if (format.type_name(codec.classify_index(raw)) != reference_classify(format, raw))
        return "compiled classification diverges from reference";
      for (std::size_t i = 0; i < format.fields().size(); ++i) {
        const auto& f = format.fields()[i];
        if (codec.get_fast(raw, format.compiled_at(i)) != reference_get(format, raw, f.name))
          return "compiled read diverges from reference on field " + f.name;
      }
    } catch (const std::invalid_argument&) {
      // The documented rejection path.
    }
    return std::nullopt;
  });
  EXPECT_FALSE(failure.has_value())
      << "seed " << failure->seed << ": " << failure->message;
}

// ---------------------------------------------------------------------------
// The mutators themselves are deterministic (replayability contract).

TEST(Mutators, DeterministicForSameSeed) {
  Bytes seed_bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  Rng a(9), b(9);
  EXPECT_EQ(mutate_bytes(a, seed_bytes), mutate_bytes(b, seed_bytes));
  Rng c(11), d(11);
  EXPECT_EQ(mutate_text(c, "{\"k\": [1, 2]}"), mutate_text(d, "{\"k\": [1, 2]}"));
}

TEST(Mutators, RespectLengthCap) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Bytes out = mutate_bytes(rng, Bytes(64, 0xAA), 128);
    EXPECT_LE(out.size(), 128u);
    std::string text = mutate_text(rng, std::string(64, 'x'), 128);
    EXPECT_LE(text.size(), 128u);
  }
}
