// obs_query: trace analytics over this tree's JSONL artifacts.
//
// One small CLI that understands every observability schema the repo emits —
// coca-slot-trace-v1, coca-des-trace-v1, coca-health-v1 and the
// coca-span-profile-v1 footer — so CI jobs and humans stop re-writing ad-hoc
// grep/awk over trace files.
//
//   obs_query stages <file>             per-stage span breakdown (count,
//                                       total_ms, self_ms, self share) from
//                                       the span-profile footer line
//   obs_query quantiles <field> <file>  count/mean/min/p50/p90/p99/max over
//                                       a top-level numeric field
//   obs_query validate <file>           schema-check every line; exit 1 on
//                                       the first violation
//   obs_query diff <a> <b>              byte-compare two JSONL files with
//                                       obs::mask_timing_fields applied to
//                                       both; exit 1 on the first divergence
//   obs_query health-summary <file> [--fail-on-unexpected] [--require RULE]
//                                       count coca-health-v1 events by
//                                       rule/level/expected; optionally gate;
//                                       exit 1 on any torn line
//   obs_query --self-test               built-in fixture suite
//
// Everything except wall-clock readings prints deterministically
// (std::to_chars rendering, sorted orders), so obs_query output can itself
// be golden-tested.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace {

using coca::obs::JsonValue;

constexpr int kExitOk = 0;
constexpr int kExitFail = 1;
constexpr int kExitUsage = 2;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("obs_query: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// Which schema a parsed line belongs to, decided by its key shape.
enum class LineKind { kSlotTrace, kDesTrace, kHealth, kSpanProfile, kUnknown };

LineKind classify(const JsonValue& value) {
  if (!value.is_object()) return LineKind::kUnknown;
  if (value.contains("schema") && value.at("schema").is_string()) {
    if (value.at("schema").as_string() == coca::obs::kSpanProfileSchema) {
      return LineKind::kSpanProfile;
    }
    return LineKind::kUnknown;
  }
  if (value.contains("rule") && value.contains("level")) {
    return LineKind::kHealth;
  }
  if (value.contains("p50_s") && value.contains("arrivals")) {
    return LineKind::kDesTrace;
  }
  if (value.contains("lambda") && value.contains("q")) {
    return LineKind::kSlotTrace;
  }
  return LineKind::kUnknown;
}

const char* kind_name(LineKind kind) {
  switch (kind) {
    case LineKind::kSlotTrace:
      return coca::obs::kSlotTraceSchema;
    case LineKind::kDesTrace:
      return "coca-des-trace-v1";
    case LineKind::kHealth:
      return coca::obs::kHealthSchema;
    case LineKind::kSpanProfile:
      return coca::obs::kSpanProfileSchema;
    case LineKind::kUnknown:
      return "unknown";
  }
  return "unknown";
}

/// Require `key` to exist with the given shape; returns an error message or
/// the empty string.
std::string require(const JsonValue& object, const char* key, bool numeric) {
  if (!object.contains(key)) {
    return std::string("missing key \"") + key + '"';
  }
  const JsonValue& member = object.at(key);
  if (numeric ? !member.is_number() : !member.is_string()) {
    return std::string("key \"") + key +
           (numeric ? "\" is not a number" : "\" is not a string");
  }
  return {};
}

std::string validate_line(const JsonValue& value, LineKind kind) {
  switch (kind) {
    case LineKind::kSlotTrace: {
      for (const char* key : {"t", "lambda", "price", "onsite_kw",
                              "offsite_kwh", "q", "V", "active_servers",
                              "brown_kwh", "total_cost", "solve_ms"}) {
        if (auto err = require(value, key, true); !err.empty()) return err;
      }
      if (!value.contains("feasible") || !value.at("feasible").is_bool()) {
        return "missing/invalid \"feasible\"";
      }
      return {};
    }
    case LineKind::kDesTrace: {
      for (const char* key : {"t", "arrivals", "completions", "in_flight",
                              "p50_s", "p99_s", "p999_s"}) {
        if (auto err = require(value, key, true); !err.empty()) return err;
      }
      return {};
    }
    case LineKind::kHealth: {
      for (const char* key : {"rule", "level"}) {
        if (auto err = require(value, key, false); !err.empty()) return err;
      }
      if (auto err = require(value, "t", true); !err.empty()) return err;
      const std::string& level = value.at("level").as_string();
      if (level != "info" && level != "warn" && level != "critical") {
        return "level \"" + level + "\" is not info|warn|critical";
      }
      const bool plain =
          value.contains("value") && value.contains("limit");
      const bool timing =
          value.contains("value_ms") && value.contains("limit_ms");
      if (plain == timing) {
        return "expected exactly one of value/limit or value_ms/limit_ms";
      }
      if (!value.contains("expected") || !value.at("expected").is_bool()) {
        return "missing/invalid \"expected\"";
      }
      return {};
    }
    case LineKind::kSpanProfile: {
      if (!value.contains("spans") || !value.at("spans").is_array()) {
        return "missing/invalid \"spans\"";
      }
      for (const JsonValue& span : value.at("spans").as_array()) {
        if (auto err = require(span, "path", false); !err.empty()) return err;
        for (const char* key : {"count", "total_ms", "self_ms"}) {
          if (auto err = require(span, key, true); !err.empty()) return err;
        }
      }
      return {};
    }
    case LineKind::kUnknown:
      return "unrecognized line shape";
  }
  return {};
}

int cmd_validate(const std::string& text, const std::string& label) {
  const std::vector<std::string> lines = split_lines(text);
  std::map<std::string, std::int64_t> seen;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    JsonValue value;
    try {
      value = coca::obs::parse_json(lines[i]);
    } catch (const std::exception& error) {
      std::cout << label << ":" << i + 1 << ": parse error: " << error.what()
                << '\n';
      return kExitFail;
    }
    const LineKind kind = classify(value);
    const std::string err = validate_line(value, kind);
    if (!err.empty()) {
      std::cout << label << ":" << i + 1 << ": " << kind_name(kind) << ": "
                << err << '\n';
      return kExitFail;
    }
    ++seen[kind_name(kind)];
  }
  std::cout << "valid: " << label << " (" << lines.size() << " lines)\n";
  for (const auto& [schema, count] : seen) {
    std::cout << "  " << schema << ": " << count << '\n';
  }
  return kExitOk;
}

/// quantiles and stages skim past lines that fail to parse (validate is the
/// strict gate), but say how many they skipped.
void report_skipped(std::int64_t skipped) {
  if (skipped > 0) {
    std::cout << "skipped " << skipped << " unparsable line(s)\n";
  }
}

int cmd_quantiles(const std::string& field, const std::string& text) {
  std::vector<double> values;
  std::int64_t skipped = 0;
  for (const std::string& line : split_lines(text)) {
    JsonValue value;
    try {
      value = coca::obs::parse_json(line);
    } catch (const std::exception&) {
      ++skipped;
      continue;
    }
    if (value.is_object() && value.contains(field) &&
        value.at(field).is_number()) {
      values.push_back(value.at(field).as_double());
    }
  }
  report_skipped(skipped);
  if (values.empty()) {
    std::cout << "field \"" << field << "\": no numeric samples\n";
    return kExitFail;
  }
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (const double v : values) sum += v;
  const auto order_stat = [&values](double p) {
    // Rank-based: the ceil(p*n)-th ranked sample, matching
    // TailHistogram::quantile's convention.
    const auto n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(p * n + (1.0 - 1e-12));
    if (rank == 0) rank = 1;
    if (rank > values.size()) rank = values.size();
    return values[rank - 1];
  };
  const auto num = [](double v) { return coca::obs::json_number(v); };
  std::cout << "field \"" << field << "\": count " << values.size() << '\n';
  std::cout << "  mean " << num(sum / static_cast<double>(values.size()))
            << '\n';
  std::cout << "  min " << num(values.front()) << '\n';
  std::cout << "  p50 " << num(order_stat(0.50)) << '\n';
  std::cout << "  p90 " << num(order_stat(0.90)) << '\n';
  std::cout << "  p99 " << num(order_stat(0.99)) << '\n';
  std::cout << "  max " << num(values.back()) << '\n';
  return kExitOk;
}

int cmd_stages(const std::string& text) {
  // The span profile is a footer: take the last matching line.
  const std::vector<std::string> lines = split_lines(text);
  std::int64_t skipped = 0;
  for (auto it = lines.rbegin(); it != lines.rend(); ++it) {
    JsonValue value;
    try {
      value = coca::obs::parse_json(*it);
    } catch (const std::exception&) {
      ++skipped;
      continue;
    }
    if (classify(value) != LineKind::kSpanProfile) continue;
    report_skipped(skipped);
    const std::string err = validate_line(value, LineKind::kSpanProfile);
    if (!err.empty()) {
      std::cout << "span profile: " << err << '\n';
      return kExitFail;
    }
    struct Row {
      std::string path;
      std::int64_t count = 0;
      double total_ms = 0.0;
      double self_ms = 0.0;
    };
    std::vector<Row> rows;
    double self_sum = 0.0;
    for (const JsonValue& span : value.at("spans").as_array()) {
      Row row;
      row.path = span.at("path").as_string();
      row.count = static_cast<std::int64_t>(span.at("count").as_double());
      row.total_ms = span.at("total_ms").as_double();
      row.self_ms = span.at("self_ms").as_double();
      self_sum += row.self_ms;
      rows.push_back(std::move(row));
    }
    // Hottest self-time first; ties (e.g. a fully masked profile) fall back
    // to path order so the report is deterministic either way.
    std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      if (a.self_ms != b.self_ms) return a.self_ms > b.self_ms;
      return a.path < b.path;
    });
    std::printf("%-48s %10s %12s %12s %7s\n", "path", "count", "total_ms",
                "self_ms", "self%");
    for (const Row& row : rows) {
      const double share =
          self_sum > 0.0 ? 100.0 * row.self_ms / self_sum : 0.0;
      std::printf("%-48s %10lld %12.3f %12.3f %6.1f%%\n", row.path.c_str(),
                  static_cast<long long>(row.count), row.total_ms, row.self_ms,
                  share);
    }
    return kExitOk;
  }
  report_skipped(skipped);
  std::cout << "no coca-span-profile-v1 line found\n";
  return kExitFail;
}

int cmd_diff(const std::string& a_text, const std::string& label_a,
             const std::string& b_text, const std::string& label_b) {
  const std::vector<std::string> a =
      split_lines(coca::obs::mask_timing_fields(a_text));
  const std::vector<std::string> b =
      split_lines(coca::obs::mask_timing_fields(b_text));
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) {
      std::cout << "diff at line " << i + 1 << " (timing masked):\n"
                << "  " << label_a << ": " << a[i] << '\n'
                << "  " << label_b << ": " << b[i] << '\n';
      return kExitFail;
    }
  }
  if (a.size() != b.size()) {
    std::cout << "diff: line counts differ (" << label_a << ": " << a.size()
              << ", " << label_b << ": " << b.size() << ")\n";
    return kExitFail;
  }
  std::cout << "identical after timing mask (" << a.size() << " lines)\n";
  return kExitOk;
}

int cmd_health_summary(const std::string& text, bool fail_on_unexpected,
                       const std::vector<std::string>& required_rules) {
  struct Key {
    std::string rule;
    std::string level;
    bool expected = false;
    bool operator<(const Key& other) const {
      if (rule != other.rule) return rule < other.rule;
      if (level != other.level) return level < other.level;
      return expected < other.expected;
    }
  };
  std::map<Key, std::int64_t> counts;
  std::int64_t info = 0, warn = 0, critical = 0, unexpected_paging = 0;
  // A torn line may have been a page: count it and fail, never drop it.
  std::int64_t torn = 0;
  for (const std::string& line : split_lines(text)) {
    JsonValue value;
    try {
      value = coca::obs::parse_json(line);
    } catch (const std::exception&) {
      ++torn;
      continue;
    }
    if (classify(value) != LineKind::kHealth) continue;
    if (!validate_line(value, LineKind::kHealth).empty()) {
      ++torn;
      continue;
    }
    Key key;
    key.rule = value.at("rule").as_string();
    key.level = value.at("level").as_string();
    key.expected = value.at("expected").as_bool();
    ++counts[key];
    if (key.level == "info") ++info;
    if (key.level == "warn") ++warn;
    if (key.level == "critical") ++critical;
    if (!key.expected && key.level != "info") ++unexpected_paging;
  }
  std::cout << "health events: info " << info << ", warn " << warn
            << ", critical " << critical << " (unexpected warn+critical: "
            << unexpected_paging << ")\n";
  for (const auto& [key, count] : counts) {
    std::cout << "  " << key.rule << " " << key.level
              << (key.expected ? " expected " : " ") << count << '\n';
  }
  int exit_code = kExitOk;
  for (const std::string& rule : required_rules) {
    bool found = false;
    for (const auto& [key, count] : counts) {
      if (key.rule == rule && count > 0) found = true;
    }
    if (!found) {
      std::cout << "required rule \"" << rule << "\" never fired\n";
      exit_code = kExitFail;
    }
  }
  if (fail_on_unexpected && unexpected_paging > 0) {
    std::cout << "gate: unexpected warn/critical events present\n";
    exit_code = kExitFail;
  }
  if (torn > 0) {
    std::cout << "gate: " << torn
              << " torn line(s) (unparsable, or health events off schema)\n";
    exit_code = kExitFail;
  }
  return exit_code;
}

#define SELF_CHECK(cond)                                               \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::cout << "self-test FAILED at " << __LINE__ << ": " << #cond \
                << '\n';                                               \
      return kExitFail;                                                \
    }                                                                  \
  } while (0)

int self_test() {
  // Fixture lines covering every schema, one of them deliberately broken.
  const std::string slot =
      "{\"t\":0,\"lambda\":10,\"price\":0.1,\"onsite_kw\":0,"
      "\"offsite_kwh\":0,\"q\":5,\"V\":100,\"active_servers\":2,"
      "\"mean_speed_level\":0,\"feasible\":true,\"brown_kwh\":1,"
      "\"electricity_cost\":0.1,\"delay_cost\":0,\"rec_cost\":0,"
      "\"total_cost\":0.1,\"evaluations\":0,\"acceptance_rate\":0,"
      "\"chains\":0,\"winning_chain\":-1,\"solve_ms\":1.25}";
  const std::string health =
      "{\"t\":3,\"rule\":\"queue_bound\",\"level\":\"critical\","
      "\"value\":9,\"limit\":4,\"expected\":false}";
  const std::string health_expected =
      "{\"t\":4,\"rule\":\"shed_rate\",\"level\":\"info\",\"value\":0.5,"
      "\"limit\":0,\"expected\":true}";
  const std::string des =
      "{\"t\":0,\"arrivals\":10,\"completions\":9,\"in_flight\":1,"
      "\"p50_s\":0.1,\"p99_s\":0.4,\"p999_s\":0.5}";
  const std::string profile =
      "{\"schema\":\"coca-span-profile-v1\",\"spans\":["
      "{\"path\":\"slot\",\"count\":4,\"total_ms\":2.5,\"self_ms\":0.5},"
      "{\"path\":\"slot/solve\",\"count\":4,\"total_ms\":2,\"self_ms\":2}]}";

  const std::string good =
      slot + "\n" + des + "\n" + health + "\n" + health_expected + "\n" +
      profile + "\n";
  SELF_CHECK(cmd_validate(good, "fixture") == kExitOk);
  SELF_CHECK(cmd_validate("{\"rule\":\"x\",\"level\":\"loud\",\"t\":1,"
                          "\"value\":1,\"limit\":1,\"expected\":false}",
                          "bad-level") == kExitFail);
  SELF_CHECK(cmd_validate("not json", "garbage") == kExitFail);

  SELF_CHECK(cmd_quantiles("total_cost", good) == kExitOk);
  SELF_CHECK(cmd_quantiles("no_such_field", good) == kExitFail);

  SELF_CHECK(cmd_stages(good) == kExitOk);
  SELF_CHECK(cmd_stages(slot) == kExitFail);

  // Timing-masked diff: the same trace with a different solve_ms is
  // identical; a changed deterministic field is not.
  std::string other = slot;
  const std::size_t ms = other.find("\"solve_ms\":1.25");
  other.replace(ms, std::string("\"solve_ms\":1.25").size(),
                "\"solve_ms\":9.75");
  SELF_CHECK(cmd_diff(slot + "\n", "a", other + "\n", "b") == kExitOk);
  std::string drift = slot;
  const std::size_t q = drift.find("\"q\":5");
  drift.replace(q, std::string("\"q\":5").size(), "\"q\":6");
  SELF_CHECK(cmd_diff(slot + "\n", "a", drift + "\n", "b") == kExitFail);
  // A timing-ruled health event exists only because of wall-clock behavior;
  // the mask drops the line, so its presence must not register as drift.
  const std::string timing_event =
      "{\"t\":1,\"rule\":\"solve_time_anomaly\",\"level\":\"info\","
      "\"value_ms\":42,\"limit_ms\":7,\"expected\":false}";
  SELF_CHECK(cmd_diff(slot + "\n" + timing_event + "\n", "a", slot + "\n",
                      "b") == kExitOk);

  SELF_CHECK(cmd_health_summary(good, false, {}) == kExitOk);
  SELF_CHECK(cmd_health_summary(good, true, {}) == kExitFail);
  SELF_CHECK(cmd_health_summary(health_expected + "\n", true, {}) == kExitOk);
  SELF_CHECK(cmd_health_summary(good, false, {"queue_bound"}) == kExitOk);
  SELF_CHECK(cmd_health_summary(good, false, {"no_rule"}) == kExitFail);
  // A queue_bound page torn mid-write (closing brace lost) must fail the
  // summary, with or without the unexpected-event gate.
  const std::string torn_page =
      slot + "\n" + health.substr(0, health.size() - 1) + "\n";
  SELF_CHECK(cmd_health_summary(torn_page, true, {}) == kExitFail);
  SELF_CHECK(cmd_health_summary(torn_page, false, {}) == kExitFail);
  // quantiles and stages still skim a torn file.
  SELF_CHECK(cmd_quantiles("total_cost", torn_page) == kExitOk);
  SELF_CHECK(cmd_stages(torn_page + profile + "\n") == kExitOk);

  std::cout << "obs_query self-test: OK\n";
  return kExitOk;
}

int usage() {
  std::cout
      << "usage:\n"
         "  obs_query stages <file>\n"
         "  obs_query quantiles <field> <file>\n"
         "  obs_query validate <file>\n"
         "  obs_query diff <a> <b>\n"
         "  obs_query health-summary <file> [--fail-on-unexpected]"
         " [--require RULE]...\n"
         "  obs_query --self-test\n";
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty()) return usage();
    const std::string& command = args[0];
    if (command == "--self-test") return self_test();
    if (command == "stages" && args.size() == 2) {
      return cmd_stages(read_file(args[1]));
    }
    if (command == "quantiles" && args.size() == 3) {
      return cmd_quantiles(args[1], read_file(args[2]));
    }
    if (command == "validate" && args.size() == 2) {
      return cmd_validate(read_file(args[1]), args[1]);
    }
    if (command == "diff" && args.size() == 3) {
      return cmd_diff(read_file(args[1]), args[1], read_file(args[2]),
                      args[2]);
    }
    if (command == "health-summary" && args.size() >= 2) {
      bool fail_on_unexpected = false;
      std::vector<std::string> required;
      for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "--fail-on-unexpected") {
          fail_on_unexpected = true;
        } else if (args[i] == "--require" && i + 1 < args.size()) {
          required.push_back(args[++i]);
        } else {
          return usage();
        }
      }
      return cmd_health_summary(read_file(args[1]), fail_on_unexpected,
                                required);
    }
    return usage();
  } catch (const std::exception& error) {
    std::cerr << error.what() << '\n';
    return kExitFail;
  }
}
