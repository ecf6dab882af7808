// Tests for the observability layer: metrics registry semantics, the
// null-sink contract (no registry installed => helpers are no-ops), JSON
// rendering/parsing round-trips, slot-trace serialization and the
// BENCH_*.json reporter (consumed-as-written).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace coca::obs {
namespace {

TEST(ObsMetrics, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(ObsMetrics, GaugeTracksLastValueAndMax) {
  Gauge g;
  g.set(3.0);
  g.set(9.0);
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  EXPECT_DOUBLE_EQ(g.max(), 9.0);
}

TEST(ObsMetrics, HistogramSnapshotStatistics) {
  Histogram h;
  h.record(2.0);
  h.record(8.0);
  h.record(5.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_DOUBLE_EQ(snap.sum, 15.0);
  EXPECT_DOUBLE_EQ(snap.min, 2.0);
  EXPECT_DOUBLE_EQ(snap.max, 8.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 5.0);
}

TEST(ObsMetrics, RegistryFindOrCreateIsStable) {
  Registry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);  // same instrument, cacheable reference
  a.add(7);
  EXPECT_EQ(registry.counter_value("x"), 7);
  EXPECT_EQ(registry.counter_value("never-created"), 0);
}

TEST(ObsMetrics, HelpersAreNoOpsWithoutGlobalRegistry) {
  ASSERT_EQ(global(), nullptr) << "tests assume the default null sink";
  // Must not crash, allocate a registry, or otherwise observably act.
  count("nobody.listens");
  gauge_set("nobody.listens", 1.0);
  observe("nobody.listens", 1.0);
  { ScopedTimer timer("nobody.listens"); }
  EXPECT_EQ(global(), nullptr);
}

TEST(ObsMetrics, GlobalRegistryScopeInstallsAndRestores) {
  Registry registry;
  {
    GlobalRegistryScope scope(&registry);
    ASSERT_EQ(global(), &registry);
    count("scoped.events", 2);
    gauge_set("scoped.level", 4.5);
    observe("scoped.sample", 1.25);
    { ScopedTimer timer("scoped.timer_ms"); }
  }
  EXPECT_EQ(global(), nullptr);  // restored
#if defined(COCA_OBS_DISABLED)
  // Built with COCA_OBS=OFF: the free helpers compile to nothing, so the
  // installed registry must have seen no traffic at all.
  EXPECT_EQ(registry.counter_value("scoped.events"), 0);
#else
  EXPECT_EQ(registry.counter_value("scoped.events"), 2);
  EXPECT_DOUBLE_EQ(registry.gauge("scoped.level").value(), 4.5);
  EXPECT_EQ(registry.histogram("scoped.sample").snapshot().count, 1);
  const auto timer = registry.histogram("scoped.timer_ms").snapshot();
  EXPECT_EQ(timer.count, 1);
  EXPECT_GE(timer.min, 0.0);
#endif
}

TEST(ObsMetrics, ConcurrentRecordingIsSafe) {
  // The registry's thread-safety contract, exercised under TSan in the
  // sanitizer presets: concurrent counts/gauges/observes through the global
  // helpers lose nothing and tear nothing.
  Registry registry;
  GlobalRegistryScope scope(&registry);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([] {
      for (int j = 0; j < kPerThread; ++j) {
        count("mt.events");
        gauge_set("mt.gauge", static_cast<double>(j));
        observe("mt.sample", static_cast<double>(j));
      }
    });
  }
  for (auto& worker : workers) worker.join();
#if !defined(COCA_OBS_DISABLED)
  EXPECT_EQ(registry.counter_value("mt.events"), kThreads * kPerThread);
  EXPECT_EQ(registry.histogram("mt.sample").snapshot().count,
            kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(registry.gauge("mt.gauge").max(), kPerThread - 1.0);
#endif
}

TEST(ObsMetrics, RegistryToJsonIsSortedAndParseable) {
  Registry registry;
  registry.counter("b.second").add(2);
  registry.counter("a.first").add(1);
  registry.gauge("g").set(3.5);
  registry.histogram("h").record(7.0);
  const std::string json = registry.to_json();
  EXPECT_LT(json.find("a.first"), json.find("b.second"));  // name-sorted
  const JsonValue doc = parse_json(json);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("a.first").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("g").at("value").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(doc.at("histograms").at("h").at("sum").as_double(), 7.0);
}

TEST(ObsJson, EscapeAndNumberRendering) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(std::int64_t{42}), "42");
  // Non-finite values must not produce invalid JSON.
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(ObsJson, ParseRoundTrip) {
  const JsonValue doc = parse_json(
      R"({"s":"hi","n":2.5,"b":true,"z":null,"a":[1,2],"o":{"k":-3}})");
  EXPECT_EQ(doc.at("s").as_string(), "hi");
  EXPECT_DOUBLE_EQ(doc.at("n").as_double(), 2.5);
  EXPECT_TRUE(doc.at("b").as_bool());
  EXPECT_TRUE(doc.at("z").is_null());
  ASSERT_EQ(doc.at("a").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.at("a").as_array()[1].as_double(), 2.0);
  EXPECT_DOUBLE_EQ(doc.at("o").at("k").as_double(), -3.0);
  EXPECT_FALSE(doc.contains("missing"));
  EXPECT_THROW(doc.at("missing"), std::runtime_error);
  EXPECT_THROW(doc.at("s").as_double(), std::runtime_error);
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json(""), std::runtime_error);
}

TEST(ObsJson, ParseRejectsExcessiveNestingWithByteOffset) {
  // Deep nesting used to recurse until the stack overflowed; now it fails
  // like any other malformed document, at the offending container's byte.
  const std::string deep = std::string(100000, '[') + std::string(100000, ']');
  try {
    parse_json(deep);
    FAIL() << "100000-deep array parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte 256"), std::string::npos)
        << e.what();
  }

  // The limit is 256 open containers: 256 parse, 257 do not.
  const JsonValue ok =
      parse_json(std::string(256, '[') + std::string(256, ']'));
  EXPECT_TRUE(ok.is_array());
  EXPECT_THROW(parse_json(std::string(257, '[') + std::string(257, ']')),
               std::runtime_error);
  std::string objects;
  for (int i = 0; i < 257; ++i) objects += R"({"k":)";
  objects += "0" + std::string(257, '}');
  EXPECT_THROW(parse_json(objects), std::runtime_error);
}

TEST(ObsJson, ParseRejectsOversizedDocumentWithByteOffset) {
  // A document over the 1 MiB limit fails before any of it is parsed, at the
  // first byte past the limit; one at the limit still parses.
  constexpr std::size_t kLimit = std::size_t{1} << 20;
  const std::string at_limit = '"' + std::string(kLimit - 2, 'a') + '"';
  EXPECT_EQ(parse_json(at_limit).as_string().size(), kLimit - 2);
  try {
    parse_json('"' + std::string(kLimit - 1, 'a') + '"');
    FAIL() << "a document over the size limit parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte 1048576"), std::string::npos)
        << e.what();
  }
  // Whitespace counts too: the limit is on the document, not its values.
  EXPECT_THROW(parse_json("0" + std::string(kLimit, ' ')), std::runtime_error);
}

TEST(ObsTrace, JsonLineHasFixedKeyOrderAndParses) {
  SlotTrace slot;
  slot.t = 3;
  slot.lambda = 120.5;
  slot.price = 0.06;
  slot.q = 42.0;
  slot.v = 1e4;
  slot.rec_cost = 0.25;
  slot.solve_ms = 1.5;
  const std::string line = to_json_line(slot);
  EXPECT_LT(line.find("\"t\""), line.find("\"lambda\""));
  EXPECT_LT(line.find("\"lambda\""), line.find("\"q\""));
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const JsonValue doc = parse_json(line);
  EXPECT_DOUBLE_EQ(doc.at("t").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("q").as_double(), 42.0);
  EXPECT_DOUBLE_EQ(doc.at("rec_cost").as_double(), 0.25);
  EXPECT_DOUBLE_EQ(doc.at("solve_ms").as_double(), 1.5);
}

TEST(ObsTrace, WriterEmitsOneLinePerSlotInOrder) {
  SlotTraceWriter writer;
  for (std::size_t t = 0; t < 3; ++t) {
    SlotTrace slot;
    slot.t = t;
    writer.record(slot);
  }
  EXPECT_EQ(writer.size(), 3u);
  const std::string jsonl = writer.to_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t expected_t = 0;
  while (std::getline(lines, line)) {
    EXPECT_DOUBLE_EQ(parse_json(line).at("t").as_double(),
                     static_cast<double>(expected_t++));
  }
  EXPECT_EQ(expected_t, 3u);
  writer.clear();
  EXPECT_EQ(writer.size(), 0u);
}

TEST(ObsTrace, MaskTimingFieldsZeroesOnlySolveMs) {
  SlotTrace slot;
  slot.total_cost = 9.75;
  slot.solve_ms = 123.456;
  SlotTraceWriter writer;
  writer.record(slot);
  slot.solve_ms = 0.125;  // a "different thread count" timing
  SlotTraceWriter other;
  other.record(slot);
  EXPECT_NE(writer.to_jsonl(), other.to_jsonl());
  const std::string masked = mask_timing_fields(writer.to_jsonl());
  EXPECT_EQ(masked, mask_timing_fields(other.to_jsonl()));
  const JsonValue doc = parse_json(masked.substr(0, masked.find('\n')));
  EXPECT_DOUBLE_EQ(doc.at("solve_ms").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(doc.at("total_cost").as_double(), 9.75);  // untouched
}

TEST(ObsBench, ReportWritesAndParsesAsWritten) {
  BenchReport report("unit");
  BenchResult r;
  r.name = "sweep_scaling_4_threads";
  r.wall_s = 1.25;
  r.evals_per_sec = 8000.0;
  r.objective = 1.0e6;
  r.meta["threads"] = 4.0;
  r.meta["deterministic"] = 1.0;
  report.add(r);

  const std::string path =
      testing::TempDir() + "/BENCH_obs_test_roundtrip.json";
  EXPECT_EQ(report.write(path), path);
  const BenchReport parsed = BenchReport::parse_file(path);
  EXPECT_EQ(parsed.suite(), "unit");
  ASSERT_EQ(parsed.results().size(), 1u);
  const BenchResult& p = parsed.results()[0];
  EXPECT_EQ(p.name, r.name);
  EXPECT_DOUBLE_EQ(p.wall_s, r.wall_s);
  EXPECT_DOUBLE_EQ(p.evals_per_sec, r.evals_per_sec);
  EXPECT_DOUBLE_EQ(p.objective, r.objective);
  EXPECT_EQ(p.meta, r.meta);
  std::remove(path.c_str());
}

TEST(ObsBench, ParseRejectsWrongSchema) {
  EXPECT_THROW(
      BenchReport::parse(R"({"schema":"not-bench","suite":"x","results":[]})"),
      std::runtime_error);
  EXPECT_THROW(BenchReport::parse("[]"), std::runtime_error);
}

TEST(ObsBench, ValidateAcceptsWellFormedReport) {
  BenchReport report("suite");
  BenchResult r;
  r.name = "point_0";
  r.objective = 1.5;
  r.meta["groups"] = 8.0;
  report.add(r);
  EXPECT_TRUE(report.validate().empty());
}

TEST(ObsBench, ValidateRejectsEmptyAndDuplicateNames) {
  BenchReport empty_suite("");
  EXPECT_FALSE(empty_suite.validate().empty());  // empty suite + no results

  BenchReport report("suite");
  BenchResult unnamed;
  report.add(unnamed);  // empty result name
  BenchResult dup;
  dup.name = "twice";
  report.add(dup);
  report.add(dup);  // duplicate
  const auto problems = report.validate();
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_NE(problems[0].find("empty result name"), std::string::npos);
  EXPECT_NE(problems[1].find("duplicate result name 'twice'"),
            std::string::npos);
}

TEST(ObsBench, ValidateRejectsNonFiniteValues) {
  BenchReport report("suite");
  BenchResult r;
  r.name = "bad";
  r.objective = std::numeric_limits<double>::quiet_NaN();
  r.meta["ratio"] = std::numeric_limits<double>::infinity();
  report.add(r);
  const auto problems = report.validate();
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_NE(problems[0].find("non-finite objective"), std::string::npos);
  EXPECT_NE(problems[1].find("non-finite meta 'ratio'"), std::string::npos);
}

TEST(ObsBench, DefaultPathHonoursEnvDir) {
  BenchReport report("suite_name");
  // Without the env var the file lands in the working directory.
  unsetenv("COCA_BENCH_JSON_DIR");
  EXPECT_EQ(report.default_path(), "./BENCH_suite_name.json");
  setenv("COCA_BENCH_JSON_DIR", "/tmp/bench-out", 1);
  EXPECT_EQ(report.default_path(), "/tmp/bench-out/BENCH_suite_name.json");
  unsetenv("COCA_BENCH_JSON_DIR");
}

}  // namespace
}  // namespace coca::obs
