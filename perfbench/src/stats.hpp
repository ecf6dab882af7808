#pragma once
// Sample statistics and the benchmark's metric table.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> values);

/// The tail rule: the highest percentile of the ladder 90, 99, 99.9, ...
/// that still has at least `min_beyond` samples above it (nearest rank).
/// Empty below 10 * min_beyond samples.
struct Tail {
  double percentile = 0.0;  ///< e.g. 99.9
  double value = 0.0;
  std::size_t n = 0;        ///< samples the percentile was taken over
};
std::optional<Tail> tail(std::vector<double> values,
                         std::size_t min_beyond = 10);

/// Seed of generator stream `stream` derived from the workload seed
/// (SplitMix64 finalizer over the mixed pair).
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream);

/// One reported metric, as BENCHMARK.json declares it.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
};

/// Printed with tracing off; every workload reports all of them.
const std::vector<MetricDef>& end_to_end_metrics();
/// Printed by the traced run (--trace 1); 0 where a workload never calls
/// the layer.
const std::vector<MetricDef>& per_layer_metrics();

/// True when `name` is 1-64 characters of [A-Za-z0-9_.-] and starts with a
/// letter or digit.
bool valid_metric_name(const std::string& name);
/// True when `unit` is 1-16 characters of [A-Za-z0-9_/%.-].
bool valid_unit(const std::string& unit);

}  // namespace perfbench
