#include "obs/tail_histogram.hpp"

#include <cmath>
#include <stdexcept>

namespace coca::obs {

namespace {

std::size_t binned_count(const TailHistogram::Config& config) {
  if (config.max_exponent <= config.min_exponent ||
      config.bins_per_octave == 0) {
    throw std::invalid_argument("TailHistogram: bad exponent range/bins");
  }
  const auto octaves =
      static_cast<std::size_t>(config.max_exponent - config.min_exponent);
  return octaves * config.bins_per_octave;
}

bool same_config(const TailHistogram::Config& a,
                 const TailHistogram::Config& b) {
  return a.min_exponent == b.min_exponent &&
         a.max_exponent == b.max_exponent &&
         a.bins_per_octave == b.bins_per_octave;
}

}  // namespace

TailHistogram::TailHistogram(const Config& config)
    : config_(config), counts_(binned_count(config) + 2, 0) {}

std::size_t TailHistogram::bin_index(double value) const {
  // Bin 0: underflow (v < 2^min_exponent, incl. zero/negative/NaN).
  // Bin counts_.size()-1: overflow (v >= 2^max_exponent).
  if (!(value >= 0.0)) value = 0.0;
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // in [0.5, 1)
  // value = mantissa * 2^exponent = (2 * mantissa) * 2^(exponent - 1), with
  // 2 * mantissa in [1, 2): the octave is exponent - 1.
  const int octave = exponent - 1;
  if (value == 0.0 || octave < config_.min_exponent) return 0;
  if (octave >= config_.max_exponent) return counts_.size() - 1;
  const double normalized = 2.0 * mantissa;  // [1, 2)
  auto sub = static_cast<std::size_t>(
      (normalized - 1.0) * static_cast<double>(config_.bins_per_octave));
  if (sub >= config_.bins_per_octave) sub = config_.bins_per_octave - 1;
  const auto octave_index =
      static_cast<std::size_t>(octave - config_.min_exponent);
  return 1 + octave_index * config_.bins_per_octave + sub;
}

double TailHistogram::bin_upper_edge(std::size_t index) const {
  if (index == 0) return std::ldexp(1.0, config_.min_exponent);
  if (index >= counts_.size() - 1) {
    return std::ldexp(1.0, config_.max_exponent);
  }
  const std::size_t binned = index - 1;
  const auto octave = static_cast<int>(binned / config_.bins_per_octave);
  const std::size_t sub = binned % config_.bins_per_octave;
  const double normalized =
      1.0 + static_cast<double>(sub + 1) /
                static_cast<double>(config_.bins_per_octave);
  return std::ldexp(normalized, config_.min_exponent + octave);
}

void TailHistogram::record(double value) {
  ++counts_[bin_index(value)];
  ++total_;
}

void TailHistogram::add_to_bin(std::size_t index, std::uint64_t count) {
  counts_.at(index) += count;
  total_ += count;
}

void TailHistogram::merge(const TailHistogram& other) {
  if (!same_config(config_, other.config_)) {
    throw std::invalid_argument("TailHistogram::merge: config mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double TailHistogram::quantile(double p) const {
  if (total_ == 0) return 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the requested order statistic, at least the first.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(total_)));
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) return bin_upper_edge(i);
  }
  return bin_upper_edge(counts_.size() - 1);
}

}  // namespace coca::obs
