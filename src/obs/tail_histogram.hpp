#pragma once
// Streaming log-linear histogram for per-request sojourn times.
//
// The sharded DES replays millions of individual requests; keeping every
// sojourn time would cost gigabytes, and classic streaming quantile sketches
// (GK, t-digest) are merge-order sensitive.  This histogram instead uses
// *fixed* bins derived from the IEEE-754 representation of the value — an
// exponent range with `bins_per_octave` linear sub-bins per power of two
// (HDR-histogram style).  Consequences:
//
//   * record() is O(1): one frexp plus integer arithmetic, no floating-point
//     log, so bin assignment is exact and identical on every platform;
//   * merge() adds integer bin counts — associative and commutative, so the
//     merged histogram is bit-identical regardless of shard count, thread
//     count or merge order (the determinism contract of des::ShardRunner);
//   * quantile(p) returns the *upper edge* of the bin holding the p-th
//     ranked request: a deterministic, conservative value with relative
//     error <= 1/bins_per_octave (~3% at the default 32).
//
// Values below/above the exponent range clamp into underflow/overflow bins
// so totals always balance (a requirement for exact cross-shard merges).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace coca::obs {

struct TailHistogramConfig {
  int min_exponent = -20;           ///< smallest power of two binned (~1 us)
  int max_exponent = 20;            ///< largest power of two binned (~12 days)
  std::size_t bins_per_octave = 32; ///< linear sub-bins per power of two
};

class TailHistogram {
 public:
  using Config = TailHistogramConfig;

  explicit TailHistogram(const Config& config = {});

  /// Record one nonnegative value (seconds).  Negative values clamp to 0.
  void record(double value);

  /// Add another histogram's counts into this one.  Both must share a
  /// config; throws std::invalid_argument otherwise.  Integer adds only, so
  /// merging is exact and order-independent.
  void merge(const TailHistogram& other);

  /// Add `count` records to bin `index` (a counts() index; out of range
  /// throws std::out_of_range).  Rebuilds a histogram from sparse
  /// (bin, count) deltas — per-slot tails from each shard's per-slot bin
  /// increases — with integer adds only, so the result is exact.
  void add_to_bin(std::size_t index, std::uint64_t count);

  /// Counts recorded so far (including under/overflow bins).
  std::uint64_t total() const { return total_; }

  /// Smallest binned value v with CDF(v) >= p (the upper edge of the bin
  /// containing the ceil(p * total)-th ranked request).  p is clamped to
  /// (0, 1]; returns 0 when the histogram is empty.
  double quantile(double p) const;

  const Config& config() const { return config_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  /// Upper edge of bin `index` (indices address counts(): [0] is the
  /// underflow bin, back() the overflow bin) — Prometheus bucket rendering.
  double upper_edge(std::size_t index) const { return bin_upper_edge(index); }

 private:
  std::size_t bin_index(double value) const;
  double bin_upper_edge(std::size_t index) const;

  Config config_;
  std::vector<std::uint64_t> counts_;  ///< [underflow, binned..., overflow]
  std::uint64_t total_ = 0;
};

}  // namespace coca::obs
