#include "des/shard_runner.hpp"

#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "des/job_source.hpp"
#include "des/ps_queue.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"

namespace coca::des {

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("COCA_THREADS")) {
    const unsigned long parsed = std::strtoul(env, nullptr, 10);
    if (parsed >= 1) return static_cast<std::size_t>(parsed);
  }
  return 0;  // ThreadPool picks one worker per hardware thread
}

/// Group-keyed instrument name, e.g. "des.group[7].arrivals".  Keying by
/// group (never by shard) is what keeps the names disjoint across shards
/// and the merged registry invariant to the shard layout.
std::string group_metric(std::size_t g, const char* suffix) {
  std::string name = "des.group[";
  name += std::to_string(g);
  name += "].";
  name += suffix;
  return name;
}

/// Cache-line size the shard layout aligns to.
constexpr std::size_t kCacheLine = 64;

/// Everything one representative server (group) owns during a replay.  The
/// engine's callbacks capture the queue and the source by address, so a
/// GroupSim is built in place and never moves.  The fields written per
/// request sit in the middle; the group index first and the trace
/// bookkeeping last are cold, so the ends of two shards' adjacent heap
/// blocks never carry hot writes.
struct GroupSim {
  GroupSim(Engine& engine, std::size_t group, double start_speed,
           double horizon, std::uint64_t seed,
           const obs::TailHistogram::Config& bins)
      : index(group),
        queue(engine, start_speed),
        source(engine, queue, 0.0, 1.0, horizon, seed),
        sojourn(bins) {
    queue.set_sojourn_sink(&sojourn);
  }
  GroupSim(const GroupSim&) = delete;
  GroupSim& operator=(const GroupSim&) = delete;

  std::size_t index;  ///< fleet group index
  PsQueue queue;
  JobSource source;
  obs::TailHistogram sojourn;
  /// Trace bookkeeping: totals and bin counts at the last slot boundary.
  std::uint64_t traced_arrivals = 0;
  std::uint64_t traced_completions = 0;
  std::vector<std::uint64_t> traced_counts;
};

/// One slot of one shard's trace: integer deltas over the shard's groups.
struct SlotTally {
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  std::uint64_t in_flight = 0;   ///< resident at the slot boundary
  std::size_t deltas_end = 0;    ///< end of this slot's run in Shard::deltas
};

struct BinDelta {
  std::size_t bin;
  std::uint64_t count;
};

/// A shard's whole replay state in one cache-line-aligned object, written
/// only by the worker running the shard's horizon task.
struct alignas(kCacheLine) Shard {
  Engine engine;
  /// Groups s, s + shards, ... in order, by value in one heap block.
  std::vector<std::optional<GroupSim>> groups;
  std::optional<obs::Registry> registry;
  std::vector<SlotTally> tallies;  ///< one per slot when tracing
  std::vector<BinDelta> deltas;    ///< each slot's non-zero bin increases

  /// Append slot t's tally: arrivals and completions since the previous
  /// boundary, residency now, and every bin whose count grew.
  void record_slot() {
    SlotTally tally;
    for (auto& group : groups) {
      const auto stats = group->queue.stats();
      tally.arrivals += stats.arrivals - group->traced_arrivals;
      tally.completions += stats.completions - group->traced_completions;
      tally.in_flight += group->queue.jobs_in_system();
      group->traced_arrivals = stats.arrivals;
      group->traced_completions = stats.completions;
      const auto& counts = group->sojourn.counts();
      auto& seen = group->traced_counts;
      seen.resize(counts.size(), 0);
      for (std::size_t bin = 0; bin < counts.size(); ++bin) {
        if (counts[bin] != seen[bin]) {
          deltas.push_back({bin, counts[bin] - seen[bin]});
          seen[bin] = counts[bin];
        }
      }
    }
    tally.deltas_end = deltas.size();
    tallies.push_back(tally);
  }

  /// Per-slot instruments: cumulative totals as gauges (merge = max
  /// recovers the final value), per-boundary occupancy as a histogram,
  /// recorded in slot order by the one worker that owns the group.
  void record_registry() {
    for (auto& group : groups) {
      const std::size_t g = group->index;
      const auto stats = group->queue.stats();
      registry->gauge(group_metric(g, "arrivals"))
          .set(static_cast<double>(stats.arrivals));
      registry->gauge(group_metric(g, "completions"))
          .set(static_cast<double>(stats.completions));
      registry->histogram(group_metric(g, "inflight_jobs"))
          .record(static_cast<double>(group->queue.jobs_in_system()));
      registry->counter(group_metric(g, "slot_boundaries")).add(1);
    }
  }
};

/// Reject a decision the replay cannot simulate, before any engine exists:
/// NaN or infinite rates would poison the clock or hang the job source.
void validate_decision(const dc::ServerGroup& hardware,
                       const dc::GroupAllocation& alloc, std::size_t t,
                       std::size_t g) {
  const auto finite_nonnegative = [](double x) {
    return x >= 0.0 && std::isfinite(x);
  };
  const char* problem = nullptr;
  if (!finite_nonnegative(alloc.active)) {
    problem = "active must be finite and >= 0";
  } else if (!finite_nonnegative(alloc.load)) {
    problem = "load must be finite and >= 0";
  } else if (alloc.level >= hardware.spec().level_count()) {
    problem = "level outside the group's spec";
  } else if (alloc.active > 0.0 && !std::isfinite(alloc.load / alloc.active)) {
    problem = "per-server rate load/active overflows";
  }
  if (problem != nullptr) {
    throw std::invalid_argument("ShardRunner::replay: slot " +
                                std::to_string(t) + ", group " +
                                std::to_string(g) + ": " + problem);
  }
}

/// Apply one group's slot decision at the boundary: speed via set_speed
/// (x_i(t)), per-server arrival rate via the load split.  Groups switched
/// off keep their last speed so in-flight requests drain.
void apply_decision(GroupSim& group, const dc::ServerGroup& hardware,
                    const dc::GroupAllocation& alloc) {
  if (alloc.active > 0.0 && alloc.load > 0.0) {
    const double speed = hardware.spec().level(alloc.level).service_rate;
    // Skip redundant speed changes: each one reschedules the departure.
    if (speed != group.queue.speed()) group.queue.set_speed(speed);
    group.source.set_rate(alloc.load / alloc.active);
  } else {
    group.source.set_rate(0.0);
  }
}

}  // namespace

std::string to_json_line(const DesSlotTrace& slot) {
  std::string out;
  out.reserve(160);
  const auto field = [&out](const char* key, const std::string& value) {
    out += key;
    out += value;
  };
  field("{\"t\":", obs::json_number(static_cast<std::int64_t>(slot.t)));
  field(",\"arrivals\":",
        obs::json_number(static_cast<std::int64_t>(slot.arrivals)));
  field(",\"completions\":",
        obs::json_number(static_cast<std::int64_t>(slot.completions)));
  field(",\"in_flight\":",
        obs::json_number(static_cast<std::int64_t>(slot.in_flight)));
  field(",\"p50_s\":", obs::json_number(slot.p50_s));
  field(",\"p99_s\":", obs::json_number(slot.p99_s));
  field(",\"p999_s\":", obs::json_number(slot.p999_s));
  out += '}';
  return out;
}

ShardRunner::ShardRunner(const dc::Fleet& fleet,
                         const ShardReplayConfig& config)
    : fleet_(&fleet),
      config_(config),
      shards_(config.shards == 0 ? 1 : config.shards),
      pool_(resolve_threads(config.threads)) {
  if (config_.seconds_per_slot <= 0.0) {
    throw std::invalid_argument("ShardRunner: seconds_per_slot must be > 0");
  }
  if (shards_ > fleet.group_count() && fleet.group_count() > 0) {
    shards_ = fleet.group_count();  // empty shards would only add tasks
  }
}

ShardReplayResult ShardRunner::replay(
    const std::vector<dc::Allocation>& decisions) {
  const obs::ScopedSpan replay_span("des_replay");
  const std::size_t group_count = fleet_->group_count();
  for (std::size_t t = 0; t < decisions.size(); ++t) {
    if (decisions[t].size() != group_count) {
      throw std::invalid_argument(
          "ShardRunner::replay: allocation size mismatch");
    }
    for (std::size_t g = 0; g < group_count; ++g) {
      validate_decision(fleet_->group(g), decisions[t][g], t, g);
    }
  }

  ShardReplayResult result;
  result.sojourn = obs::TailHistogram(config_.histogram);
  result.duration_seconds =
      static_cast<double>(decisions.size()) * config_.seconds_per_slot;
  if (decisions.empty() || group_count == 0) return result;

  // Build the per-shard engines and per-group simulations.  Group state
  // (queue, RNG stream, histogram) is keyed by group index, engines by
  // shard; groups never interact inside an engine, which is what makes the
  // replay invariant to the shard count as well as the thread count.
  std::vector<Shard> shards(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    shards[s].groups = std::vector<std::optional<GroupSim>>(
        (group_count - s + shards_ - 1) / shards_);
  }
  for (std::size_t g = 0; g < group_count; ++g) {
    Shard& shard = shards[g % shards_];
    // Start every server at its slowest positive speed; the first slot's
    // decision overrides it before any request arrives.
    shard.groups[g / shards_].emplace(
        shard.engine, g, fleet_->group(g).spec().level(0).service_rate,
        result.duration_seconds, stream_seed(config_.seed, g),
        config_.histogram);
  }
  for (Shard& shard : shards) {
    if (config_.shard_registries) shard.registry.emplace();
    if (config_.trace_slots) shard.tallies.reserve(decisions.size());
  }

  // One task per shard replays the whole horizon: the decisions are known
  // up front, so shards never wait for each other between slots.
  const std::string parent = obs::current_span_path();
  pool_.parallel_for(shards_, [&](std::size_t s) {
    const obs::ScopedSpan shard_span("des_shard[" + std::to_string(s) + "]",
                                     parent);
    Shard& shard = shards[s];
    for (std::size_t t = 0; t < decisions.size(); ++t) {
      for (auto& group : shard.groups) {
        apply_decision(*group, fleet_->group(group->index),
                       decisions[t][group->index]);
      }
      shard.engine.run_until(static_cast<double>(t + 1) *
                             config_.seconds_per_slot);
      if (shard.registry) shard.record_registry();
      if (config_.trace_slots) shard.record_slot();
    }
  });

  if (config_.trace_slots) {
    // Sum the shards' per-slot tallies and sparse bin deltas in slot order:
    // integer adds only, so per-slot quantiles inherit the exact-merge
    // determinism.
    result.slot_traces.reserve(decisions.size());
    std::vector<std::size_t> cursor(shards_, 0);
    for (std::size_t t = 0; t < decisions.size(); ++t) {
      obs::TailHistogram slot_hist(config_.histogram);
      DesSlotTrace trace;
      trace.t = t;
      for (std::size_t s = 0; s < shards_; ++s) {
        const SlotTally& tally = shards[s].tallies[t];
        trace.arrivals += tally.arrivals;
        trace.completions += tally.completions;
        trace.in_flight += tally.in_flight;
        for (; cursor[s] < tally.deltas_end; ++cursor[s]) {
          const BinDelta& delta = shards[s].deltas[cursor[s]];
          slot_hist.add_to_bin(delta.bin, delta.count);
        }
      }
      trace.p50_s = slot_hist.quantile(0.50);
      trace.p99_s = slot_hist.quantile(0.99);
      trace.p999_s = slot_hist.quantile(0.999);
      result.slot_traces.push_back(trace);
    }
  }

  // Final reduction, serially in group order (bit-identical regardless of
  // thread/shard layout).
  for (std::size_t g = 0; g < group_count; ++g) {
    const GroupSim& group = *shards[g % shards_].groups[g / shards_];
    result.sojourn.merge(group.sojourn);
    const auto stats = group.queue.stats();
    result.requests += stats.arrivals;
    result.completions += stats.completions;
    result.total_response_seconds += stats.total_response_seconds;
    result.area_jobs += stats.area_jobs;
    result.in_flight += group.queue.jobs_in_system();
  }
  if (config_.shard_registries) {
    result.shard_registry_snapshots.reserve(shards_);
    for (const Shard& shard : shards) {
      result.shard_registry_snapshots.push_back(
          obs::snapshot_registry(*shard.registry));
    }
    result.registry = obs::merge_snapshots(result.shard_registry_snapshots);
  }
  return result;
}

}  // namespace coca::des
