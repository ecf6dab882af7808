#pragma once
// Sharded, parallel, request-level replay of COCA slot decisions.
//
// The fleet's server groups are partitioned round-robin into shards; each
// shard owns a private des::Engine with one representative M/G/1/PS server
// per resident group.  The controller's decisions are all recorded before
// the replay starts, so a shard never needs another shard's state: each
// shard replays the whole horizon as one util::ThreadPool task (the Wei &
// Neely asynchronous-control structure, where the slot is only a local
// decision epoch).  At each of its slot boundaries a shard applies the
// decisions to its own groups — speed x_i(t) via PsQueue::set_speed,
// per-server arrival rate via the load split — and runs its engine forward
// to the next boundary.  The only synchronization is the join at the end.
//
// Each shard owns one cache-line-aligned object: its engine, and its groups'
// queue, source and histogram by value in one heap block that only the
// shard's worker writes.  Two workers therefore never write to the same
// cache line.
// Once warm, the replay's hot path allocates nothing: the engine keeps its
// callbacks in a slot store and each queue its jobs in a flat heap.
//
// Determinism contract (mirrors the GSD/sweep substrate):
//   * group g draws from the independent stream stream_seed(seed, g), keyed
//     by *group* rather than shard, and groups never interact inside an
//     engine — so the replay is bit-identical across thread counts AND
//     across shard counts;
//   * per-request sojourn times stream into per-group obs::TailHistogram
//     bins (integer counts, exact merge), merged in group order; all
//     floating-point reductions run serially in group order;
//   * per-slot traces are integer tallies and sparse (bin, count) histogram
//     deltas recorded by each shard, summed in slot order after the join.
//
// Spans: `des_replay` wraps the run, and each shard's horizon task lands
// under `des_shard[s]` via the captured parent path.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dc/power_model.hpp"
#include "des/slot_replay.hpp"
#include "obs/exposition.hpp"
#include "obs/tail_histogram.hpp"
#include "util/thread_pool.hpp"

namespace coca::des {

struct ShardReplayConfig {
  std::size_t shards = 1;        ///< server-group partitions (round-robin)
  std::size_t threads = 0;       ///< 0 = COCA_THREADS env, else hardware
  double seconds_per_slot = 60.0;///< simulated seconds per COCA slot
  std::uint64_t seed = 9;
  obs::TailHistogram::Config histogram{};
  bool trace_slots = false;      ///< collect per-slot tail traces (JSONL)
  /// Give each shard a private obs::Registry populated with *group-keyed*
  /// instruments ("des.group[g].arrivals", ...).  Because groups partition
  /// round-robin, the names are disjoint across shards, so the merged
  /// snapshot (ShardReplayResult::registry) is bit-identical regardless of
  /// shard count and thread count — pinned by tests/obs_exposition_test.cpp.
  bool shard_registries = false;
};

inline constexpr const char* kDesTraceSchema = "coca-des-trace-v1";

/// One per-slot record of the request-level replay (schema
/// "coca-des-trace-v1"): request counts and the slot's sojourn-time
/// quantiles.  Every field is deterministic.
struct DesSlotTrace {
  std::size_t t = 0;
  std::uint64_t arrivals = 0;     ///< requests arriving during the slot
  std::uint64_t completions = 0;  ///< requests finishing during the slot
  std::uint64_t in_flight = 0;    ///< requests resident at the slot boundary
  double p50_s = 0.0;             ///< this slot's sojourn-time quantiles (s)
  double p99_s = 0.0;
  double p999_s = 0.0;
};

/// Render one record as a single JSON line (fixed key order, std::to_chars
/// number formatting — byte-identical across runs and thread counts).
std::string to_json_line(const DesSlotTrace& slot);

struct ShardReplayResult {
  obs::TailHistogram sojourn;          ///< merged across groups (exact)
  std::uint64_t requests = 0;          ///< arrivals replayed
  std::uint64_t completions = 0;
  std::uint64_t in_flight = 0;         ///< censored at the horizon
  double total_response_seconds = 0.0;
  double area_jobs = 0.0;              ///< sum of per-group occupancy integrals
  double duration_seconds = 0.0;       ///< simulated horizon
  std::vector<DesSlotTrace> slot_traces;  ///< when config.trace_slots
  /// When config.shard_registries: one snapshot per shard, in shard order,
  /// and their exact merge (obs/exposition.hpp semantics).
  std::vector<obs::RegistrySnapshot> shard_registry_snapshots;
  obs::RegistrySnapshot registry;

  double mean_response_seconds() const {
    return completions ? total_response_seconds /
                             static_cast<double>(completions)
                       : 0.0;
  }
  /// Fleet-wide mean requests in system (comparable to the analytic Eq. 4
  /// delay cost once scaled by servers per group).
  double mean_jobs_in_system() const {
    return duration_seconds > 0.0 ? area_jobs / duration_seconds : 0.0;
  }
  /// Sojourn-time quantile over every completed request (seconds).
  double quantile(double p) const { return sojourn.quantile(p); }
};

class ShardRunner {
 public:
  /// The runner keeps no per-replay state: replay() may be called several
  /// times (each call rebuilds queues and RNG streams from the seed).
  ShardRunner(const dc::Fleet& fleet, const ShardReplayConfig& config);

  std::size_t shard_count() const { return shards_; }
  std::size_t threads() const { return pool_.thread_count(); }

  /// Replay one allocation per slot.  Every allocation must match the
  /// fleet's group count, and every group decision must have finite,
  /// non-negative `active` and `load` and a `level` inside the group's spec;
  /// otherwise throws std::invalid_argument before simulating anything.
  ShardReplayResult replay(const std::vector<dc::Allocation>& decisions);

 private:
  const dc::Fleet* fleet_;
  ShardReplayConfig config_;
  std::size_t shards_;
  util::ThreadPool pool_;
};

}  // namespace coca::des
