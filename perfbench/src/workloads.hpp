#pragma once
// The benchmark's four workloads.  Each builds its inputs from the workload
// seed in setup(), and each run() is one repetition of the timed work: the
// same calls, on the same inputs, every time.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "timed_controller.hpp"

namespace perfbench {

/// Everything one repetition produced.
struct RepResult {
  /// Deterministic program outputs (costs, brown energy, counts, simulated
  /// quantiles), compared bit for bit across repetitions, traced and
  /// untraced runs, and thread counts.
  std::vector<double> outputs;
  std::uint64_t digest = 0;  ///< executed allocations and replay bins
  double cost_usd_per_h = 0.0;  ///< COCA's average billed cost
  /// COCA's billed cost over the carbon-unaware baseline's on the same
  /// inputs (sim::Scenario::unaware_cost).
  double cost_vs_unaware = 0.0;
  double brown_use_pct = 0.0;   ///< COCA brown energy / allowance * 100
  std::int64_t decided_slots = 0;  ///< slots COCA was run for
  /// Slots whose planned capacity could not carry the actual load and
  /// needed the simulator's emergency capacity (shed slots included).
  std::int64_t infeasible_slots = 0;
  std::int64_t shed_slots = 0;  ///< slots that dropped load
  std::vector<std::string> check_failures;
  ControllerStats coca;  ///< every call into COCA controllers
  /// Per-layer wall times (s) and counts measured around module calls.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs (sim::build_scenario); this is what setup_s times.
  virtual void setup() = 0;
  /// One repetition on `threads` worker threads.
  virtual RepResult run(std::size_t threads) = 0;
  /// Worker threads of the timed repetitions; workloads with 2 are also
  /// run on 1 thread in the traced run (identity and scaling).
  virtual std::size_t threads() const { return 1; }
};

const std::vector<std::string>& workload_names();

/// Null for an unknown name.  `out_dir` receives written artifacts.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& out_dir);

}  // namespace perfbench
