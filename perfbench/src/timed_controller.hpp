#pragma once
// Pass-through timing decorator around core::SlotController.
//
// The simulator drives the decorator exactly as it drives the wrapped
// controller: every virtual forwards unchanged, so decisions, billing and
// checkpoints are bit-identical with and without it (pinned by
// perfbench/tests/selftest.cpp, including a crash/restore schedule).  Each
// plan/observe/checkpoint/restore call is timed with two clock reads, and
// becomes a span when the benchmark's recorder is on.

#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.hpp"

namespace perfbench {

/// What the decorator saw.  Times are wall seconds; plan latencies are kept
/// per call for the median/tail metrics.
struct ControllerStats {
  std::vector<double> plan_us;  ///< one entry per plan() call
  double plan_s = 0.0;
  double observe_s = 0.0;
  double checkpoint_s = 0.0;
  double restore_s = 0.0;
  std::int64_t checkpoints = 0;
  std::int64_t checkpoint_bytes = 0;
  std::int64_t restores = 0;
  /// diagnostics(t).solver_* summed once per slot.
  std::int64_t evaluations = 0;
  std::int64_t accepted = 0;
};

class TimedController final : public coca::core::SlotController {
 public:
  /// `layer` prefixes the span names ("core" gives core.plan, core.observe,
  /// core.checkpoint, core.restore).  `inner` and `stats` must outlive the
  /// decorator.
  TimedController(coca::core::SlotController& inner, const std::string& layer,
                  ControllerStats& stats);

  std::string name() const override { return inner_.name(); }
  coca::opt::SlotSolution plan(std::size_t t,
                               const coca::opt::SlotInput& input) override;
  void observe(std::size_t t, const coca::opt::SlotOutcome& billed,
               double offsite_kwh) override;
  double diagnostic_queue_length() const override {
    return inner_.diagnostic_queue_length();
  }
  coca::core::SlotDiagnostics diagnostics(std::size_t t) const override;
  void set_fleet(const coca::dc::Fleet& fleet) override {
    inner_.set_fleet(fleet);
  }
  void set_evaluation_budget(std::int64_t max_evaluations) override {
    inner_.set_evaluation_budget(max_evaluations);
  }
  bool supports_checkpoint() const override {
    return inner_.supports_checkpoint();
  }
  std::string checkpoint(std::size_t upto_slot) const override;
  void restore(const std::string& blob) override;

 private:
  coca::core::SlotController& inner_;
  ControllerStats& stats_;
  std::string plan_name_, observe_name_, checkpoint_name_, restore_name_;
  /// The simulator also calls diagnostics() before a slot to re-anchor REC
  /// spend after a restore; solver counts are taken only from the call that
  /// follows observe().
  mutable bool observed_ = false;
};

}  // namespace perfbench
