#include "timed_controller.hpp"

#include "spans.hpp"

namespace perfbench {

namespace {

/// Times one forwarded call into `seconds` and, when tracing, records it as
/// a span named `name`.
class CallTimer {
 public:
  CallTimer(const std::string& name, double& seconds)
      : seconds_(seconds), recorder_(active_recorder()), start_(now_ns()) {
    if (recorder_ != nullptr) index_ = recorder_->open(recorder_->intern(name));
  }
  ~CallTimer() {
    if (recorder_ != nullptr) recorder_->close(index_);
    seconds_ += elapsed_s();
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

  double elapsed_s() const {
    return static_cast<double>(now_ns() - start_) * 1e-9;
  }

 private:
  double& seconds_;
  SpanRecorder* recorder_;
  std::int64_t start_;
  int index_ = -1;
};

}  // namespace

TimedController::TimedController(coca::core::SlotController& inner,
                                 const std::string& layer,
                                 ControllerStats& stats)
    : inner_(inner),
      stats_(stats),
      plan_name_(layer + ".plan"),
      observe_name_(layer + ".observe"),
      checkpoint_name_(layer + ".checkpoint"),
      restore_name_(layer + ".restore") {}

coca::opt::SlotSolution TimedController::plan(
    std::size_t t, const coca::opt::SlotInput& input) {
  double seconds = 0.0;
  coca::opt::SlotSolution solution;
  {
    const CallTimer timer(plan_name_, seconds);
    solution = inner_.plan(t, input);
  }
  stats_.plan_s += seconds;
  stats_.plan_us.push_back(seconds * 1e6);
  return solution;
}

void TimedController::observe(std::size_t t,
                              const coca::opt::SlotOutcome& billed,
                              double offsite_kwh) {
  const CallTimer timer(observe_name_, stats_.observe_s);
  inner_.observe(t, billed, offsite_kwh);
  observed_ = true;
}

coca::core::SlotDiagnostics TimedController::diagnostics(std::size_t t) const {
  const coca::core::SlotDiagnostics diag = inner_.diagnostics(t);
  if (observed_) {
    stats_.evaluations += diag.solver_evaluations;
    stats_.accepted += diag.solver_accepted;
    observed_ = false;
  }
  return diag;
}

std::string TimedController::checkpoint(std::size_t upto_slot) const {
  std::string blob;
  {
    const CallTimer timer(checkpoint_name_, stats_.checkpoint_s);
    blob = inner_.checkpoint(upto_slot);
  }
  ++stats_.checkpoints;
  stats_.checkpoint_bytes += static_cast<std::int64_t>(blob.size());
  return blob;
}

void TimedController::restore(const std::string& blob) {
  const CallTimer timer(restore_name_, stats_.restore_s);
  inner_.restore(blob);
  ++stats_.restores;
}

}  // namespace perfbench
