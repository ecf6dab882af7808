#pragma once
// The online-controller interface shared by COCA and all baselines.
//
// A controller sees, at the start of slot t, exactly what the paper's
// Algorithm 1 sees — lambda(t), r(t), w(t) — and returns a full slot
// decision.  After the slot it observes what it is billed (including any
// switching energy) and the realized off-site renewables f(t), which is how
// COCA's deficit queue learns without foresight.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "opt/ladder_solver.hpp"

namespace coca::core {

/// Post-slot controller state for observability (sim/simulator threads it
/// into sim::Metrics and the obs::SlotTraceWriter).  Purely diagnostic:
/// nothing here feeds back into any decision.
struct SlotDiagnostics {
  double queue_length = 0.0;    ///< carbon-deficit queue after the slot
  double v = 0.0;               ///< cost-carbon parameter used this slot
  double rec_spend_total = 0.0; ///< cumulative dynamic REC spend so far ($)
  std::int64_t solver_evaluations = 0;  ///< P3 objective evaluations
  std::int64_t solver_accepted = 0;     ///< GSD exploration acceptances
  std::int64_t solver_chains = 0;       ///< GSD chains merged (0: not GSD)
  std::int64_t solver_winning_chain = -1;
};

class SlotController {
 public:
  virtual ~SlotController() = default;

  virtual std::string name() const = 0;

  /// Decide capacity provisioning + load distribution for slot t.
  virtual opt::SlotSolution plan(std::size_t t, const opt::SlotInput& input) = 0;

  /// Feedback after the slot: the billed outcome (brown energy may include
  /// switching energy and reflects the *actual* workload) and the realized
  /// off-site renewable energy f(t) in kWh.
  // OBS-EXEMPT(default no-op hook; stateful controllers override and span)
  virtual void observe(std::size_t t, const opt::SlotOutcome& billed,
                       double offsite_kwh) {
    (void)t;
    (void)billed;
    (void)offsite_kwh;
  }

  /// Diagnostic hook: controllers with a deficit queue report its length so
  /// the simulator can record it; stateless controllers report 0.
  virtual double diagnostic_queue_length() const { return 0.0; }

  /// Full observability snapshot for slot `t` (called after observe()).
  /// The default covers stateless controllers; controllers with richer
  /// internals (COCA, dynamic RECs) override it.
  virtual SlotDiagnostics diagnostics(std::size_t t) const {
    (void)t;
    SlotDiagnostics d;
    d.queue_length = diagnostic_queue_length();
    return d;
  }

  // --- Degraded-mode hooks (driven by src/fault via sim/simulator) ---------

  /// Re-seat the controller on a (possibly degraded) fleet mid-run: capacity
  /// changes, all learned state (queue, ledgers) carries over.  The fleet
  /// must keep the same group structure and outlive the next plan() call.
  /// Controllers that cannot re-plan against a changed fleet (offline /
  /// lookahead baselines precompute against the full fleet) keep this
  /// default, which refuses loudly instead of silently mis-planning.
  virtual void set_fleet(const dc::Fleet& fleet) {
    (void)fleet;
    throw std::logic_error(name() + ": fleet hot-swap not supported");
  }

  /// Deadline-overrun hook: cap the next plan() at `max_evaluations` P3
  /// objective evaluations (anytime operation — the solver returns its
  /// best-feasible-so-far).  Negative lifts the cap.  The default ignores
  /// the cap, which is conformant for solvers that always finish within one
  /// evaluation (ladder, closed-form baselines); a budget of 0 never reaches
  /// the controller — the simulator skips the solve and actuates its
  /// fallback instead.
  virtual void set_evaluation_budget(std::int64_t max_evaluations) {
    (void)max_evaluations;
  }

  /// Crash/restart support: controllers that can serialize their state into
  /// a coca-ckpt-v2 blob (see core/checkpoint.hpp) return true and implement
  /// the pair below.  `checkpoint(t)` captures the state after slots [0, t);
  /// `restore` replaces the controller's state with the blob's.
  virtual bool supports_checkpoint() const { return false; }
  virtual std::string checkpoint(std::size_t upto_slot) const {
    (void)upto_slot;
    throw std::logic_error(name() + ": checkpointing not supported");
  }
  virtual void restore(const std::string& blob) {
    (void)blob;
    throw std::logic_error(name() + ": checkpointing not supported");
  }
};

}  // namespace coca::core
