#pragma once
// Incremental load-LP engine for the per-slot sweeps.
//
// `balance_loads` (opt/load_balancer.hpp) is the *reference* dual
// water-filling solver: it rebuilds the active server classes, re-derives the
// nu bracket and re-runs the whole bisection from scratch on every call.
// GSD's Gibbs sweep calls it once per candidate even though a move flips a
// single group's speed level or active count — the span profiler shows
// `span:slot/gsd_chain/sweep_iter/load_lp` dominating slot time.
//
// LoadLpContext caches, per solver chain, everything a candidate solve can
// reuse:
//   * the fleet's per-(group, level) terms (service rate, facility dynamic
//     slope, gamma cap, bracket denominators), fetched once and refreshed
//     only when the weights' pue/gamma change;
//   * SoA (structure-of-arrays) scratch for the active classes, so the
//     clamp/sqrt best response evaluates element-wise over contiguous arrays
//     and vectorizes (the per-class invariants mu*c, V*beta/x and V*beta*x
//     are hoisted out of the bisection loop);
//   * the dual point of the last solve — clearing price nu, regime branch,
//     effective price mu — keyed by the (input, weights) pair;
//   * an exact memo of previously solved configurations, so re-evaluating
//     the kept configuration (GSD line 8) is a lookup, not a solve.
//
// Exactness contract:
//   * Cold solves — the first solve() for an (input, weights) pair, a
//     capacity-short candidate, or any warm check that fails — run the
//     reference regime order (A -> B -> boundary) with the canonical nu
//     bisection, so they are bit-for-bit identical to `balance_loads`.
//     So is every solve_linear() call (the ladder's and the capped solvers'
//     entry point), and a memo hit replays its stored result bit-for-bit.
//   * Warm solves (every later candidate of the slot — GSD's Gibbs sweep)
//     re-clear nu from the cached dual point with a bracket-safeguarded
//     Newton iteration: the gap's analytic derivative rides the same fused
//     SoA pass, and a single-flip patch seeds the first iterate analytically,
//     so a few gap evaluations replace the ~31-step canonical bisection.  The
//     [p - r]^+ kink regime is revalidated cheaply by re-checking the cached
//     branch first, with the cold sequence as the fallback when it flips.
//     Results agree with the reference to the clearing tolerance: the
//     served load clears lambda to the reference's own 1e-9 relative
//     tolerance, objectives and nu agree to 1e-6 relative (DESIGN.md
//     "Incremental dual-point cache").
//
// Every solve is wrapped in a `load_lp_warm` or `load_lp_cold` span:
// warm = the cached dual point was valid for this (input, weights) pair
// (i.e. any solve after the first of a slot), cold = first solve or an
// input/weights change invalidated the cache.  Span counts stay a pure
// function of the inputs (contexts are per-chain), preserving the repo-wide
// determinism contract.

#include <cstdint>
#include <limits>
#include <vector>

#include "opt/load_balancer.hpp"
#include "opt/slot_problem.hpp"

namespace coca::opt {

/// Deterministic counters (pure function of the solve sequence).
struct LoadLpStats {
  std::int64_t solves = 0;        ///< kinked solves (solve() calls)
  std::int64_t warm = 0;          ///< solves with a valid cached dual point
  std::int64_t cold = 0;          ///< solves that started from scratch
  std::int64_t memo_hits = 0;     ///< exact-duplicate configurations
  std::int64_t regime_flips = 0;  ///< warm regime invalidated -> fallback
  std::int64_t nu_iterations = 0; ///< total inner bisection iterations
};

/// Reusable solver state for repeated load-LP solves against one fleet.
/// Not thread-safe: use one context per chain/thread (GSD does).
class LoadLpContext {
 public:
  explicit LoadLpContext(const dc::Fleet& fleet);

  /// Drop-in for `balance_loads`: reads levels/active counts of `alloc`,
  /// overwrites loads, handles the renewable kink.  Cold solves are
  /// bit-identical to the reference, warm ones agree to the documented
  /// epsilon (see file comment).  Throws std::out_of_range when `alloc` does
  /// not have one entry per fleet group or an active group's level is out of
  /// range; other out-of-spec allocations get the reference's outcome (or
  /// its exception).
  LoadBalanceResult solve(dc::Allocation& alloc, const SlotInput& input,
                          const SlotWeights& weights);

  /// Drop-in for `balance_loads_linear` (fixed effective price mu, no kink).
  /// Always canonical (bit-exact); the warm clearing only affects solve().
  /// Throws std::out_of_range like solve().
  double solve_linear(dc::Allocation& alloc, double lambda, double mu,
                      const SlotWeights& weights);

  /// Drop the cached dual point and memo (e.g. when the caller mutates the
  /// fleet).  Per-(group, level) tables are retained.
  void invalidate();

  const dc::Fleet& fleet() const { return *fleet_; }
  const LoadLpStats& stats() const { return stats_; }

 private:
  /// Rebuild the SoA class arrays for `alloc` from the cached tables.
  /// When the previous build's layout and class membership still match (the
  /// common single-group flip), the changed groups are patched in place
  /// instead of rebuilding — the patched values come from the same table
  /// expressions, so the arrays are bit-identical to a fresh build.
  /// `dead_lanes` picks the layout (see `dead_lanes_`).  Both paths check
  /// each changed group's level before reading a table and keep the
  /// off-spec count current.
  void build_classes(const dc::Allocation& alloc, const SlotWeights& weights,
                     bool dead_lanes);
  /// Patch cls_* in place for groups whose (level, active) changed since the
  /// arrays were built.  Returns false (caller rebuilds) when the layout
  /// differs, the diff is too large to be worth patching, or — compacted
  /// layout only — a group joins or leaves the active set.
  bool try_patch_classes(const dc::Allocation& alloc, bool dead_lanes);
  void refresh_tables(const SlotWeights& weights);
  /// Throws std::out_of_range when an active group's level is out of range,
  /// the exception the reference's spec lookup throws.
  void check_level(std::size_t g, const dc::GroupAllocation& a) const;
  /// True for a group the lanes cannot score the way evaluate() does: a
  /// negative or (0, kTiny] active count, one above the server count, or an
  /// out-of-range level on an inactive group.
  bool off_spec(std::size_t g, const dc::GroupAllocation& a) const;
  /// The single evaluator: opt::evaluate() over the solved lanes of solve()'s
  /// dead-lane layout (every group, in group order; dead lanes add an exact
  /// +0.0), with identical expressions, check order and summation order, so
  /// its outcome is bit-for-bit the reference's.  It defers to evaluate()
  /// while any group is off-spec, when lambda <= kTiny (the lanes were not
  /// cleared) and on any failed check, so the diagnostic text (or throw) is
  /// exactly the reference's.
  SlotOutcome lane_outcome(const dc::Allocation& alloc, const SlotInput& input,
                           const SlotWeights& weights) const;
  /// Facility power for the regime checks and the boundary bisections: the
  /// evaluated outcome's own bits when feasible, the reference power model
  /// (`allocation_facility_kw`) otherwise.
  double facility_kw(const SlotOutcome& out, const dc::Allocation& alloc,
                     const SlotWeights& weights) const;
  /// Zero the loads and clear lambda over the built classes at price mu,
  /// scattering the loads back on success (see solve_linear_built).
  double clear_lambda(dc::Allocation& alloc, double lambda, double mu,
                      const SlotWeights& weights, double warm_nu);
  /// Linear solve over the already-built class arrays.  `warm_nu` = 0 runs
  /// the canonical bisection; `warm_nu` > 0 runs the bracket-safeguarded
  /// Newton clearing from it, with the canonical tolerances.
  double solve_linear_built(double lambda, double mu,
                            const SlotWeights& weights, double warm_nu);
  void scatter_loads(dc::Allocation& alloc) const;
  /// In-order active*cap sum over the built classes (cached per build).
  double built_capacity();
  double supply_gap(double nu, double lambda);
  /// supply_gap fused with its analytic nu-derivative (warm clearing):
  /// the responses written to cls_resp_ are bit-identical to supply_gap's.
  double supply_gap_grad(double nu, double lambda, double& grad);
  void settle_residual(double lambda);
  void greedy_fill(double lambda, double mu);
  /// Reference-order kinked solve (regimes A -> B -> boundary) over the
  /// built class arrays; identical decision sequence to `balance_loads`.
  LoadBalanceResult solve_cold(dc::Allocation& alloc, const SlotInput& input,
                               const SlotWeights& weights);
  LoadBalanceResult solve_warm(dc::Allocation& alloc, const SlotInput& input,
                               const SlotWeights& weights);
  bool cache_valid_for(const SlotInput& input,
                       const SlotWeights& weights) const;
  void remember(const dc::Allocation& alloc, const SlotInput& input,
                const SlotWeights& weights, const LoadBalanceResult& result);
  /// Memo keys cover only the allocation: the memo is consulted only while
  /// warm (same input/weights as the cached dual point) and cleared on every
  /// cold solve, so input and weights are invariant across entries.
  void memo_clear();
  /// Returns the entry index, or -1 when the configuration is not memoised.
  /// Compares stored keys bitwise against the allocation itself, so probing
  /// needs no materialised key vector.
  std::ptrdiff_t memo_find(std::uint64_t hash,
                           const dc::Allocation& alloc) const;
  /// Inserts the solved configuration; materialises the key only here.
  void memo_store(std::uint64_t hash, const LoadBalanceResult& result,
                  const dc::Allocation& alloc);

  const dc::Fleet* fleet_;
  LoadLpStats stats_;

  // Per-(group, level) tables, flattened with group offsets.  `rate_table_`
  // and `dyn_slope_table_` come straight from the specs (built once);
  // `slope_table_` (pue-scaled), `cap_table_` (gamma cap) and
  // `bracket_denom_table_` refresh when pue/gamma change.
  std::vector<std::size_t> level_offset_;
  std::vector<double> rate_table_;
  std::vector<double> dyn_slope_table_;
  std::vector<double> dyn_kw_table_;     ///< dynamic_power_kw per (g, level)
  std::vector<double> static_table_;     ///< static_power_kw per group
  std::vector<double> server_count_;     ///< server count per group
  std::vector<double> slope_table_;
  std::vector<double> cap_table_;
  std::vector<double> bracket_denom_table_;
  double tables_pue_ = -1.0;
  double tables_gamma_ = -1.0;

  // SoA scratch for the active classes of the current solve.  While a
  // solve() is in flight the allocation's levels/active counts are fixed, so
  // the class arrays are built once per solve() (the boundary regime's outer
  // bisection re-clears the same classes at every mu iterate).
  // Layout of the class arrays, chosen by the entry point that built them.
  // solve() keeps a +0.0-neutral dead lane per inactive group, so the GSD
  // sweep's membership flips stay patches (and keep the warm seed), and it
  // arms the seed after every clearing.  solve_linear() compacts inactive
  // groups away and skips the seed: the ladder's canonical bisections pay
  // per lane on every one of their ~40 iterations and never consume a seed.
  // Both layouts clear to the same bits.
  bool dead_lanes_ = false;
  // Delta-build state: `cls_key_` is the (level, active) key the class
  // arrays currently describe (empty = arrays invalid), `cls_index_` maps
  // group -> class index (-1 when inactive), `dirty_` lists the classes
  // patched since the per-solve invariants were last refreshed.
  std::vector<double> cls_key_;
  std::vector<std::int32_t> cls_index_;
  std::vector<std::int32_t> dirty_;
  bool dirty_all_ = true;
  // Per-group off_spec() flags of the arrays' allocation, and their count;
  // while the count is non-zero lane_outcome() defers to evaluate().
  std::vector<bool> off_spec_;
  int off_spec_groups_ = 0;
  double inv_mu_ = std::numeric_limits<double>::quiet_NaN();
  double inv_vbeta_ = std::numeric_limits<double>::quiet_NaN();
  // Analytic warm seed: the gap residual and gradient
  // captured at the last clearing price.  A class patch adjusts the residual
  // by the patched lanes' contribution delta at `seed_nu_`, so the next warm
  // solve can take one Newton step *before* its first gap evaluation.  The
  // seed only picks the Newton starting iterate — the bracket-safeguarded
  // loop still verifies the clearing tolerance with real evaluations.
  bool seed_valid_ = false;
  double seed_nu_ = -1.0;
  double seed_fx_ = 0.0;
  double seed_grad_ = 0.0;
  double seed_delta_ = 0.0;   ///< patched lanes' gap-contribution delta
  double seed_gdelta_ = 0.0;  ///< patched lanes' gradient-contribution delta
  double seed_lambda_ = -1.0;
  std::vector<std::size_t> cls_group_;
  std::vector<double> cls_rate_;
  std::vector<double> cls_slope_;
  std::vector<double> cls_active_;
  std::vector<double> cls_cap_;
  std::vector<double> cls_denom_;
  std::vector<double> cls_stat_;  ///< static power kw (per server)
  std::vector<double> cls_dyn_;   ///< dynamic power kw at the lane's level
  // Per-solve invariants (depend on mu and V*beta).
  std::vector<double> cls_ms_;   ///< mu * slope
  std::vector<double> cls_thr_;  ///< activation threshold mu*c + V*beta/x
  std::vector<double> cls_vbr_;  ///< V*beta * x
  std::vector<double> cls_ivbr_; ///< 1/(V*beta*x); steers gradients only
  std::vector<double> cls_hib_;  ///< per-class upper bracket bound
  std::vector<double> cls_resp_;
  std::vector<double> cls_gl_;   ///< gradient lanes (warm Newton scratch)
  std::vector<double> cls_load_;
  // Canonical (in-order) active*cap capacity of the built classes, computed
  // once per class-array generation and shared by the solve() pre-check and
  // solve_linear_built's feasibility gate (identical expression, so reuse is
  // bit-exact).
  double built_capacity_ = 0.0;
  bool capacity_ready_ = false;
  std::vector<std::size_t> order_;  ///< greedy_fill scratch

  // Cached dual point of the last kinked solve.
  bool cache_valid_ = false;
  SlotInput cached_input_;
  SlotWeights cached_weights_;
  double cached_nu_ = 0.0;
  double cached_mu_ = 0.0;
  PowerRegime cached_regime_ = PowerRegime::kGridDraw;
  bool cached_feasible_ = false;

  // Exact-duplicate memo (cleared on input/weights change): open-addressed
  // hash table over `memo_slots_` (entry indices, -1 = empty) so lookups
  // stay O(1) as the sweep fills the memo.  Entry storage is flat SoA —
  // keys and solved loads live in contiguous arrays at a fixed per-entry
  // stride — so probes touch two cache lines and clearing just resets
  // `memo_used_`; the steady-state sweep allocates nothing.
  std::size_t memo_used_ = 0;
  std::vector<std::uint64_t> memo_hashes_;
  std::vector<double> memo_keys_;    ///< flat, stride = 2 * groups
  std::vector<double> memo_loads_;   ///< flat, stride = groups
  std::vector<LoadBalanceResult> memo_results_;
  std::vector<std::int32_t> memo_slots_;
};

}  // namespace coca::opt
