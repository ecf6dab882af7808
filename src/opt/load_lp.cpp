#include "opt/load_lp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/span.hpp"
#include "util/solvers.hpp"

namespace coca::opt {
namespace {

// Positive floor for the masked-out lanes of the response kernel: selected
// lanes (nu above the activation threshold) always have nu - mu*c >
// V*beta/x >> this, so flooring never perturbs a selected value; it only
// keeps the speculative divide on unselected lanes well defined.
constexpr double kDenomFloor = std::numeric_limits<double>::min();

// The memo's value is recency-driven (GSD revisits the kept configuration
// and near-past flips), so a small pool that stays resident in L2 beats a
// large one: store/probe touch hot lines instead of missing on every row.
constexpr std::size_t kMemoCapacity = 64;
constexpr std::size_t kMemoSlots = 256;  // power of two, 4x capacity

std::uint64_t fnv1a_alloc(const dc::Allocation& alloc) {
  // Four-lane FNV-1a over the allocation's interleaved (level, active)
  // doubles — the same word stream memo entries store as their key —
  // fused so the per-solve probe needs no materialised key.
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h[4] = {1469598103934665603ull, 0x9e3779b97f4a7c15ull,
                        0xc2b2ae3d27d4eb4full, 0x165667b19e3779f9ull};
  const std::size_t groups = alloc.size();
  std::size_t g = 0;
  for (; g + 2 <= groups; g += 2) {
    const double d0 = static_cast<double>(alloc[g].level);
    const double d1 = alloc[g].active;
    const double d2 = static_cast<double>(alloc[g + 1].level);
    const double d3 = alloc[g + 1].active;
    std::uint64_t w[4];
    std::memcpy(&w[0], &d0, sizeof(double));
    std::memcpy(&w[1], &d1, sizeof(double));
    std::memcpy(&w[2], &d2, sizeof(double));
    std::memcpy(&w[3], &d3, sizeof(double));
    for (int k = 0; k < 4; ++k) h[k] = (h[k] ^ w[k]) * kPrime;
  }
  if (g < groups) {  // odd group count: the two tail words fold into lane 0
    const double d0 = static_cast<double>(alloc[g].level);
    const double d1 = alloc[g].active;
    std::uint64_t w0 = 0;
    std::uint64_t w1 = 0;
    std::memcpy(&w0, &d0, sizeof(double));
    std::memcpy(&w1, &d1, sizeof(double));
    h[0] = (h[0] ^ w0) * kPrime;
    h[0] = (h[0] ^ w1) * kPrime;
  }
  std::uint64_t hash = h[0];
  for (int k = 1; k < 4; ++k) hash = (hash ^ h[k]) * kPrime;
  return hash;
}

void check_size(const dc::Allocation& alloc, const dc::Fleet& fleet) {
  if (alloc.size() != fleet.group_count()) {
    throw std::out_of_range("LoadLpContext: allocation has " +
                            std::to_string(alloc.size()) +
                            " groups, the fleet " +
                            std::to_string(fleet.group_count()));
  }
}

}  // namespace

LoadLpContext::LoadLpContext(const dc::Fleet& fleet) : fleet_(&fleet) {
  const std::size_t groups = fleet.group_count();
  level_offset_.assign(groups + 1, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    level_offset_[g + 1] = level_offset_[g] + fleet.group(g).spec().level_count();
  }
  const std::size_t slots = level_offset_[groups];
  rate_table_.assign(slots, 0.0);
  dyn_slope_table_.assign(slots, 0.0);
  dyn_kw_table_.assign(slots, 0.0);
  static_table_.assign(groups, 0.0);
  server_count_.assign(groups, 0.0);
  for (std::size_t g = 0; g < groups; ++g) {
    const auto& spec = fleet.group(g).spec();
    for (std::size_t k = 0; k < spec.level_count(); ++k) {
      rate_table_[level_offset_[g] + k] = spec.level(k).service_rate;
      dyn_slope_table_[level_offset_[g] + k] = spec.dynamic_slope(k);
      dyn_kw_table_[level_offset_[g] + k] = spec.level(k).dynamic_power_kw;
    }
    static_table_[g] = spec.static_power_kw();
    server_count_[g] = static_cast<double>(fleet.group(g).server_count());
  }
  slope_table_.assign(slots, 0.0);
  cap_table_.assign(slots, 0.0);
  bracket_denom_table_.assign(slots, 0.0);
  cls_group_.reserve(groups);
  for (auto* v : {&cls_rate_, &cls_slope_, &cls_active_, &cls_cap_, &cls_denom_,
                  &cls_stat_, &cls_dyn_, &cls_ms_, &cls_thr_, &cls_vbr_,
                  &cls_ivbr_,
                  &cls_resp_, &cls_load_}) {
    v->reserve(groups);
  }
  memo_slots_.assign(kMemoSlots, -1);
}

void LoadLpContext::invalidate() {
  cache_valid_ = false;
  cls_key_.clear();  // force a full class rebuild on the next solve
  dirty_.clear();
  dirty_all_ = true;
  seed_valid_ = false;
  memo_clear();
}

void LoadLpContext::refresh_tables(const SlotWeights& weights) {
  if (weights.pue == tables_pue_ && weights.gamma == tables_gamma_) return;
  const double one_minus_gamma = 1.0 - weights.gamma;
  for (std::size_t i = 0; i < rate_table_.size(); ++i) {
    // Identical expressions to active_classes()/the reference bracket, so
    // the cached values are bit-identical to what the reference recomputes.
    slope_table_[i] = weights.pue * dyn_slope_table_[i];
    cap_table_[i] = weights.gamma * rate_table_[i];
    bracket_denom_table_[i] = rate_table_[i] * one_minus_gamma * one_minus_gamma;
  }
  tables_pue_ = weights.pue;
  tables_gamma_ = weights.gamma;
}

void LoadLpContext::check_level(std::size_t g,
                                const dc::GroupAllocation& a) const {
  if (a.active > kTiny && a.level >= level_offset_[g + 1] - level_offset_[g]) {
    throw std::out_of_range("LoadLpContext: group " + std::to_string(g) +
                            " level " + std::to_string(a.level) +
                            " out of range");
  }
}

bool LoadLpContext::off_spec(std::size_t g,
                             const dc::GroupAllocation& a) const {
  return a.active < 0.0 || (a.active > 0.0 && a.active <= kTiny) ||
         a.active > server_count_[g] * (1.0 + 1e-9) ||
         a.level >= level_offset_[g + 1] - level_offset_[g];
}

bool LoadLpContext::try_patch_classes(const dc::Allocation& alloc,
                                      bool dead_lanes) {
  const std::size_t groups = alloc.size();
  if (cls_key_.size() != 2 * groups || dead_lanes_ != dead_lanes) {
    return false;
  }
  int patched = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const double lv = static_cast<double>(alloc[g].level);
    const double ac = alloc[g].active;
    if (cls_key_[2 * g] == lv && cls_key_[2 * g + 1] == ac) continue;
    // With dead lanes a group joining or leaving the active set is an
    // ordinary patch: the lane flips between its live tables and the dead
    // template.  The compacted layout has no lane to flip, so it rebuilds.
    // Large diffs: rebuilding is cheaper.
    const bool was_in = cls_key_[2 * g + 1] > kTiny;
    const bool now_in = ac > kTiny;
    check_level(g, alloc[g]);  // before the patch reads this group's tables
    if (was_in != now_in && !dead_lanes) return false;
    const bool off = off_spec(g, alloc[g]);
    off_spec_groups_ += static_cast<int>(off) - static_cast<int>(off_spec_[g]);
    off_spec_[g] = off;
    if (was_in || now_in) {
      if (++patched > 8) return false;
      const std::int32_t i = cls_index_[g];
      if (seed_valid_) {
        // Remove the lane's old contribution at the seed price.  cls_resp_
        // still holds the response the seed capture evaluated — unless this
        // lane already has a pending patch (no evaluation in between), in
        // which case the lane is stale and the seed can't be maintained.
        bool pending = false;
        for (const std::int32_t d : dirty_) pending = pending || (d == i);
        if (pending) {
          seed_valid_ = false;
        } else {
          seed_delta_ -= cls_active_[i] * cls_resp_[i];
          seed_gdelta_ -= cls_gl_[i];
        }
      }
      if (now_in) {
        const std::size_t slot = level_offset_[g] + alloc[g].level;
        // Same expressions as the full build: the patched lane is
        // bit-identical to what a rebuild would write.
        cls_rate_[i] = rate_table_[slot];
        cls_slope_[i] = slope_table_[slot];
        cls_active_[i] = ac;
        cls_cap_[i] = cap_table_[slot];
        cls_denom_[i] = bracket_denom_table_[slot];
        cls_stat_[i] = static_table_[g];
        cls_dyn_[i] = dyn_kw_table_[slot];
      } else {
        cls_rate_[i] = 0.0;
        cls_slope_[i] = 0.0;
        cls_active_[i] = 0.0;
        cls_cap_[i] = 0.0;
        cls_denom_[i] = std::numeric_limits<double>::infinity();
        cls_stat_[i] = 0.0;
        cls_dyn_[i] = 0.0;
      }
      capacity_ready_ = false;
      if (!dirty_all_) dirty_.push_back(i);
    }
    cls_key_[2 * g] = lv;
    cls_key_[2 * g + 1] = ac;
  }
  return true;
}

void LoadLpContext::build_classes(const dc::Allocation& alloc,
                                  const SlotWeights& weights, bool dead_lanes) {
  const bool tables_fresh =
      weights.pue == tables_pue_ && weights.gamma == tables_gamma_;
  refresh_tables(weights);
  if (tables_fresh && try_patch_classes(alloc, dead_lanes)) return;
  // Validate every level before the rebuild touches any state.
  for (std::size_t g = 0; g < alloc.size(); ++g) check_level(g, alloc[g]);
  dead_lanes_ = dead_lanes;
  cls_key_.clear();
  dirty_.clear();
  dirty_all_ = true;
  seed_valid_ = false;
  capacity_ready_ = false;
  cls_group_.clear();
  cls_rate_.clear();
  cls_slope_.clear();
  cls_active_.clear();
  cls_cap_.clear();
  cls_denom_.clear();
  cls_stat_.clear();
  cls_dyn_.clear();
  cls_index_.assign(alloc.size(), -1);
  off_spec_.assign(alloc.size(), false);
  off_spec_groups_ = 0;
  cls_key_.resize(2 * alloc.size());
  for (std::size_t g = 0; g < alloc.size(); ++g) {
    off_spec_[g] = off_spec(g, alloc[g]);
    off_spec_groups_ += static_cast<int>(off_spec_[g]);
    cls_key_[2 * g] = static_cast<double>(alloc[g].level);
    cls_key_[2 * g + 1] = alloc[g].active;
    if (alloc[g].active <= kTiny && !dead_lanes) continue;
    cls_index_[g] = static_cast<std::int32_t>(cls_group_.size());
    cls_group_.push_back(g);
    if (alloc[g].active <= kTiny) {
      // Dead lane for an inactive group: zeroed tables make every kernel
      // contribution an exact +0.0 and the bracket scans see thr = +inf /
      // hib = 0, so the lane is bitwise-invisible to the solve — while
      // membership changes stay patchable instead of forcing a rebuild
      // (which would also drop the warm seed).
      cls_rate_.push_back(0.0);
      cls_slope_.push_back(0.0);
      cls_active_.push_back(0.0);
      cls_cap_.push_back(0.0);
      cls_denom_.push_back(std::numeric_limits<double>::infinity());
      cls_stat_.push_back(0.0);
      cls_dyn_.push_back(0.0);
      continue;
    }
    const std::size_t slot = level_offset_[g] + alloc[g].level;
    cls_rate_.push_back(rate_table_[slot]);
    cls_slope_.push_back(slope_table_[slot]);
    cls_active_.push_back(alloc[g].active);
    cls_cap_.push_back(cap_table_[slot]);
    cls_denom_.push_back(bracket_denom_table_[slot]);
    cls_stat_.push_back(static_table_[g]);
    cls_dyn_.push_back(dyn_kw_table_[slot]);
  }
  const std::size_t n = cls_group_.size();
  cls_ms_.resize(n);
  cls_thr_.resize(n);
  cls_vbr_.resize(n);
  cls_ivbr_.resize(n);
  cls_hib_.resize(n);
  cls_resp_.resize(n);
  cls_gl_.resize(n);
  cls_load_.resize(n);
}

double LoadLpContext::built_capacity() {
  if (!capacity_ready_) {
    // The reference's in-order reduction: reused verbatim by every consumer
    // so the feasibility predicate sees one set of bits.
    double capacity = 0.0;
    for (std::size_t i = 0; i < cls_group_.size(); ++i) {
      capacity += cls_active_[i] * cls_cap_[i];
    }
    built_capacity_ = capacity;
    capacity_ready_ = true;
  }
  return built_capacity_;
}

double LoadLpContext::supply_gap(double nu, double lambda) {
  const std::size_t n = cls_group_.size();
  const double* ms = cls_ms_.data();
  const double* thr = cls_thr_.data();
  const double* vbr = cls_vbr_.data();
  const double* rate = cls_rate_.data();
  const double* cap = cls_cap_.data();
  double* resp = cls_resp_.data();
  // Element-wise best response a(nu) = clamp(x - sqrt(V*beta*x/(nu - mu*c)),
  // 0, gamma*x) over contiguous arrays: no branches in the loop body, so the
  // divide/sqrt vectorize; the select reproduces the reference's threshold
  // branch bit-for-bit (unselected lanes are exactly 0).
  for (std::size_t i = 0; i < n; ++i) {
    const double denom = std::max(nu - ms[i], kDenomFloor);
    double a = rate[i] - std::sqrt(vbr[i] / denom);
    a = std::min(std::max(a, 0.0), cap[i]);
    resp[i] = nu > thr[i] ? a : 0.0;
  }
  // The market-clearing sum stays a scalar in-order reduction: FP addition
  // is not associative and the reference accumulates in class order.
  double total = 0.0;
  const double* active = cls_active_.data();
  for (std::size_t i = 0; i < n; ++i) total += active[i] * resp[i];
  return total - lambda;
}

double LoadLpContext::supply_gap_grad(double nu, double lambda, double& grad) {
  const std::size_t n = cls_group_.size();
  const double* ms = cls_ms_.data();
  const double* thr = cls_thr_.data();
  const double* vbr = cls_vbr_.data();
  const double* rate = cls_rate_.data();
  const double* cap = cls_cap_.data();
  const double* active = cls_active_.data();
  double* resp = cls_resp_.data();
  // Same response expressions as supply_gap (bit-identical resp lanes), plus
  // the analytic derivative d(resp)/dnu = s / (2 * denom) with
  // s = sqrt(vbr / denom) — the sqrt is already paid for the response, so
  // the gradient lane costs one divide.  Clamped and unselected lanes have
  // zero slope.
  double* gl = cls_gl_.data();
  const double* ivbr = cls_ivbr_.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double denom = std::max(nu - ms[i], kDenomFloor);
    const double q = vbr[i] / denom;
    const double s = std::sqrt(q);
    const double raw = rate[i] - s;
    const double a = std::min(std::max(raw, 0.0), cap[i]);
    const bool on = nu > thr[i];
    resp[i] = on ? a : 0.0;
    // Non-short-circuit select: keeps the loop free of control flow so it
    // vectorizes alongside the response lanes.  The slope s/(2*denom) is
    // rewritten divide-free as 0.5*s*q/vbr via the precomputed reciprocal
    // (s/denom == s*q/vbr exactly in the reals): the gradient only steers
    // Newton iterates, so the rounding difference is irrelevant, and the
    // loop drops from three divider-unit ops per lane to two.  Dead lanes
    // (vbr == 0, ivbr == inf) evaluate 0*inf = NaN in the unselected arm,
    // which the select discards.
    const bool sloped = on & (raw > 0.0) & (raw < cap[i]);
    gl[i] = sloped ? active[i] * (0.5 * s * q * ivbr[i]) : 0.0;
  }
  // The reductions here only steer the warm Newton iterates (the canonical
  // path reduces in class order inside supply_gap), so four partial sums
  // break the serial FP dependency chain; the iterate lands within ulps of
  // the in-order sum, well inside the clearing tolerance.
  double g0 = 0.0, g1 = 0.0, g2 = 0.0, g3 = 0.0;
  double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    g0 += gl[i];
    g1 += gl[i + 1];
    g2 += gl[i + 2];
    g3 += gl[i + 3];
    t0 += active[i] * resp[i];
    t1 += active[i + 1] * resp[i + 1];
    t2 += active[i + 2] * resp[i + 2];
    t3 += active[i + 3] * resp[i + 3];
  }
  double g = (g0 + g1) + (g2 + g3);
  double total = (t0 + t1) + (t2 + t3);
  for (; i < n; ++i) {
    g += gl[i];
    total += active[i] * resp[i];
  }
  grad = g;
  return total - lambda;
}

void LoadLpContext::settle_residual(double lambda) {
  // Mirrors the reference settle_residual pass-for-pass.
  const std::size_t n = cls_group_.size();
  for (int pass = 0; pass < 4; ++pass) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += cls_load_[i];
    const double residual = lambda - total;
    if (std::abs(residual) <= 1e-9 * std::max(1.0, lambda)) return;
    if (residual > 0.0) {
      double headroom = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        headroom += cls_active_[i] * cls_cap_[i] - cls_load_[i];
      }
      if (headroom <= kTiny) return;
      for (std::size_t i = 0; i < n; ++i) {
        const double room = cls_active_[i] * cls_cap_[i] - cls_load_[i];
        cls_load_[i] += residual * room / headroom;
      }
    } else {
      const double shrink = lambda / std::max(total, kTiny);
      for (std::size_t i = 0; i < n; ++i) cls_load_[i] *= shrink;
    }
  }
}

void LoadLpContext::greedy_fill(double lambda, double mu) {
  const std::size_t n = cls_group_.size();
  // Only live lanes enter the sort: the input sequence then matches the
  // reference's class list element-for-element, so the (unstable) sort
  // produces the identical permutation and the identical fill order.
  order_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (cls_active_[i] > kTiny) order_.push_back(i);
  }
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return mu * cls_slope_[a] < mu * cls_slope_[b];
  });
  double remaining = lambda;
  for (std::size_t idx : order_) {
    const double cap = cls_active_[idx] * cls_cap_[idx];
    const double take = std::min(cap, remaining);
    cls_load_[idx] = take;
    remaining -= take;
    if (remaining <= 0.0) break;
  }
}

void LoadLpContext::scatter_loads(dc::Allocation& alloc) const {
  for (std::size_t i = 0; i < cls_group_.size(); ++i) {
    alloc[cls_group_[i]].load = cls_load_[i];
  }
}

double LoadLpContext::solve_linear_built(double lambda, double mu,
                                         const SlotWeights& weights,
                                         double warm_nu) {
  const std::size_t n = cls_group_.size();
  if (built_capacity() < lambda * (1.0 - 1e-9)) return -1.0;

  for (std::size_t i = 0; i < n; ++i) cls_load_[i] = 0.0;
  const double v_beta = weights.V * weights.beta;
  double nu = 0.0;
  if (v_beta <= kTiny) {
    greedy_fill(lambda, mu);
    seed_valid_ = false;  // loads set directly; no dual point to seed from
  } else {
    // Per-solve invariants, hoisted out of the bisection.  They depend only
    // on (class tables, mu, V*beta), so after a single-group patch at an
    // unchanged price only the dirty lanes recompute; the bracket bounds are
    // then a divide-free min/max scan.  min/max are order-insensitive, so
    // the scan is bit-identical to the reference's fused loop.
    // The seed is usable only when the gap function is unchanged apart from
    // the patched lanes: same invariants (mu, V*beta), same lambda, and a
    // positive captured gradient for the Newton step.
    const bool inv_fresh = !dirty_all_ && mu == inv_mu_ && v_beta == inv_vbeta_;
    const bool seed_ok = seed_valid_ && inv_fresh && lambda == seed_lambda_ &&
                         seed_grad_ > 0.0;
    if (dirty_all_ || !(mu == inv_mu_ && v_beta == inv_vbeta_)) {
      for (std::size_t i = 0; i < n; ++i) {
        cls_ms_[i] = mu * cls_slope_[i];
        cls_thr_[i] = cls_ms_[i] + v_beta / cls_rate_[i];
        cls_vbr_[i] = v_beta * cls_rate_[i];
        cls_ivbr_[i] = 1.0 / cls_vbr_[i];
        cls_hib_[i] = cls_ms_[i] + v_beta / cls_denom_[i];
      }
      dirty_all_ = false;
      inv_mu_ = mu;
      inv_vbeta_ = v_beta;
    } else {
      for (const std::int32_t i : dirty_) {
        cls_ms_[i] = mu * cls_slope_[i];
        cls_thr_[i] = cls_ms_[i] + v_beta / cls_rate_[i];
        cls_vbr_[i] = v_beta * cls_rate_[i];
        cls_ivbr_[i] = 1.0 / cls_vbr_[i];
        cls_hib_[i] = cls_ms_[i] + v_beta / cls_denom_[i];
      }
    }
    if (seed_ok) {
      // Add the patched lanes' new contributions at the seed price (their
      // invariants were just refreshed above).  Same response expressions as
      // supply_gap; exactness is irrelevant here — this only steers the
      // Newton starting iterate.
      for (const std::int32_t i : dirty_) {
        const double denom = std::max(seed_nu_ - cls_ms_[i], kDenomFloor);
        const double s = std::sqrt(cls_vbr_[i] / denom);
        const double raw = cls_rate_[i] - s;
        const double a = std::min(std::max(raw, 0.0), cls_cap_[i]);
        const bool on = seed_nu_ > cls_thr_[i];
        seed_delta_ += cls_active_[i] * (on ? a : 0.0);
        const bool sloped = on && raw > 0.0 && raw < cls_cap_[i];
        seed_gdelta_ += sloped ? cls_active_[i] * (s / (2.0 * denom)) : 0.0;
      }
    }
    dirty_.clear();
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      lo = std::min(lo, cls_thr_[i]);
      hi = std::max(hi, cls_hib_[i]);
    }
    hi = hi * (1.0 + 1e-9) + kTiny;
    util::BisectionOptions options;
    options.x_tol = std::max(1e-14, (hi - lo) * 1e-13);
    options.f_tol = 1e-9 * std::max(1.0, lambda);
    options.max_iterations = 200;
    double last_eval = std::numeric_limits<double>::quiet_NaN();
    double last_fx = 0.0;
    double last_grad = 0.0;
    if (warm_nu > 0.0) {
      // Bracket-safeguarded Newton from the cached clearing price.  The gap
      // is monotone nondecreasing in nu, so each iterate shrinks the
      // canonical bracket; the Newton step (analytic derivative from the
      // fused kernel) converges in a few evaluations from a single-flip-away
      // start, and any step that leaves the bracket degrades to a midpoint.
      // Same f_tol clearing criterion as the canonical bisection.
      double a = lo;
      double b = hi;
      double x = std::min(std::max(warm_nu, lo), hi);
      if (seed_ok) {
        // One Newton step taken analytically, before any gap evaluation:
        // seed_fx_ + seed_delta_ is the gap at seed_nu_ under the *patched*
        // classes (up to reduction-order ulps), and the gradient gets the
        // same per-lane correction.
        const double g = seed_grad_ + seed_gdelta_;
        if (g > 0.0) {
          const double step = seed_nu_ - (seed_fx_ + seed_delta_) / g;
          if (step > lo && step < hi) x = step;
        }
      }
      for (int i = 0; i < options.max_iterations; ++i) {
        double grad = 0.0;
        const double fx = supply_gap_grad(x, lambda, grad);
        last_eval = x;
        last_fx = fx;
        last_grad = grad;
        ++stats_.nu_iterations;
        if (std::abs(fx) <= options.f_tol) break;
        if (fx < 0.0) {
          a = x;
        } else {
          b = x;
        }
        if ((b - a) <= options.x_tol) break;
        const double step = grad > 0.0 ? x - fx / grad : a;
        x = (step > a && step < b) ? step : 0.5 * (a + b);
      }
      nu = x;  // max_iterations exhausts to the last iterate
    } else {
      auto gap = [&](double price) { return supply_gap(price, lambda); };
      const auto result = util::bisect(gap, lo, hi, options);
      stats_.nu_iterations += result.iterations;
      nu = result.x;
    }
    // Leave cls_resp_ at the clearing price.  When the last gap evaluation
    // was already at nu (a converged Newton loop ends there) the arrays hold
    // exactly the values a re-evaluation would write — skip it.  The
    // canonical bisection always re-evaluates (reference order).  On
    // solve()'s layout the refresh swaps supply_gap for supply_gap_grad,
    // whose response lanes are the identical expressions (bit-for-bit the
    // same cls_resp_), to pick up the gradient that re-arms the analytic
    // seed at this clearing.
    seed_valid_ = false;
    seed_delta_ = 0.0;
    seed_gdelta_ = 0.0;
    if (!dead_lanes_) {
      supply_gap(nu, lambda);
    } else {
      if (last_eval != nu) last_fx = supply_gap_grad(nu, lambda, last_grad);
      if (last_grad > 0.0) {
        seed_valid_ = true;
        seed_nu_ = nu;
        seed_fx_ = last_fx;
        seed_grad_ = last_grad;
        seed_lambda_ = lambda;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      cls_load_[i] = cls_active_[i] * cls_resp_[i];
    }
  }
  settle_residual(lambda);
  return nu;
}

double LoadLpContext::clear_lambda(dc::Allocation& alloc, double lambda,
                                   double mu, const SlotWeights& weights,
                                   double warm_nu) {
  for (auto& a : alloc) a.load = 0.0;
  if (lambda <= kTiny) return 0.0;
  const double nu = solve_linear_built(lambda, mu, weights, warm_nu);
  if (nu >= 0.0) scatter_loads(alloc);
  return nu;
}

double LoadLpContext::solve_linear(dc::Allocation& alloc, double lambda,
                                   double mu, const SlotWeights& weights) {
  check_size(alloc, *fleet_);
  if (lambda > kTiny) build_classes(alloc, weights, false);
  return clear_lambda(alloc, lambda, mu, weights, 0.0);
}

SlotOutcome LoadLpContext::lane_outcome(const dc::Allocation& alloc,
                                        const SlotInput& input,
                                        const SlotWeights& weights) const {
  // See the declaration comment.  Lanes cover every group in group order
  // (inactive groups keep dead lanes), so the in-order sums below visit
  // groups exactly as evaluate() does; dead and zero-load lanes contribute an
  // exact +0.0, which is bitwise-neutral in these nonnegative accumulations.
  if (off_spec_groups_ > 0 || input.lambda <= kTiny || weights.gamma <= 0.0 ||
      weights.gamma >= 1.0) {
    return evaluate(*fleet_, alloc, input, weights);
  }
  constexpr double kTol = 1e-6;
  const std::size_t n = cls_group_.size();
  const double* active = cls_active_.data();
  const double* load = cls_load_.data();
  const double* rate = cls_rate_.data();
  const double* cap = cls_cap_.data();
  const double* stat = cls_stat_.data();
  const double* dyn = cls_dyn_.data();
  double served = 0.0;
  for (std::size_t i = 0; i < n; ++i) served += load[i];
  if (std::abs(served - input.lambda) >
      1e-6 * std::max(1.0, input.lambda) + 1e-6) {
    return evaluate(*fleet_, alloc, input, weights);  // sets the reason
  }
  double it = 0.0;
  double delay_jobs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (active[i] == 0.0) {
      if (load[i] > 0.0) return evaluate(*fleet_, alloc, input, weights);
      continue;  // exact 0.0 contribution, like the reference
    }
    // allocation_feasible's cap check, same expression shape: cls_cap_ is
    // gamma * rate, so (gamma * rate) * active reproduces its product order.
    if (load[i] > cap[i] * active[i] * (1.0 + 1e-6) + kTol) {
      return evaluate(*fleet_, alloc, input, weights);
    }
    const double per = load[i] / active[i];
    if (per > rate[i] * (1.0 + 1e-9)) {
      return evaluate(*fleet_, alloc, input, weights);  // reference throws
    }
    // ServerGroup::power_kw / ServerSpec::power_kw, expression preserved.
    it += active[i] * (stat[i] + dyn[i] * (per / rate[i]));
    // ServerGroup::delay_cost, expression preserved.
    if (load[i] > 0.0) {
      delay_jobs += per >= rate[i] ? std::numeric_limits<double>::infinity()
                                   : active[i] * per / (rate[i] - per);
    }
  }
  SlotOutcome out;
  const double slot_h = weights.slot_hours;
  const double facility = weights.pue * it;
  const double brown = std::max(0.0, facility - input.onsite_kw) * slot_h;
  const double electricity = brown * input.price;
  out.delay_jobs = delay_jobs;
  const double delay = (weights.beta * delay_jobs) * slot_h;
  const double total = electricity + delay;
  out.it_power_kw = it;
  out.facility_power_kw = facility;
  out.brown_kwh = brown;
  out.electricity_cost = electricity;
  out.delay_cost = delay;
  out.total_cost = total;
  out.objective = weights.V * total + weights.q * brown +
                  weights.power_price * facility * slot_h;
  out.feasible = true;
  return out;
}

double LoadLpContext::facility_kw(const SlotOutcome& out,
                                  const dc::Allocation& alloc,
                                  const SlotWeights& weights) const {
  return out.feasible ? out.facility_power_kw
                      : allocation_facility_kw(*fleet_, alloc, weights.pue);
}

LoadBalanceResult LoadLpContext::solve_cold(dc::Allocation& alloc,
                                            const SlotInput& input,
                                            const SlotWeights& weights) {
  // Reference-order regime sequence: identical decisions, brackets and
  // tolerances to balance_loads().
  LoadBalanceResult result;
  const double mu_full = weights.brown_price(input.price);

  double nu = clear_lambda(alloc, input.lambda, mu_full, weights, 0.0);
  if (nu < 0.0) {
    result.outcome = evaluate(*fleet_, alloc, input, weights);
    result.outcome.infeasible_reason = "active capacity below lambda";
    return result;
  }
  // One evaluation serves both the [p - r]^+ branch decision and the
  // returned outcome.
  SlotOutcome out_a = lane_outcome(alloc, input, weights);
  if (facility_kw(out_a, alloc, weights) >= input.onsite_kw * (1.0 - 1e-9)) {
    result.feasible = true;
    result.regime = PowerRegime::kGridDraw;
    result.nu = nu;
    result.effective_price = mu_full;
    result.outcome = std::move(out_a);
    return result;
  }

  const double mu_floor = weights.power_price;
  nu = clear_lambda(alloc, input.lambda, mu_floor, weights, 0.0);
  SlotOutcome out_b = lane_outcome(alloc, input, weights);
  if (facility_kw(out_b, alloc, weights) <= input.onsite_kw * (1.0 + 1e-9)) {
    result.feasible = true;
    result.regime = PowerRegime::kRenewable;
    result.nu = nu;
    result.effective_price = mu_floor;
    result.outcome = std::move(out_b);
    return result;
  }

  auto power_gap = [&](double mu) {
    clear_lambda(alloc, input.lambda, mu, weights, 0.0);
    return facility_kw(lane_outcome(alloc, input, weights), alloc, weights) -
           input.onsite_kw;
  };
  util::BisectionOptions options;
  options.x_tol = std::max(1e-12, mu_full * 1e-10);
  options.f_tol = 1e-6 * std::max(1.0, input.onsite_kw);
  options.max_iterations = 100;
  const auto boundary = util::bisect(power_gap, mu_floor, mu_full, options);
  nu = clear_lambda(alloc, input.lambda, boundary.x, weights, 0.0);
  result.feasible = true;
  result.regime = PowerRegime::kBoundary;
  result.nu = nu;
  result.effective_price = boundary.x;
  result.outcome = lane_outcome(alloc, input, weights);
  return result;
}

LoadBalanceResult LoadLpContext::solve_warm(dc::Allocation& alloc,
                                            const SlotInput& input,
                                            const SlotWeights& weights) {
  // Re-check the cached regime branch first; on success only that branch's
  // linear solve runs (warm-bracketed from the cached nu).  A failed check
  // means the candidate crossed the [p - r]^+ kink: count the flip and fall
  // back to the reference-order cold sequence.
  const double mu_full = weights.brown_price(input.price);
  LoadBalanceResult result;

  if (cached_regime_ == PowerRegime::kGridDraw) {
    if (input.lambda <= kTiny) return solve_cold(alloc, input, weights);
    const double nu =
        clear_lambda(alloc, input.lambda, mu_full, weights, cached_nu_);
    if (nu < 0.0) {
      result.outcome = evaluate(*fleet_, alloc, input, weights);
      result.outcome.infeasible_reason = "active capacity below lambda";
      return result;
    }
    SlotOutcome out_a = lane_outcome(alloc, input, weights);
    if (facility_kw(out_a, alloc, weights) >= input.onsite_kw * (1.0 - 1e-9)) {
      result.feasible = true;
      result.regime = PowerRegime::kGridDraw;
      result.nu = nu;
      result.effective_price = mu_full;
      result.outcome = std::move(out_a);
      return result;
    }
    ++stats_.regime_flips;
    return solve_cold(alloc, input, weights);
  }

  if (cached_regime_ == PowerRegime::kRenewable) {
    const double mu_floor = weights.power_price;
    const double nu =
        clear_lambda(alloc, input.lambda, mu_floor, weights, cached_nu_);
    if (nu >= 0.0) {
      SlotOutcome out_b = lane_outcome(alloc, input, weights);
      if (facility_kw(out_b, alloc, weights) <=
          input.onsite_kw * (1.0 + 1e-9)) {
        result.feasible = true;
        result.regime = PowerRegime::kRenewable;
        result.nu = nu;
        result.effective_price = mu_floor;
        result.outcome = std::move(out_b);
        return result;
      }
    }
    ++stats_.regime_flips;
    return solve_cold(alloc, input, weights);
  }

  // kBoundary: warm the outer mu bisection around the cached effective
  // price.  Facility power is nonincreasing in mu, so the gap (power -
  // onsite) must be >= 0 at the lower end and <= 0 at the upper end for the
  // pin to stay inside the warm window.
  const double mu_floor = weights.power_price;
  double wlo = std::max(mu_floor, cached_mu_ * 0.5);
  double whi = std::min(mu_full, cached_mu_ * 2.0);
  // Each inner clearing warms from the previous one's nu — nu(mu) is
  // continuous, so consecutive outer iterates share tight brackets.
  double last_nu = cached_nu_;
  auto warm_linear = [&](double mu) {
    const double nu =
        clear_lambda(alloc, input.lambda, mu, weights, last_nu);
    if (nu >= 0.0) last_nu = nu;
    return nu;
  };
  auto power = [&] {
    return facility_kw(lane_outcome(alloc, input, weights), alloc, weights);
  };
  auto power_gap = [&](double mu) {
    warm_linear(mu);
    return power() - input.onsite_kw;
  };
  if (!(wlo < whi) || warm_linear(mu_full) < 0.0) {
    // Degenerate window or infeasible capacity: reference order handles it.
    return solve_cold(alloc, input, weights);
  }
  if (power() >= input.onsite_kw * (1.0 - 1e-9)) {
    // The full-price solution now draws grid power: regime flipped to A.
    ++stats_.regime_flips;
    return solve_cold(alloc, input, weights);
  }
  if (power_gap(wlo) < 0.0 || power_gap(whi) > 0.0) {
    // The pin left the warm window (possibly all the way to regime B).
    ++stats_.regime_flips;
    return solve_cold(alloc, input, weights);
  }
  util::BisectionOptions options;
  options.x_tol = std::max(1e-12, mu_full * 1e-10);
  options.f_tol = 1e-6 * std::max(1.0, input.onsite_kw);
  options.max_iterations = 100;
  const auto boundary = util::bisect(power_gap, wlo, whi, options);
  const double nu = warm_linear(boundary.x);
  result.feasible = true;
  result.regime = PowerRegime::kBoundary;
  result.nu = nu;
  result.effective_price = boundary.x;
  result.outcome = lane_outcome(alloc, input, weights);
  return result;
}

bool LoadLpContext::cache_valid_for(const SlotInput& input,
                                    const SlotWeights& weights) const {
  return cache_valid_ && cached_input_.lambda == input.lambda &&
         cached_input_.onsite_kw == input.onsite_kw &&
         cached_input_.price == input.price && cached_weights_.V == weights.V &&
         cached_weights_.q == weights.q &&
         cached_weights_.beta == weights.beta &&
         cached_weights_.gamma == weights.gamma &&
         cached_weights_.pue == weights.pue &&
         cached_weights_.slot_hours == weights.slot_hours &&
         cached_weights_.power_price == weights.power_price;
}

void LoadLpContext::remember(const dc::Allocation& alloc,
                             const SlotInput& input, const SlotWeights& weights,
                             const LoadBalanceResult& result) {
  (void)alloc;
  const bool had_point = cache_valid_ && cached_feasible_;
  cache_valid_ = true;
  cached_input_ = input;
  cached_weights_ = weights;
  // An infeasible solve carries no dual information — keep the slot's last
  // feasible (nu, mu, regime) point so the next feasible candidate still
  // warms from it instead of falling back to the canonical bracket.
  if (result.feasible || !had_point) {
    cached_nu_ = result.nu;
    cached_mu_ = result.effective_price;
    cached_regime_ = result.regime;
    cached_feasible_ = result.feasible;
  }
}

void LoadLpContext::memo_clear() {
  if (memo_used_ == 0) return;
  memo_used_ = 0;  // entries stay pooled for reuse
  std::fill(memo_slots_.begin(), memo_slots_.end(), std::int32_t{-1});
}

std::ptrdiff_t LoadLpContext::memo_find(std::uint64_t hash,
                                        const dc::Allocation& alloc) const {
  const std::size_t stride = 2 * alloc.size();
  std::size_t slot = hash & (kMemoSlots - 1);
  while (true) {
    const std::int32_t idx = memo_slots_[slot];
    if (idx < 0) return -1;
    // Bitwise key compare straight against the allocation: stored keys
    // were written with the same casts, so representation equality is the
    // same predicate memcmp over a materialised key would apply.
    // All entries share one stride (the memo only ever sees one fleet).
    if (memo_hashes_[static_cast<std::size_t>(idx)] == hash) {
      const double* key = &memo_keys_[static_cast<std::size_t>(idx) * stride];
      bool same = true;
      for (std::size_t g = 0; same && g < alloc.size(); ++g) {
        const double lv = static_cast<double>(alloc[g].level);
        const double ac = alloc[g].active;
        same = std::memcmp(&key[2 * g], &lv, sizeof(double)) == 0 &&
               std::memcmp(&key[2 * g + 1], &ac, sizeof(double)) == 0;
      }
      if (same) return idx;
    }
    slot = (slot + 1) & (kMemoSlots - 1);
  }
}

void LoadLpContext::memo_store(std::uint64_t hash,
                               const LoadBalanceResult& result,
                               const dc::Allocation& alloc) {
  if (memo_used_ >= kMemoCapacity) memo_clear();
  std::size_t slot = hash & (kMemoSlots - 1);
  while (memo_slots_[slot] >= 0) slot = (slot + 1) & (kMemoSlots - 1);
  const std::size_t idx = memo_used_++;
  memo_slots_[slot] = static_cast<std::int32_t>(idx);
  const std::size_t groups = alloc.size();
  const std::size_t stride = 2 * groups;
  if (memo_hashes_.size() <= idx) {  // grow once; cleared entries reuse rows
    memo_hashes_.resize(idx + 1);
    memo_results_.resize(idx + 1);
    memo_keys_.resize((idx + 1) * stride);
    memo_loads_.resize((idx + 1) * groups);
  }
  memo_hashes_[idx] = hash;
  // Write the key straight from the allocation: interleaved (level,
  // active) doubles, the stream memo_find and fnv1a_alloc both walk.
  double* key = &memo_keys_[idx * stride];
  for (std::size_t g = 0; g < groups; ++g) {
    key[2 * g] = static_cast<double>(alloc[g].level);
    key[2 * g + 1] = alloc[g].active;
  }
  memo_results_[idx] = result;
  double* loads = &memo_loads_[idx * groups];
  for (std::size_t g = 0; g < groups; ++g) loads[g] = alloc[g].load;
}

LoadBalanceResult LoadLpContext::solve(dc::Allocation& alloc,
                                       const SlotInput& input,
                                       const SlotWeights& weights) {
  ++stats_.solves;
  const bool warm = cache_valid_for(input, weights);
  const obs::ScopedSpan span(warm ? "load_lp_warm" : "load_lp_cold");
  if (warm) {
    ++stats_.warm;
  } else {
    ++stats_.cold;
    memo_clear();
  }

  check_size(alloc, *fleet_);  // before the memo probe reads any key
  // Memo first: a hit returns the stored (bit-exact) result without even
  // rebuilding the class arrays.
  const std::uint64_t hash = fnv1a_alloc(alloc);
  if (warm) {
    const std::ptrdiff_t hit = memo_find(hash, alloc);
    if (hit >= 0) {
      ++stats_.memo_hits;
      const double* loads =
          &memo_loads_[static_cast<std::size_t>(hit) * alloc.size()];
      for (std::size_t g = 0; g < alloc.size(); ++g) {
        alloc[g].load = loads[g];
      }
      return memo_results_[static_cast<std::size_t>(hit)];
    }
  }

  // One class build covers the whole solve: the allocation's levels/active
  // counts are fixed until we return, so every interior clearing (including
  // the boundary regime's per-mu re-clears) runs on these lanes.
  build_classes(alloc, weights, true);

  // Capacity pre-check with the exact reference predicate: capacity-short
  // candidates exit through the cold sequence's own (identical) check
  // without touching the warm machinery.
  bool capacity_short = false;
  if (input.lambda > kTiny) {
    capacity_short = built_capacity() < input.lambda * (1.0 - 1e-9);
  }

  const LoadBalanceResult result = (warm && !capacity_short)
                                       ? solve_warm(alloc, input, weights)
                                       : solve_cold(alloc, input, weights);
  remember(alloc, input, weights, result);
  memo_store(hash, result, alloc);
  return result;
}

}  // namespace coca::opt
