// Property-test harness for the incremental load-LP engine (opt/load_lp.hpp).
//
// The contract under test is the engine's exactness contract:
//   * Cold solves (the first solve() of an (input, weights) pair and every
//     capacity-short candidate), memo hits and solve_linear() are
//     *bit-for-bit* identical to the reference — nu, regime, effective
//     price, every load and the full SlotOutcome breakdown (a memo hit
//     replays the stored result of its configuration).
//   * Warm solves (the Newton re-clear from the cached dual point) agree
//     with balance_loads to the documented epsilon: same feasibility and
//     regime, served load clearing lambda to 1e-9 relative (the reference's
//     own clearing tolerance), objective to 1e-6 relative.
// Both hold across randomized fleets, weights, lambdas and thousands of
// GSD-style single-group flips, including forced regime flips across the
// [p - r]^+ kink and infeasible-capacity transitions.
//
// All randomness is seeded through util::Rng (see tools/lint_determinism.py):
// every run of this binary executes the exact same solve sequence.

#include "opt/load_lp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dc/fleet.hpp"
#include "opt/load_balancer.hpp"
#include "util/rng.hpp"

namespace coca::opt {
namespace {

dc::Fleet random_fleet(util::Rng& rng) {
  const std::size_t group_count = 1 + rng.uniform_index(5);
  const auto reference = dc::ServerSpec::opteron2380();
  std::vector<dc::ServerGroup> groups;
  for (std::size_t g = 0; g < group_count; ++g) {
    const double speed = rng.uniform(0.6, 1.3);
    const double power = rng.uniform(0.8, 1.3);
    const std::size_t servers = 1 + rng.uniform_index(10);
    groups.emplace_back(
        reference.scaled("gen" + std::to_string(g), speed, power), servers);
  }
  return dc::Fleet(std::move(groups));
}

SlotWeights random_weights(util::Rng& rng) {
  SlotWeights w;
  w.V = rng.uniform(0.5, 50.0);
  w.q = rng.bernoulli(0.5) ? rng.uniform(0.0, 5.0) : 0.0;
  w.beta = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.002, 0.05);
  w.gamma = rng.uniform(0.6, 0.95);
  w.pue = rng.uniform(1.0, 1.6);
  w.power_price = rng.bernoulli(0.2) ? rng.uniform(0.0, 0.02) : 0.0;
  return w;
}

dc::Allocation full_alloc(const dc::Fleet& fleet) {
  dc::Allocation alloc(fleet.group_count());
  for (std::size_t g = 0; g < fleet.group_count(); ++g) {
    alloc[g].level = fleet.group(g).spec().level_count() - 1;
    alloc[g].active = static_cast<double>(fleet.group(g).server_count());
  }
  return alloc;
}

/// One GSD-style proposal: a random group explores off, or a random level
/// with a quantized active count (mirrors GsdSolver::solve_chain line 7).
void gsd_flip(util::Rng& rng, const dc::Fleet& fleet, dc::Allocation& alloc) {
  const std::size_t g = rng.uniform_index(fleet.group_count());
  const auto& group = fleet.group(g);
  const std::size_t option = rng.uniform_index(group.spec().level_count() + 1);
  if (option == 0) {
    alloc[g].level = 0;
    alloc[g].active = 0.0;
    return;
  }
  constexpr int kSteps = 4;
  const double chunk = std::ceil(static_cast<double>(group.server_count()) /
                                 static_cast<double>(kSteps));
  const auto step = rng.uniform_index(kSteps) + 1;
  alloc[g].level = option - 1;
  alloc[g].active = std::min(static_cast<double>(group.server_count()),
                             chunk * static_cast<double>(step));
}

void expect_bit_identical(const LoadBalanceResult& ref,
                          const LoadBalanceResult& inc,
                          const dc::Allocation& ref_alloc,
                          const dc::Allocation& inc_alloc,
                          const std::string& where) {
  EXPECT_EQ(ref.feasible, inc.feasible) << where;
  EXPECT_EQ(static_cast<int>(ref.regime), static_cast<int>(inc.regime))
      << where;
  EXPECT_EQ(ref.nu, inc.nu) << where;
  EXPECT_EQ(ref.effective_price, inc.effective_price) << where;
  EXPECT_EQ(ref.outcome.feasible, inc.outcome.feasible) << where;
  EXPECT_EQ(ref.outcome.infeasible_reason, inc.outcome.infeasible_reason)
      << where;
  EXPECT_EQ(ref.outcome.objective, inc.outcome.objective) << where;
  EXPECT_EQ(ref.outcome.total_cost, inc.outcome.total_cost) << where;
  EXPECT_EQ(ref.outcome.electricity_cost, inc.outcome.electricity_cost)
      << where;
  EXPECT_EQ(ref.outcome.delay_cost, inc.outcome.delay_cost) << where;
  EXPECT_EQ(ref.outcome.delay_jobs, inc.outcome.delay_jobs) << where;
  EXPECT_EQ(ref.outcome.brown_kwh, inc.outcome.brown_kwh) << where;
  EXPECT_EQ(ref.outcome.it_power_kw, inc.outcome.it_power_kw) << where;
  EXPECT_EQ(ref.outcome.facility_power_kw, inc.outcome.facility_power_kw)
      << where;
  ASSERT_EQ(ref_alloc.size(), inc_alloc.size());
  for (std::size_t g = 0; g < ref_alloc.size(); ++g) {
    EXPECT_EQ(ref_alloc[g].load, inc_alloc[g].load)
        << where << " group " << g;
  }
}

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max({1.0, std::abs(a), std::abs(b)});
}

double served(const dc::Allocation& alloc) {
  double total = 0.0;
  for (const auto& a : alloc) total += a.load;
  return total;
}

// The documented epsilon of a warm solve (opt/load_lp.hpp): the served
// load clears lambda to the reference's own 1e-9 relative clearing
// tolerance (so two solves' totals agree to within twice that), and the
// objective and clearing price agree with the reference to 1e-6 relative.
constexpr double kServedEpsilon = 1e-9;
constexpr double kObjectiveEpsilon = 1e-6;

void expect_within_epsilon(const LoadBalanceResult& ref,
                           const LoadBalanceResult& inc,
                           const dc::Allocation& ref_alloc,
                           const dc::Allocation& inc_alloc, double lambda,
                           const std::string& where) {
  ASSERT_EQ(ref.feasible, inc.feasible) << where;
  EXPECT_EQ(ref.outcome.feasible, inc.outcome.feasible) << where;
  if (!ref.feasible) return;
  EXPECT_EQ(static_cast<int>(ref.regime), static_cast<int>(inc.regime))
      << where;
  EXPECT_LE(rel_diff(served(inc_alloc), lambda), kServedEpsilon) << where;
  EXPECT_LE(rel_diff(served(ref_alloc), served(inc_alloc)),
            2.0 * kServedEpsilon)
      << where;
  EXPECT_LE(rel_diff(ref.outcome.objective, inc.outcome.objective),
            kObjectiveEpsilon)
      << where;
  EXPECT_LE(rel_diff(ref.nu, inc.nu), kObjectiveEpsilon) << where;
}

/// Checks one context solve against the reference under the contract:
/// cold and capacity-short solves bitwise, memo hits bitwise against the
/// result last stored for the same configuration, and warm solves within
/// the documented epsilon.
class ContractChecker {
 public:
  ContractChecker(const dc::Fleet& fleet, LoadLpContext& ctx)
      : fleet_(fleet), ctx_(ctx) {}

  void check(const dc::Allocation& state, const SlotInput& input,
             const SlotWeights& weights, const std::string& where) {
    dc::Allocation ref_alloc = state;
    dc::Allocation inc_alloc = state;
    const auto ref = balance_loads(fleet_, ref_alloc, input, weights);
    // Which path the solve took, read off the engine's counters.
    const LoadLpStats before = ctx_.stats();
    const auto inc = ctx_.solve(inc_alloc, input, weights);
    if (ctx_.stats().cold > before.cold) {
      seen_.clear();  // a cold solve starts a fresh memo generation
      ++cold;
      expect_bit_identical(ref, inc, ref_alloc, inc_alloc, where + " (cold)");
    } else if (ctx_.stats().memo_hits > before.memo_hits) {
      ++memo;
      const auto it = seen_.find(key(state));
      ASSERT_NE(it, seen_.end()) << where;
      expect_bit_identical(it->second.first, inc, it->second.second, inc_alloc,
                           where + " (memo)");
    } else if (!ref.feasible) {
      // Capacity-short: the warm cache is bypassed for the reference path.
      ++warm;
      expect_bit_identical(ref, inc, ref_alloc, inc_alloc, where + " (short)");
    } else {
      ++warm;
      expect_within_epsilon(ref, inc, ref_alloc, inc_alloc, input.lambda,
                            where + " (warm)");
    }
    seen_[key(state)] = {inc, inc_alloc};
    if (ref.feasible) regimes.insert(static_cast<int>(ref.regime));
  }

  int cold = 0;
  int memo = 0;
  int warm = 0;
  std::set<int> regimes;

 private:
  static std::vector<double> key(const dc::Allocation& alloc) {
    std::vector<double> k;
    for (const auto& a : alloc) {
      k.push_back(static_cast<double>(a.level));
      k.push_back(a.active);
    }
    return k;
  }

  const dc::Fleet& fleet_;
  LoadLpContext& ctx_;
  std::map<std::vector<double>, std::pair<LoadBalanceResult, dc::Allocation>>
      seen_;
};

/// Random scenario for the flip harnesses: lambda up to 1.2x the full capped
/// capacity, so flip sequences routinely cross in and out of
/// infeasible-capacity territory, and an on-site supply scaled off the
/// regime-A power of the full fleet so the draws land on all three kink
/// branches.
SlotInput random_input(util::Rng& rng, const dc::Fleet& fleet,
                       const SlotWeights& weights) {
  const double capacity =
      dc::capped_capacity(fleet, full_alloc(fleet), weights.gamma);
  const SlotInput probe_input{rng.uniform(0.05, 1.2) * capacity, 0.0,
                              rng.uniform(0.01, 0.3)};
  auto probe = full_alloc(fleet);
  balance_loads(fleet, probe, probe_input, weights);
  const double power_scale =
      std::max(1.0, allocation_facility_kw(fleet, probe, weights.pue));
  SlotInput input = probe_input;
  input.onsite_kw =
      rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 1.5) * power_scale;
  return input;
}

// --- headline property: the default path over randomized flip sequences ---

TEST(IncrementalLp, DefaultPathWithinEpsilonOverThousandRandomFlips) {
  util::Rng rng(20260808);
  int flips = 0;
  int cold = 0;
  int memo = 0;
  int warm = 0;
  for (int scenario = 0; scenario < 60; ++scenario) {
    const auto fleet = random_fleet(rng);
    const auto weights = random_weights(rng);
    const SlotInput input = random_input(rng, fleet, weights);
    LoadLpContext ctx(fleet);
    ContractChecker checker(fleet, ctx);
    dc::Allocation state = full_alloc(fleet);
    for (int flip = 0; flip < 18; ++flip) {
      checker.check(state, input, weights,
                    "scenario " + std::to_string(scenario) + " flip " +
                        std::to_string(flip));
      ++flips;
      gsd_flip(rng, fleet, state);
    }
    cold += checker.cold;
    memo += checker.memo;
    warm += checker.warm;
  }
  EXPECT_GE(flips, 1000);  // the floor for the property harness
  // Every path of the contract was exercised.
  EXPECT_EQ(cold, 60);
  EXPECT_GT(memo, 0);
  EXPECT_GT(warm, 500);
}

TEST(IncrementalLp, BitExactOverThousandRandomFlipSequences) {
  // The bit-exact legs along the same kind of flip sequences: a fresh
  // context's (cold) solve, and solve_linear through long-lived contexts —
  // one that only clears (its compacted class arrays are patched flip by
  // flip, rebuilt when a group joins or leaves the active set) and one that
  // interleaves warm solve() calls, switching between the two class layouts
  // the way the ladder's polish pass drives it.
  util::Rng rng(20260809);
  int sequences = 0;
  for (int scenario = 0; scenario < 60; ++scenario) {
    const auto fleet = random_fleet(rng);
    const auto weights = random_weights(rng);
    const SlotInput input = random_input(rng, fleet, weights);
    const double mu = weights.brown_price(input.price);
    LoadLpContext linear_only(fleet);
    LoadLpContext mixed(fleet);
    dc::Allocation state = full_alloc(fleet);
    for (int flip = 0; flip < 18; ++flip) {
      const std::string where = "scenario " + std::to_string(scenario) +
                                " flip " + std::to_string(flip);
      dc::Allocation ref_alloc = state;
      dc::Allocation cold_alloc = state;
      const auto ref = balance_loads(fleet, ref_alloc, input, weights);
      LoadLpContext fresh(fleet);
      const auto cold = fresh.solve(cold_alloc, input, weights);
      expect_bit_identical(ref, cold, ref_alloc, cold_alloc, where);

      dc::Allocation warm_alloc = state;
      mixed.solve(warm_alloc, input, weights);
      dc::Allocation lin_ref = state;
      const double ref_nu =
          balance_loads_linear(fleet, lin_ref, input.lambda, mu, weights);
      for (LoadLpContext* ctx : {&linear_only, &mixed}) {
        dc::Allocation lin_inc = state;
        const double inc_nu =
            ctx->solve_linear(lin_inc, input.lambda, mu, weights);
        EXPECT_EQ(ref_nu, inc_nu) << where;
        for (std::size_t g = 0; g < lin_ref.size(); ++g) {
          EXPECT_EQ(lin_ref[g].load, lin_inc[g].load)
              << where << " group " << g;
        }
      }
      ++sequences;
      gsd_flip(rng, fleet, state);
    }
  }
  EXPECT_GE(sequences, 1000);
}

TEST(IncrementalLp, SolveLinearBitExactIncludingGreedyAndInfeasible) {
  util::Rng rng(77);
  for (int scenario = 0; scenario < 40; ++scenario) {
    const auto fleet = random_fleet(rng);
    auto weights = random_weights(rng);
    if (scenario % 4 == 0) weights.beta = 0.0;  // greedy merit-order path
    const double capacity =
        dc::capped_capacity(fleet, full_alloc(fleet), weights.gamma);
    const double lambda = rng.uniform(0.0, 1.3) * capacity;
    const double mu = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 2.0);
    LoadLpContext ctx(fleet);
    dc::Allocation state = full_alloc(fleet);
    for (int flip = 0; flip < 10; ++flip) {
      dc::Allocation ref_alloc = state;
      dc::Allocation inc_alloc = state;
      const double ref_nu =
          balance_loads_linear(fleet, ref_alloc, lambda, mu, weights);
      const double inc_nu = ctx.solve_linear(inc_alloc, lambda, mu, weights);
      EXPECT_EQ(ref_nu, inc_nu) << "scenario " << scenario << " flip " << flip;
      for (std::size_t g = 0; g < ref_alloc.size(); ++g) {
        EXPECT_EQ(ref_alloc[g].load, inc_alloc[g].load)
            << "scenario " << scenario << " flip " << flip << " group " << g;
      }
      gsd_flip(rng, fleet, state);
    }
  }
}

// --- forced regime flips across the [p - r]^+ kink -------------------------

dc::Fleet two_group_fleet() {
  const auto reference = dc::ServerSpec::opteron2380();
  std::vector<dc::ServerGroup> groups;
  groups.emplace_back(reference, 5);
  groups.emplace_back(reference.scaled("old", 0.8, 1.15), 5);
  return dc::Fleet(std::move(groups));
}

/// Deterministic allocation ladder that sweeps the fleet's power draw from
/// far above to far below the on-site supply, so consecutive solves cross
/// kGridDraw -> kBoundary -> kRenewable.
std::vector<dc::Allocation> regime_ladder(const dc::Fleet& fleet) {
  std::vector<dc::Allocation> ladder;
  for (double active : {5.0, 4.0, 3.0, 2.0, 1.0}) {
    for (std::size_t level : {std::size_t{3}, std::size_t{1}}) {
      dc::Allocation alloc(fleet.group_count());
      for (auto& a : alloc) {
        a.level = level;
        a.active = active;
      }
      ladder.push_back(alloc);
    }
  }
  return ladder;
}

TEST(IncrementalLp, InfeasibleCapacityTransitionsStayWithinEpsilon) {
  const auto fleet = two_group_fleet();
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const SlotInput input{50.0, 0.0, 0.06};  // needs most of the fleet

  LoadLpContext ctx(fleet);
  ContractChecker checker(fleet, ctx);
  // active = 1 is infeasible for lambda = 50 (capacity 16.2); the sequence
  // transitions feasible -> infeasible -> feasible through one context.
  // Capacity-short candidates take the reference path even while the cache
  // is warm, so the infeasible results (reason text included) stay exact.
  for (double active : {5.0, 1.0, 4.0, 1.0, 5.0}) {
    dc::Allocation alloc(fleet.group_count());
    for (auto& a : alloc) {
      a.level = 3;
      a.active = active;
    }
    checker.check(alloc, input, w, "active " + std::to_string(active));
  }
  // 5 cold, 1 capacity-short, 4 warm Newton, then two memo replays.
  EXPECT_EQ(checker.cold, 1);
  EXPECT_EQ(checker.warm, 2);
  EXPECT_EQ(checker.memo, 2);
  EXPECT_EQ(checker.regimes.size(), 1u);
}

// --- engine mechanics ------------------------------------------------------

TEST(IncrementalLp, ExactMemoHitOnRepeatedConfiguration) {
  const auto fleet = two_group_fleet();
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const SlotInput input{30.0, 0.0, 0.06};
  LoadLpContext ctx(fleet);

  dc::Allocation a(fleet.group_count());
  for (auto& x : a) {
    x.level = 3;
    x.active = 5.0;
  }
  dc::Allocation b = a;
  b[0].active = 3.0;

  dc::Allocation first = a;
  const auto r1 = ctx.solve(first, input, w);
  dc::Allocation other = b;
  ctx.solve(other, input, w);
  dc::Allocation again = a;
  const auto r2 = ctx.solve(again, input, w);

  EXPECT_GE(ctx.stats().memo_hits, 1);
  expect_bit_identical(r1, r2, first, again, "memo replay");
}

TEST(IncrementalLp, StatsClassifyWarmAndColdSolves) {
  const auto fleet = two_group_fleet();
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  LoadLpContext ctx(fleet);
  dc::Allocation alloc(fleet.group_count());
  for (auto& a : alloc) {
    a.level = 3;
    a.active = 5.0;
  }

  SlotInput input{30.0, 0.0, 0.06};
  auto c1 = alloc;
  ctx.solve(c1, input, w);  // first solve of the slot: cold
  auto c2 = alloc;
  c2[0].active = 4.0;
  ctx.solve(c2, input, w);  // same slot: warm
  input.lambda = 31.0;      // new slot invalidates the dual point
  auto c3 = alloc;
  ctx.solve(c3, input, w);  // cold again

  EXPECT_EQ(ctx.stats().solves, 3);
  EXPECT_EQ(ctx.stats().cold, 2);
  EXPECT_EQ(ctx.stats().warm, 1);
}

TEST(IncrementalLp, FreshContextReproducesWarmContextBitForBit) {
  // Cache state from an earlier slot must be invisible: a context that has
  // seen unrelated solves at other inputs answers a new slot's first solve
  // exactly like a fresh one.  Within the slot, later solves re-clear warm
  // and agree with the fresh context to the documented epsilon.
  util::Rng rng(4242);
  const auto fleet = random_fleet(rng);
  const auto weights = random_weights(rng);
  const double capacity =
      dc::capped_capacity(fleet, full_alloc(fleet), weights.gamma);
  const SlotInput input{0.5 * capacity, 0.0, 0.07};

  LoadLpContext warm_ctx(fleet);
  dc::Allocation state = full_alloc(fleet);
  for (int i = 0; i < 8; ++i) {  // warm it up on unrelated configurations
    const SlotInput earlier{(0.3 + 0.05 * i) * capacity, 0.0, 0.05};
    auto scratch = state;
    warm_ctx.solve(scratch, earlier, weights);
    gsd_flip(rng, fleet, state);
  }
  auto warm_alloc = state;
  const auto warm = warm_ctx.solve(warm_alloc, input, weights);

  LoadLpContext fresh_ctx(fleet);
  auto fresh_alloc = state;
  const auto fresh = fresh_ctx.solve(fresh_alloc, input, weights);
  expect_bit_identical(fresh, warm, fresh_alloc, warm_alloc, "fresh vs warm");

  for (int i = 0; i < 8; ++i) {
    gsd_flip(rng, fleet, state);
    auto a = state;
    auto b = state;
    const auto first = warm_ctx.solve(a, input, weights);
    const auto second = fresh_ctx.solve(b, input, weights);
    expect_within_epsilon(second, first, b, a, input.lambda,
                          "flip " + std::to_string(i));
  }
  EXPECT_GT(warm_ctx.stats().warm, 0);
}

TEST(IncrementalLp, BitExactAcrossForcedRegimeFlips) {
  // The same forced regime-flip ladder, each step solved cold: a context's
  // first solve of an (input, weights) pair takes the reference regime order
  // and must match balance_loads bit for bit on every kink branch.
  const auto fleet = two_group_fleet();
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const double lambda = 12.0;

  dc::Allocation probe(fleet.group_count());
  for (auto& a : probe) {
    a.level = 3;
    a.active = 5.0;
  }
  auto tmp = probe;
  balance_loads_linear(fleet, tmp, lambda, w.brown_price(0.06), w);
  const double power_a = allocation_facility_kw(fleet, tmp, w.pue);
  balance_loads_linear(fleet, tmp, lambda, 0.0, w);
  const double power_b = allocation_facility_kw(fleet, tmp, w.pue);
  ASSERT_LT(power_a, power_b);

  const auto ladder = regime_ladder(fleet);
  std::set<int> regimes_seen;
  const double onsites[] = {0.0, 0.5 * (power_a + power_b), 10.0 * power_b};
  for (double onsite : onsites) {
    const SlotInput input{lambda, onsite, 0.06};
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      const std::string where =
          "onsite " + std::to_string(onsite) + " step " + std::to_string(i);
      dc::Allocation ref_alloc = ladder[i];
      dc::Allocation inc_alloc = ladder[i];
      const auto ref = balance_loads(fleet, ref_alloc, input, w);
      LoadLpContext ctx(fleet);
      const auto inc = ctx.solve(inc_alloc, input, w);
      EXPECT_EQ(ctx.stats().cold, 1) << where;
      expect_bit_identical(ref, inc, ref_alloc, inc_alloc, where);
      if (ref.feasible) regimes_seen.insert(static_cast<int>(ref.regime));
    }
  }
  // The harness only proves something about the kink if it actually crossed
  // it: all three branches must occur.
  EXPECT_EQ(regimes_seen.size(), 3u);
}

TEST(IncrementalLp, WarmStartRegimeFlipFallsBackToReferenceOrder) {
  // A deterministic allocation ladder sweeps the fleet's power draw from far
  // above to far below the on-site supply, so consecutive solves of one
  // context cross kGridDraw -> kBoundary -> kRenewable.  The warm path must
  // detect each crossing of the cached regime, fall back to the reference
  // order, and stay within the contract throughout.
  const auto fleet = two_group_fleet();
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  const double lambda = 12.0;

  // Power range of the *full* configuration (regime A draw vs delay-minimal
  // draw), as in LoadBalancer.BoundaryRegimePinsPowerToOnsite.
  dc::Allocation probe(fleet.group_count());
  for (auto& a : probe) {
    a.level = 3;
    a.active = 5.0;
  }
  auto tmp = probe;
  balance_loads_linear(fleet, tmp, lambda, w.brown_price(0.06), w);
  const double power_a = allocation_facility_kw(fleet, tmp, w.pue);
  balance_loads_linear(fleet, tmp, lambda, 0.0, w);
  const double power_b = allocation_facility_kw(fleet, tmp, w.pue);
  ASSERT_LT(power_a, power_b);

  // Three on-site supplies: none (all grid), mid (boundary pins / flips as
  // the ladder shrinks the fleet), abundant (all renewable).
  const double onsites[] = {0.0, 0.5 * (power_a + power_b), 10.0 * power_b};
  LoadLpContext ctx(fleet);
  ContractChecker checker(fleet, ctx);
  std::int64_t mid_flips = 0;
  for (double onsite : onsites) {
    const SlotInput input{lambda, onsite, 0.06};
    const std::int64_t flips_before = ctx.stats().regime_flips;
    const auto ladder = regime_ladder(fleet);
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      checker.check(ladder[i], input, w,
                    "onsite " + std::to_string(onsite) + " step " +
                        std::to_string(i));
    }
    if (onsite == onsites[1]) {
      mid_flips = ctx.stats().regime_flips - flips_before;
    }
  }
  // The harness only proves something about the kink if it actually crossed
  // it: all three branches must occur, and on the mid supply the warm path
  // must have detected a cached-regime mismatch and fallen back.
  EXPECT_EQ(checker.regimes.size(), 3u);
  EXPECT_GE(mid_flips, 1);
  EXPECT_GT(checker.warm, 0);
}

// --- out-of-spec allocations throw like the reference -----------------------

dc::Fleet six_server_fleet() {
  const auto reference = dc::ServerSpec::opteron2380();
  std::vector<dc::ServerGroup> groups;
  groups.emplace_back(reference, 6);
  groups.emplace_back(reference.scaled("old", 0.8, 1.15), 6);
  return dc::Fleet(std::move(groups));
}

dc::Allocation top_speed(const dc::Fleet& fleet, double active) {
  dc::Allocation alloc(fleet.group_count());
  for (auto& a : alloc) {
    a.level = 3;
    a.active = active;
  }
  return alloc;
}

SlotWeights out_of_spec_weights() {
  SlotWeights w;
  w.V = 1.0;
  w.beta = 0.01;
  w.gamma = 0.9;
  return w;
}

/// Solves `bad` cold (a fresh context) and warm (after a valid solve of the
/// same slot) and expects both to throw `Error`, as balance_loads does.  The
/// context that threw must then still answer a new slot like the reference.
template <typename Error>
void expect_solve_throws_like_reference(const dc::Fleet& fleet,
                                        const dc::Allocation& bad) {
  const SlotWeights w = out_of_spec_weights();
  const SlotInput input{30.0, 0.0, 0.06};
  auto ref = bad;
  EXPECT_THROW(balance_loads(fleet, ref, input, w), Error);

  LoadLpContext cold(fleet);
  auto cold_alloc = bad;
  EXPECT_THROW(cold.solve(cold_alloc, input, w), Error);
  EXPECT_EQ(cold.stats().cold, 1);

  LoadLpContext warm(fleet);
  auto valid = top_speed(fleet, 5.0);
  warm.solve(valid, input, w);
  auto warm_alloc = bad;
  EXPECT_THROW(warm.solve(warm_alloc, input, w), Error);
  EXPECT_EQ(warm.stats().warm, 1);

  const SlotInput next{25.0, 0.0, 0.07};
  auto ref_next = top_speed(fleet, 4.0);
  auto inc_next = ref_next;
  const auto r = balance_loads(fleet, ref_next, next, w);
  const auto i = warm.solve(inc_next, next, w);
  expect_bit_identical(r, i, ref_next, inc_next, "after the throw");
}

/// solve_linear on `bad`, on a fresh and on a used context, throws `Error`
/// like balance_loads_linear.
template <typename Error>
void expect_linear_throws_like_reference(const dc::Fleet& fleet,
                                         const dc::Allocation& bad) {
  const SlotWeights w = out_of_spec_weights();
  const double mu = w.brown_price(0.06);
  auto ref = bad;
  EXPECT_THROW(balance_loads_linear(fleet, ref, 30.0, mu, w), Error);
  LoadLpContext fresh(fleet);
  auto a = bad;
  EXPECT_THROW(fresh.solve_linear(a, 30.0, mu, w), Error);
  LoadLpContext used(fleet);
  auto valid = top_speed(fleet, 5.0);
  used.solve_linear(valid, 30.0, mu, w);
  auto b = bad;
  EXPECT_THROW(used.solve_linear(b, 30.0, mu, w), Error);
}

TEST(IncrementalLp, TooManyActiveServersThrowsLikeReference) {
  const auto fleet = six_server_fleet();
  auto bad = top_speed(fleet, 5.0);
  bad[1].active = 9.0;  // the group has 6 servers
  expect_solve_throws_like_reference<std::domain_error>(fleet, bad);
}

TEST(IncrementalLp, OutOfRangeLevelThrowsLikeReference) {
  const auto fleet = six_server_fleet();
  for (std::size_t g : {std::size_t{0}, std::size_t{1}}) {  // first and last
    SCOPED_TRACE("group " + std::to_string(g));
    auto bad = top_speed(fleet, 5.0);
    bad[g].level = 7;  // the spec has 4 levels
    expect_solve_throws_like_reference<std::out_of_range>(fleet, bad);
    expect_linear_throws_like_reference<std::out_of_range>(fleet, bad);
  }
}

TEST(IncrementalLp, OversizedAllocationThrowsLikeReference) {
  const auto fleet = six_server_fleet();
  auto bad = top_speed(fleet, 5.0);
  bad.push_back({3, 2.0, 0.0});  // a third group on a two-group fleet
  expect_solve_throws_like_reference<std::out_of_range>(fleet, bad);
  expect_linear_throws_like_reference<std::out_of_range>(fleet, bad);
}

}  // namespace
}  // namespace coca::opt
