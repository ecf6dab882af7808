// Tests for the scalar searches: bisection (the reference load clearing's
// root-finder) and the multiplier search every priced constraint uses.

#include "util/solvers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace coca::util {
namespace {

TEST(Bisect, LinearRoot) {
  const auto r = bisect([](double x) { return 2.0 * x - 3.0; }, 0.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 1.5, 1e-9);
}

TEST(Bisect, DecreasingFunction) {
  const auto r = bisect([](double x) { return 5.0 - x; }, 0.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 5.0, 1e-9);
}

TEST(Bisect, NonlinearRoot) {
  const auto r = bisect([](double x) { return std::exp(x) - 7.0; }, 0.0, 5.0);
  EXPECT_NEAR(r.x, std::log(7.0), 1e-8);
}

TEST(Bisect, RootAtEndpoint) {
  const auto r = bisect([](double x) { return x; }, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
}

TEST(Bisect, NoSignChangeReturnsClosestEndpoint) {
  const auto r = bisect([](double x) { return x + 10.0; }, 0.0, 1.0);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.x, 0.0);  // |f(0)| = 10 < |f(1)| = 11
}

TEST(Bisect, RespectsFTolEarlyStop) {
  BisectionOptions options;
  options.f_tol = 0.5;
  int evals = 0;
  const auto r = bisect(
      [&](double x) {
        ++evals;
        return x - 2.0;
      },
      0.0, 4.0, options);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(std::abs(r.fx), 0.5);
  EXPECT_LT(evals, 10);
}

TEST(Bisect, StepFunctionConvergesToJump) {
  // Discontinuous monotone function: bisection pins the jump location.
  const auto r = bisect([](double x) { return x < 2.5 ? -1.0 : 1.0; }, 0.0,
                        10.0);
  EXPECT_NEAR(r.x, 2.5, 1e-6);
}

TEST(Bisect, ReturnsTheLastMidpointOnEitherSide) {
  // f(x) = x - 1/3 on [0, 1]: the first midpoint 0.5 lies right of the
  // root, the second (0.25) left of it.  bisect returns whichever came last.
  const auto f = [](double x) { return x - 1.0 / 3.0; };
  BisectionOptions options;
  options.f_tol = 0.0;
  options.max_iterations = 1;
  const auto one = bisect(f, 0.0, 1.0, options);
  EXPECT_EQ(one.x, 0.5);
  EXPECT_GT(one.fx, 0.0);
  options.max_iterations = 2;
  const auto two = bisect(f, 0.0, 1.0, options);
  EXPECT_EQ(two.x, 0.25);
  EXPECT_LT(two.fx, 0.0);
  // A decreasing excess with a jump (a constraint met from 0.7 on): the
  // last midpoint is within 1e-12 of the jump yet on the side that misses,
  // so a caller taking root.x as "meets the constraint" would be wrong.
  options.max_iterations = 200;
  options.x_tol = 1e-12;
  const auto jump = bisect([](double x) { return x < 0.7 ? 1.0 : -1.0; },
                           0.0, 1.0, options);
  EXPECT_NEAR(jump.x, 0.7, 1e-12);
  EXPECT_LT(jump.x, 0.7);
  EXPECT_GT(jump.fx, 0.0);
}

// A staircase value (integral server counts make the ladder's power one):
// 100 - floor(10*sqrt(m)), target 70, so the met set is m >= 9.  The search
// keeps the cheapest probe it checked that meets the target.
TEST(SmallestMultiplier, KeepsTheBestMetProbeOnAStaircase) {
  const auto value = [](double m) {
    return 100.0 - std::floor(10.0 * std::sqrt(m));
  };
  for (double hint : {0.0, 1.0, 9.0, 50.0, 1e9}) {
    std::vector<double> probed;
    double kept = -1.0;
    const auto search = smallest_multiplier(
        [&](double m) {
          probed.push_back(m);
          return MultiplierProbe{value(m), m};  // objective rises with m
        },
        [&] { kept = probed.back(); }, 70.0, value(0.0), 1e6, hint);
    ASSERT_TRUE(search.met) << hint;
    EXPECT_EQ(search.probes, static_cast<int>(probed.size()));
    EXPECT_LE(search.probes, 60);
    EXPECT_EQ(kept, search.multiplier);
    EXPECT_LE(value(search.multiplier), 70.0);
    // It stopped on the step that meets the target, or at a 1e-4 bracket
    // around the jump to it.
    double nearest_miss = 0.0;
    for (double m : probed) {
      if (value(m) <= 70.0) {
        EXPECT_GE(m, search.multiplier);  // the cheapest met probe is kept
      } else {
        nearest_miss = std::max(nearest_miss, m);
      }
    }
    EXPECT_TRUE(value(search.multiplier) == 70.0 ||
                search.multiplier - nearest_miss <= 1e-4 * search.multiplier)
        << hint;
  }
}

// An infeasible probe reports +inf (a miss), even at m = 0.
TEST(SmallestMultiplier, InfiniteValueIsAMiss) {
  const auto search = smallest_multiplier(
      [](double m) {
        return MultiplierProbe{
            m < 4.0 ? std::numeric_limits<double>::infinity() : 1.0, m};
      },
      [] {}, 2.0, std::numeric_limits<double>::infinity(), 100.0, 1.0);
  ASSERT_TRUE(search.met);
  EXPECT_GE(search.multiplier, 4.0);
  EXPECT_LE(search.multiplier, 4.0 * (1.0 + 1e-3));
}

}  // namespace
}  // namespace coca::util
