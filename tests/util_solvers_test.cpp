// Tests for the scalar solvers: bisection (the workhorse of every dual
// problem in the repository) and golden-section minimization.

#include "util/solvers.hpp"

#include <gtest/gtest.h>

#include <cmath>

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

TEST(BisectWithExpansion, GrowsUpperBound) {
  const auto r = bisect_with_expansion(
      [](double x) { return x - 1000.0; }, 0.0, 1.0, 1e9);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 1000.0, 1e-5);
}

TEST(BisectWithExpansion, HitsLimitGracefully) {
  const auto r = bisect_with_expansion(
      [](double x) { return x - 1000.0; }, 0.0, 1.0, 10.0);
  EXPECT_FALSE(r.converged);
}

TEST(GoldenSection, QuadraticMinimum) {
  const auto r = golden_section_minimize(
      [](double x) { return (x - 3.0) * (x - 3.0) + 2.0; }, -10.0, 10.0);
  EXPECT_NEAR(r.x, 3.0, 1e-6);
  EXPECT_NEAR(r.fx, 2.0, 1e-10);
}

TEST(GoldenSection, BoundaryMinimum) {
  const auto r =
      golden_section_minimize([](double x) { return x; }, 2.0, 5.0);
  EXPECT_NEAR(r.x, 2.0, 1e-6);
}

TEST(GoldenSection, NonSymmetricUnimodal) {
  const auto r = golden_section_minimize(
      [](double x) { return std::exp(x) - 3.0 * x; }, 0.0, 4.0);
  EXPECT_NEAR(r.x, std::log(3.0), 1e-6);
}

}  // namespace
}  // namespace coca::util
