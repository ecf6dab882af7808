#include "util/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace coca::util {

BisectionResult bisect(const std::function<double(double)>& f, double lo,
                       double hi, const BisectionOptions& options) {
  BisectionResult result;
  double flo = f(lo);
  double fhi = f(hi);
  if (std::abs(flo) <= options.f_tol) {
    return {lo, flo, 0, true};
  }
  if (std::abs(fhi) <= options.f_tol) {
    return {hi, fhi, 0, true};
  }
  if (flo * fhi > 0.0) {
    // No sign change: report the endpoint with the smaller magnitude.
    if (std::abs(flo) < std::abs(fhi)) return {lo, flo, 0, false};
    return {hi, fhi, 0, false};
  }
  double mid = lo;
  double fmid = flo;
  int iter = 0;
  while (iter < options.max_iterations && (hi - lo) > options.x_tol) {
    ++iter;
    mid = 0.5 * (lo + hi);
    fmid = f(mid);
    if (std::abs(fmid) <= options.f_tol) break;
    if (flo * fmid <= 0.0) {
      hi = mid;
      fhi = fmid;
    } else {
      lo = mid;
      flo = fmid;
    }
  }
  result.x = mid;
  result.fx = fmid;
  result.iterations = iter;
  result.converged = true;
  return result;
}

MultiplierSearch smallest_multiplier(
    const std::function<MultiplierProbe(double)>& probe,
    const std::function<void()>& keep, double target, double value_at_zero,
    double frugal, double hint) {
  constexpr double kMiss = std::numeric_limits<double>::infinity();
  // The value falls roughly linearly in u = ln(offset + m); the offset
  // keeps m = 0 finite.
  const double offset = 1e-9 * frugal;
  const auto to_u = [&](double m) { return std::log(offset + m); };
  const double tol = 1e-5 * std::max(1.0, target);
  // The bracket: m_lo misses the target by f_lo > 0, m_hi meets it; g_* are
  // the Illinois-weighted excesses, `slope` the secant (in u) through the
  // last two misses, `moved` the end that moved last (+1 lo, -1 hi).
  double m_lo = 0.0, f_lo = value_at_zero - target, g_lo = f_lo, slope = 0;
  double m_hi = frugal, f_hi = 0.0, g_hi = 0.0;
  double kept_objective = kMiss;
  int moved = 0;
  double m = std::min(hint > 0.0 ? hint : offset, frugal);
  MultiplierSearch search;
  while (search.probes < 60) {
    const MultiplierProbe at_m = probe(m);
    ++search.probes;
    const double f = at_m.value - target;
    if (f <= 0.0) {
      if (!search.met || at_m.objective < kept_objective) {
        keep();
        kept_objective = at_m.objective;
        search.multiplier = m;
        search.met = true;
      }
      m_hi = m;
      f_hi = g_hi = f;
      if (moved < 0) g_lo *= 0.5;
      moved = -1;
    } else {
      if (m >= frugal) break;  // even the frugal limit misses
      slope = (f - f_lo) / (to_u(m) - to_u(m_lo));
      m_lo = m;
      f_lo = g_lo = f;
      if (moved > 0) g_hi *= 0.5;
      moved = 1;
    }
    if (!search.met) {  // the first probe missed: is the target attainable?
      m = frugal;
      continue;
    }
    if (std::min(-f_hi, f_lo - f_hi) <= tol) break;
    if (m_hi - m_lo <= 1e-4 * m_hi) break;
    const double u_lo = to_u(m_lo);
    const double width = to_u(m_hi) - u_lo;
    double u = g_lo < kMiss ? u_lo + width * g_lo / (g_lo - g_hi)
                            : u_lo + 0.5 * width;
    if (m_hi == frugal) {
      // Only the far frugal limit met the target: extrapolate the last two
      // misses, overshooting by half, growing the price 1.25x to 16x.
      const double step =
          slope < 0.0 && f_lo < kMiss
              ? std::clamp(-1.5 * f_lo / slope, std::log(1.25), std::log(16.0))
              : std::log(16.0);
      if (step < width) u = u_lo + step;
    }
    m = std::exp(std::clamp(u, u_lo + 1e-3 * width, u_lo + 0.999 * width)) -
        offset;
  }
  return search;
}

}  // namespace coca::util
