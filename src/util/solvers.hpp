#pragma once
// Scalar searches shared by the optimization layer.
//
//  * bisect: plain bisection on a monotone function, for the load-clearing
//    searches whose results are pinned bit for bit against the reference
//    (opt::balance_loads and opt::LoadLpContext).
//  * smallest_multiplier: the one search over a price multiplier.  Every
//    dual problem here that prices a constraint with one multiplier (the
//    renewable kink of P3, PerfectHP's hourly caps, tiered-tariff block
//    boundaries, the peak-power cap, offline OPT's budget) drives a
//    nonincreasing quantity to a target through it.

#include <functional>

namespace coca::util {

struct BisectionResult {
  double x = 0.0;       ///< located point
  double fx = 0.0;      ///< f(x) at the located point
  int iterations = 0;   ///< iterations used
  bool converged = false;
};

struct BisectionOptions {
  double x_tol = 1e-10;    ///< absolute tolerance on the bracket width
  double f_tol = 1e-12;    ///< stop early if |f(x)| falls below this
  int max_iterations = 200;
};

/// Find x in [lo, hi] with f(x) ~= 0 for a monotone (either direction) f.
/// Requires f(lo) and f(hi) to bracket zero; if both have the same sign the
/// closer endpoint is returned with converged=false.  Otherwise the result
/// is the *last midpoint* evaluated, which can lie on either side of the
/// root: a caller that needs a point on a given side (say, one that meets a
/// constraint) must check the sign of fx itself.  At a jump of f the last
/// midpoint can sit on the wrong side however tight x_tol is.
BisectionResult bisect(const std::function<double(double)>& f, double lo,
                       double hi, const BisectionOptions& options = {});

/// One probe of a multiplier search.
struct MultiplierProbe {
  double value = 0.0;      ///< compared with the target; +inf is a miss
  double objective = 0.0;  ///< ranks the probes that met the target
};

struct MultiplierSearch {
  double multiplier = 0.0;  ///< the kept probe's multiplier
  bool met = false;         ///< some probe met the target
  int probes = 0;           ///< probes evaluated
};

/// The smallest m in (0, frugal] whose probe(m).value is at most `target`,
/// for a value nonincreasing (and piecewise smooth, possibly a staircase)
/// in m, given its value at m = 0 (above the target): a bracketed,
/// safeguarded Illinois secant on ln(1e-9*frugal + m).  The first probe is
/// at `hint` (0: cold); if it misses, the frugal limit is probed next and
/// alone decides `met`.  Stops once the kept probe is within 1e-5 of the
/// target (or of the nearest miss), the bracket within 1e-4, or after 60
/// probes.  Keeps the lowest-objective probe that met the target — always a
/// probe it checked: `keep` is called right after that probe, so the caller
/// can take the state its probe left behind.
MultiplierSearch smallest_multiplier(
    const std::function<MultiplierProbe(double)>& probe,
    const std::function<void()>& keep, double target, double value_at_zero,
    double frugal, double hint);

}  // namespace coca::util
