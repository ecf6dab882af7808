#pragma once
// Scalar solvers shared by the optimization layer: bisection root-finding on
// monotone functions and golden-section minimization of unimodal functions.
// These are the only numeric primitives the whole optimization stack needs —
// every dual problem in this repository reduces to a monotone scalar equation.

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

/// Expand [lo, hi] upward (geometrically) until f changes sign or the limit
/// is reached, then bisect.  Used when the dual variable's upper bound is not
/// known a priori.
BisectionResult bisect_with_expansion(const std::function<double(double)>& f,
                                      double lo, double hi_initial,
                                      double hi_limit,
                                      const BisectionOptions& options = {});

struct MinimizeResult {
  double x = 0.0;
  double fx = 0.0;
  int iterations = 0;
};

/// Golden-section search for the minimizer of a unimodal f on [lo, hi].
MinimizeResult golden_section_minimize(const std::function<double(double)>& f,
                                       double lo, double hi,
                                       double x_tol = 1e-9,
                                       int max_iterations = 200);

}  // namespace coca::util
