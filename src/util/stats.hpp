// Statistics helpers used by the benchmark harness and tests.
//
// The reproduction measures *growth exponents* (e.g. "spanner size grows as
// n^{1+1/(2^{k+1}-1)}"), so besides the usual accumulator we provide a
// log-log least-squares slope fit: fitting log(y) = a + b*log(x) over a sweep
// of problem sizes recovers the exponent b, which is the quantity the paper's
// theorems predict.
#pragma once

#include <cstddef>
#include <vector>

namespace fl::util {

/// Streaming accumulator: count / mean / variance (Welford) / min / max.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample (linear interpolation between order statistics).
/// `q` in [0, 100]. The input is copied; callers keep their ordering.
double percentile(std::vector<double> sample, double q);

/// Median shorthand.
inline double median(std::vector<double> sample) {
  return percentile(std::move(sample), 50.0);
}

/// Result of an ordinary least-squares line fit y = intercept + slope * x.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;  ///< Coefficient of determination in [0, 1].
};

/// OLS fit over (x, y) pairs. Requires >= 2 distinct x values.
LineFit fit_line(const std::vector<double>& x, const std::vector<double>& y);

/// Fit log2(y) = a + b*log2(x); returns b as `slope`. All inputs must be > 0.
/// This is how the benches estimate growth exponents from size sweeps.
LineFit fit_loglog(const std::vector<double>& x, const std::vector<double>& y);

/// Geometric mean of positive samples.
double geometric_mean(const std::vector<double>& sample);

}  // namespace fl::util
