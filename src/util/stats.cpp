#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace fl::util {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> sample, double q) {
  FL_REQUIRE(!sample.empty(), "percentile() of an empty sample");
  FL_REQUIRE(q >= 0.0 && q <= 100.0, "percentile() rank out of [0,100]");
  std::sort(sample.begin(), sample.end());
  if (sample.size() == 1) return sample.front();
  const double rank = q / 100.0 * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sample[lo] + frac * (sample[hi] - sample[lo]);
}

LineFit fit_line(const std::vector<double>& x, const std::vector<double>& y) {
  FL_REQUIRE(x.size() == y.size(), "fit_line() needs equal-length vectors");
  FL_REQUIRE(x.size() >= 2, "fit_line() needs >= 2 points");
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n, my = sy / n;
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx, dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  FL_REQUIRE(sxx > 0.0, "fit_line() needs >= 2 distinct x values");
  LineFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

LineFit fit_loglog(const std::vector<double>& x,
                   const std::vector<double>& y) {
  FL_REQUIRE(x.size() == y.size(), "fit_loglog() needs equal-length vectors");
  std::vector<double> lx(x.size()), ly(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    FL_REQUIRE(x[i] > 0.0 && y[i] > 0.0, "fit_loglog() needs positive data");
    lx[i] = std::log2(x[i]);
    ly[i] = std::log2(y[i]);
  }
  return fit_line(lx, ly);
}

}  // namespace fl::util
