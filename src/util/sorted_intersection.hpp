// Intersection of two strictly ascending vectors by galloping search
// (Bentley & Yao, "An almost optimal algorithm for unbounded searching",
// IPL 1976). The distributed Sampler peels its edge pools with it: a
// cluster's incident edge-ID list meets a node's sorted incidence list, and
// either one may be the far longer of the two.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace fl::util {

/// Call `hit(i, j)` for every pair with `a[i] == b[j]`, in ascending order
/// of both `i` and `j`. Both inputs must be strictly ascending. The walk
/// visits each element of the shorter input once and gallops through the
/// longer one (exponential steps, then a binary search inside the bracket),
/// so it costs O(s · log(l / s + 1)) comparisons for sizes s <= l.
template <typename T, typename Hit>
void for_each_common(const std::vector<T>& a, const std::vector<T>& b,
                     Hit&& hit) {
  const bool swapped = b.size() < a.size();
  const std::vector<T>& shorter = swapped ? b : a;
  const std::vector<T>& longer = swapped ? a : b;
  auto lo = longer.begin();
  const auto end = longer.end();
  for (std::size_t i = 0; i < shorter.size() && lo != end; ++i) {
    const T& x = shorter[i];
    // Grow the bracket until its last element is >= x; everything before
    // lo + bound / 2 is known to be < x.
    const auto remain = static_cast<std::size_t>(end - lo);
    std::size_t bound = 1;
    while (bound <= remain && lo[bound - 1] < x) bound *= 2;
    lo = std::lower_bound(lo + bound / 2, lo + std::min(bound, remain), x);
    if (lo == end || x < *lo) continue;
    const auto j = static_cast<std::size_t>(lo - longer.begin());
    if (swapped)
      hit(j, i);
    else
      hit(i, j);
    ++lo;
  }
}

}  // namespace fl::util
