// Tests for the utility substrate: RNG determinism and distribution sanity,
// statistics (including the log-log exponent fits the benches rely on),
// tables, option parsing and the galloping sorted intersection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/sorted_intersection.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace fl::util {
namespace {

TEST(Rng, DeterministicStreams) {
  StreamFactory f(42);
  auto a = f.node_stream(7);
  auto b = f.node_stream(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DistinctKeysDistinctStreams) {
  StreamFactory f(42);
  auto a = f.node_stream(7);
  auto b = f.node_stream(8);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, TrialStreamsIndependentOfEachOther) {
  StreamFactory f(1);
  auto a = f.trial_stream(3, 1, 0);
  auto b = f.trial_stream(3, 1, 1);
  auto c = f.trial_stream(3, 2, 0);
  EXPECT_NE(a(), b());
  EXPECT_NE(a(), c());
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Xoshiro256 rng(123);
  const std::uint64_t bound = 10;
  std::vector<std::size_t> hist(bound, 0);
  const std::size_t draws = 100000;
  for (std::size_t i = 0; i < draws; ++i) ++hist[rng.below(bound)];
  for (const auto h : hist) {
    EXPECT_GT(h, draws / bound * 8 / 10);
    EXPECT_LT(h, draws / bound * 12 / 10);
  }
}

TEST(Rng, Uniform01InRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Xoshiro256 rng(11);
  std::size_t hits = 0;
  const std::size_t draws = 100000;
  for (std::size_t i = 0; i < draws; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Xoshiro256 rng(13);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, UniformIntCoversRange) {
  Xoshiro256 rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-3, 3));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), -3);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, SampleWithoutReplacement) {
  Xoshiro256 rng(19);
  const auto sample = sample_without_replacement(100, 10, rng);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (const auto s : sample) EXPECT_LT(s, 100u);
  // Degenerate: k >= n returns everything.
  const auto all = sample_without_replacement(5, 10, rng);
  EXPECT_EQ(all.size(), 5u);
}

TEST(Rng, ShuffleIsPermutation) {
  Xoshiro256 rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  shuffle(w, rng);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(median({2.0, 1.0}), 1.5);
}

TEST(Stats, FitLineExact) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{3, 5, 7, 9};  // y = 1 + 2x
  const auto fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, FitLoglogRecoversExponent) {
  // y = 5 * x^{1.5} -> log-log slope 1.5. This is the measurement machinery
  // behind the E3/E6 exponent benches.
  std::vector<double> x, y;
  for (double v : {256.0, 512.0, 1024.0, 2048.0, 4096.0}) {
    x.push_back(v);
    y.push_back(5.0 * std::pow(v, 1.5));
  }
  const auto fit = fit_loglog(x, y);
  EXPECT_NEAR(fit.slope, 1.5, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Stats, ContractViolations) {
  EXPECT_THROW(percentile({}, 50), ContractViolation);
  EXPECT_THROW(fit_line({1}, {1}), ContractViolation);
  EXPECT_THROW(fit_loglog({1, -2}, {1, 2}), ContractViolation);
}

TEST(Table, AlignsAndCounts) {
  Table t({"name", "value"});
  t.add("alpha", 1.5);
  t.add("beta", std::size_t{42});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
  std::ostringstream os;
  t.print(os, "demo");
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add(1, 2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsAritiyMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Options, ParsesAllForms) {
  const char* argv[] = {"prog", "--n", "128", "--ratio=2.5", "--verbose",
                        "--sizes=1,2,3"};
  Options opt(6, argv);
  EXPECT_EQ(opt.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(opt.get_double("ratio", 0.0), 2.5);
  EXPECT_TRUE(opt.get_bool("verbose", false));
  const auto sizes = opt.get_int_list("sizes", {});
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[2], 3);
  EXPECT_EQ(opt.get_int("missing", 7), 7);
}

TEST(Options, RejectsMalformedInput) {
  const char* bad1[] = {"prog", "notanoption"};
  EXPECT_THROW(Options(2, bad1), ContractViolation);
  const char* bad2[] = {"prog", "--n", "abc"};
  Options opt(3, bad2);
  EXPECT_THROW(opt.get_int("n", 0), ContractViolation);
  // An empty value is not 0, and an out-of-range one does not clamp.
  const char* empty[] = {"prog", "--seed=", "--x=", "--ns="};
  const Options blank(4, empty);
  EXPECT_THROW(blank.get_int("seed", 1), ContractViolation);
  EXPECT_THROW(blank.get_double("x", 1.0), ContractViolation);
  EXPECT_THROW(blank.get_int_list("ns", {1}), ContractViolation);
  const char* huge[] = {"prog", "--big=99999999999999999999", "--x=1e999",
                        "--ns=4,99999999999999999999"};
  const Options range(4, huge);
  EXPECT_THROW(range.get_int("big", 1), ContractViolation);
  EXPECT_THROW(range.get_double("x", 1.0), ContractViolation);
  EXPECT_THROW(range.get_int_list("ns", {1}), ContractViolation);
  const char* typo[] = {"prog", "--quick", "--capcity"};
  const Options named(3, typo);
  EXPECT_NO_THROW(named.reject_unknown({"quick", "capcity"}));
  try {
    named.reject_unknown({"quick", "capacity"});
    FAIL() << "--capcity was accepted";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--capcity"), std::string::npos) << what;
    EXPECT_NE(what.find("--quick, --capacity"), std::string::npos) << what;
  }
}

// ------------------------------------------------- sorted intersection

using Ids = std::vector<std::uint64_t>;

/// The helper's hits for (a, b), checked against std::set_intersection:
/// every hit is a real match, both indices strictly ascend, and the matched
/// values are exactly the reference intersection.
std::vector<std::pair<std::size_t, std::size_t>> checked_hits(const Ids& a,
                                                              const Ids& b) {
  std::vector<std::pair<std::size_t, std::size_t>> hits;
  for_each_common(a, b, [&](std::size_t i, std::size_t j) {
    hits.emplace_back(i, j);
  });
  Ids got;
  for (std::size_t h = 0; h < hits.size(); ++h) {
    const auto [i, j] = hits[h];
    EXPECT_LT(i, a.size());
    EXPECT_LT(j, b.size());
    if (i >= a.size() || j >= b.size()) break;
    EXPECT_EQ(a[i], b[j]);
    if (h > 0) {
      EXPECT_LT(hits[h - 1].first, i);
      EXPECT_LT(hits[h - 1].second, j);
    }
    got.push_back(a[i]);
  }
  Ids want;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(want));
  EXPECT_EQ(got, want);
  return hits;
}

/// Check (a, b) and (b, a): the same matches with the indices swapped.
void check_both_orders(const Ids& a, const Ids& b) {
  const auto ab = checked_hits(a, b);
  const auto ba = checked_hits(b, a);
  ASSERT_EQ(ab.size(), ba.size());
  for (std::size_t h = 0; h < ab.size(); ++h) {
    EXPECT_EQ(ab[h].first, ba[h].second);
    EXPECT_EQ(ab[h].second, ba[h].first);
  }
}

/// `n` strictly ascending values starting at `from`, gaps drawn in [1, gap].
Ids ascending(std::size_t n, std::uint64_t from, std::uint64_t gap,
              Xoshiro256& rng) {
  Ids v;
  v.reserve(n);
  std::uint64_t x = from;
  for (std::size_t i = 0; i < n; ++i) {
    x += 1 + rng.below(gap);
    v.push_back(x);
  }
  return v;
}

TEST(SortedIntersection, EmptyAndSingleElementInputs) {
  const Ids empty;
  const Ids one{7};
  const Ids many{1, 3, 7, 9};
  EXPECT_TRUE(checked_hits(empty, empty).empty());
  check_both_orders(empty, many);
  check_both_orders(one, many);
  check_both_orders(one, one);
  check_both_orders(Ids{0}, many);
  check_both_orders(Ids{10}, many);
  check_both_orders(Ids{1}, many);
  check_both_orders(Ids{9}, many);
  EXPECT_EQ(checked_hits(one, many),
            (std::vector<std::pair<std::size_t, std::size_t>>{{0, 2}}));
  EXPECT_EQ(checked_hits(many, one),
            (std::vector<std::pair<std::size_t, std::size_t>>{{2, 0}}));
}

TEST(SortedIntersection, IdenticalInputsHitEveryIndexOnce) {
  Xoshiro256 rng(5);
  for (const std::size_t n : {1u, 2u, 3u, 17u, 1000u}) {
    const Ids v = ascending(n, 0, 4, rng);
    const auto hits = checked_hits(v, v);
    ASSERT_EQ(hits.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[i], std::make_pair(i, i));
  }
}

TEST(SortedIntersection, DisjointPrefixAndSuffixRanges) {
  Xoshiro256 rng(9);
  for (const std::size_t n : {1u, 5u, 64u, 3000u}) {
    const Ids low = ascending(n, 0, 3, rng);
    const Ids high = ascending(2 * n + 1, low.back() + 1, 3, rng);
    EXPECT_TRUE(checked_hits(low, high).empty());
    EXPECT_TRUE(checked_hits(high, low).empty());
    // Interleaved but never equal: evens against odds.
    Ids evens, odds;
    for (std::uint64_t x = 0; x < 2 * n; ++x)
      (x % 2 == 0 ? evens : odds).push_back(x);
    EXPECT_TRUE(checked_hits(evens, odds).empty());
    EXPECT_TRUE(checked_hits(odds, evens).empty());
  }
}

TEST(SortedIntersection, MatchesSetIntersectionAcrossSizeRatios) {
  Xoshiro256 rng(31);
  // (short size, long/short ratio): 1:1 up to 1:100,000.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {200, 1}, {150, 2}, {100, 7},   {60, 100},
      {20, 1000}, {3, 10000}, {1, 100000}, {2, 100000}};
  for (const auto& [short_n, ratio] : shapes) {
    for (int rep = 0; rep < 3; ++rep) {
      const Ids longer = ascending(short_n * ratio, 0, 3, rng);
      // Half the short list is drawn from the long one, half is random in
      // (and just past) its range; duplicates collapse.
      Ids shorter;
      for (std::size_t i = 0; i < short_n; ++i) {
        shorter.push_back(i % 2 == 0 ? longer[rng.index(longer.size())]
                                     : rng.below(longer.back() + 8));
      }
      std::sort(shorter.begin(), shorter.end());
      shorter.erase(std::unique(shorter.begin(), shorter.end()),
                    shorter.end());
      SCOPED_TRACE(testing::Message() << short_n << " : " << longer.size());
      check_both_orders(shorter, longer);
    }
  }
}

}  // namespace
}  // namespace fl::util
