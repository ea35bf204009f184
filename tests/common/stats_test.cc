/**
 * @file
 * Tests for the descriptive-statistics helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace cuttlesys {
namespace {

TEST(StatsTest, PercentileOfSingleton)
{
    std::vector<double> v{3.5};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 3.5);
    EXPECT_DOUBLE_EQ(percentile(v, 99.0), 3.5);
}

TEST(StatsTest, PercentileEndpoints)
{
    std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(StatsTest, PercentileInterpolates)
{
    std::vector<double> v{0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 99.0), 9.9);
}

/**
 * The percentile definition written out longhand: sort the whole
 * sample, then interpolate between the two order statistics around
 * rank p/100 * (n-1).
 */
double
sortThenInterpolate(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    if (v.size() == 1)
        return v.front();
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

TEST(PercentileTest, SelectionMatchesSortReference)
{
    // Both overloads must return the reference's exact bits, whatever
    // algorithm finds the two order statistics. Samples draw from a
    // small value set (heavy ties, including -0.0 next to 0.0) mixed
    // with continuous values. NaN inputs are out of contract: they
    // have no total order, so no percentile is defined for them.
    Rng rng(2026);
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 64; ++n)
        sizes.push_back(n);
    for (std::size_t n = 101; n < 2000; n += 97)
        sizes.push_back(n);
    sizes.push_back(2000);
    const double ps[] = {0.0, 0.1, 25.0, 50.0, 95.0, 99.0, 99.9, 100.0};

    std::vector<double> scratch{7.0, -3.0}; // stale contents
    for (const std::size_t n : sizes) {
        std::vector<double> v(n);
        for (double &x : v) {
            const auto tie = rng.uniformInt(-3, 5);
            x = rng.bernoulli(0.6) ? (tie == 0 ? -0.0 : 0.25 * tie)
                                   : rng.uniform(-2.0, 2.0);
        }
        const std::vector<double> original = v;
        for (const double p : ps) {
            const double want = sortThenInterpolate(v, p);
            const double plain = percentile(v, p);
            const double reused = percentile(v, p, scratch);
            EXPECT_EQ(std::memcmp(&plain, &want, sizeof(double)), 0)
                << "n=" << n << " p=" << p << ": " << plain
                << " vs " << want;
            EXPECT_EQ(std::memcmp(&reused, &want, sizeof(double)), 0)
                << "n=" << n << " p=" << p << ": " << reused
                << " vs " << want;
        }
        // The input span is read, never reordered.
        EXPECT_EQ(v, original);
    }
}

TEST(StatsTest, PercentileRejectsOutOfRange)
{
    std::vector<double> v{1.0};
    EXPECT_THROW(percentile(v, -1.0), PanicError);
    EXPECT_THROW(percentile(v, 101.0), PanicError);
}

TEST(StatsTest, MeanAndStddev)
{
    std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(v), 5.0);
    EXPECT_NEAR(stddev(v), 2.138, 1e-3);
}

TEST(StatsTest, StddevOfSingletonIsZero)
{
    std::vector<double> v{42.0};
    EXPECT_DOUBLE_EQ(stddev(v), 0.0);
}

TEST(StatsTest, GeomeanBasic)
{
    std::vector<double> v{1.0, 4.0, 16.0};
    EXPECT_NEAR(geomean(v), 4.0, 1e-12);
}

TEST(StatsTest, GeomeanRejectsNonPositive)
{
    std::vector<double> v{1.0, 0.0};
    EXPECT_THROW(geomean(v), PanicError);
}

TEST(StatsTest, GeomeanIsScaleEquivariant)
{
    std::vector<double> v{2.0, 3.0, 5.0, 7.0};
    std::vector<double> scaled;
    for (double x : v)
        scaled.push_back(3.0 * x);
    EXPECT_NEAR(geomean(scaled), 3.0 * geomean(v), 1e-12);
}

TEST(StatsTest, MinMax)
{
    std::vector<double> v{3.0, -1.0, 7.0};
    EXPECT_DOUBLE_EQ(minValue(v), -1.0);
    EXPECT_DOUBLE_EQ(maxValue(v), 7.0);
}

TEST(StatsTest, BoxPlotQuartiles)
{
    std::vector<double> v;
    for (int i = 1; i <= 101; ++i)
        v.push_back(static_cast<double>(i));
    const BoxPlot box = boxPlot(v);
    EXPECT_DOUBLE_EQ(box.median, 51.0);
    EXPECT_DOUBLE_EQ(box.q1, 26.0);
    EXPECT_DOUBLE_EQ(box.q3, 76.0);
    EXPECT_DOUBLE_EQ(box.p5, 6.0);
    EXPECT_DOUBLE_EQ(box.p95, 96.0);
    EXPECT_TRUE(box.outliers.empty());
}

TEST(StatsTest, BoxPlotFlagsOutliers)
{
    std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 1000};
    const BoxPlot box = boxPlot(v);
    ASSERT_EQ(box.outliers.size(), 1u);
    EXPECT_DOUBLE_EQ(box.outliers.front(), 1000.0);
    EXPECT_LE(box.whiskerHi, 9.0);
}

TEST(StatsTest, RelativeErrorPct)
{
    EXPECT_DOUBLE_EQ(relativeErrorPct(11.0, 10.0), 10.0);
    EXPECT_DOUBLE_EQ(relativeErrorPct(9.0, 10.0), -10.0);
    EXPECT_DOUBLE_EQ(relativeErrorPct(10.0, 10.0), 0.0);
}

TEST(StatsTest, RelativeErrorPctGuardsZeroActual)
{
    // Must not divide by zero; uses a small floor instead.
    const double err = relativeErrorPct(1e-12, 0.0);
    EXPECT_TRUE(std::isfinite(err));
}

TEST(StatsTest, RunningStatsMatchesBatch)
{
    std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    RunningStats rs;
    for (double x : v)
        rs.add(x);
    EXPECT_EQ(rs.count(), v.size());
    EXPECT_DOUBLE_EQ(rs.mean(), mean(v));
    EXPECT_NEAR(rs.stddev(), stddev(v), 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), 2.0);
    EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(StatsTest, RunningStatsEmptyIsZero)
{
    RunningStats rs;
    EXPECT_EQ(rs.count(), 0u);
    EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
    EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

} // namespace
} // namespace cuttlesys
