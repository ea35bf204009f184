/**
 * @file
 * Row-local churn invalidation: CfEngine::clearJob resets only the
 * churned job's latent vector and keeps the rest of the factor cache
 * warm. These tests hold that against the whole-cache alternative
 * (clearJob followed by invalidateFactors(), which cold-starts the
 * next reconstruction with a Jacobi SVD) on the scheduler's SGD
 * options.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cf/engine.hh"
#include "common/rng.hh"
#include "factor_checks.hh"

namespace cuttlesys {
namespace {

constexpr std::size_t kTrainingRows = 16;
constexpr std::size_t kLiveRows = 6;
constexpr std::size_t kCols = 108;
constexpr std::size_t kSeeds = 40;

/** The batch engines' SGD options in CuttleSysScheduler. */
SgdOptions
schedulerOptions()
{
    SgdOptions o;
    o.threads = 4;
    o.svdWarmStart = true;
    o.seed = 501;
    return o;
}

/**
 * A low-rank ground truth for training + live rows, an engine whose
 * live rows hold a warm history, and the cells each live row has
 * observed.
 */
struct ChurnFixture
{
    Matrix truth;
    CfEngine engine;
    std::vector<std::vector<char>> seen;
    Rng rng;

    explicit ChurnFixture(std::uint64_t seed)
        : truth(makeTruth(seed)),
          engine(trainingRows(truth), kLiveRows, kCols,
                 schedulerOptions()),
          seen(kLiveRows, std::vector<char>(kCols, 0)), rng(seed + 1)
    {
        // Each live job arrives with a dozen measured cells, then
        // accretes one cell per quantum over a few warm quanta.
        for (std::size_t j = 0; j < kLiveRows; ++j) {
            for (int k = 0; k < 12; ++k)
                observeRandom(j);
        }
        engine.predict();
        for (int q = 0; q < 4; ++q) {
            for (std::size_t j = 0; j < kLiveRows; ++j)
                observeRandom(j);
            engine.predict();
        }
    }

    static Matrix
    makeTruth(std::uint64_t seed)
    {
        Rng rng(seed);
        const Matrix a = Matrix::random(kTrainingRows + kLiveRows + 1,
                                        4, rng, 0.2, 1.0);
        const Matrix b = Matrix::random(4, kCols, rng, 0.2, 1.0);
        return a.multiply(b);
    }

    static Matrix
    trainingRows(const Matrix &truth)
    {
        Matrix t(kTrainingRows, kCols);
        for (std::size_t r = 0; r < kTrainingRows; ++r)
            for (std::size_t c = 0; c < kCols; ++c)
                t(r, c) = truth(r, c);
        return t;
    }

    /** Truth row of live job @p j; row kLiveRows is the newcomer. */
    double
    liveTruth(std::size_t j, std::size_t c) const
    {
        return truth(kTrainingRows + j, c);
    }

    void
    observeRandom(std::size_t j)
    {
        const auto c = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(kCols) - 1));
        engine.observe(j, c, liveTruth(j, c));
        seen[j][c] = 1;
    }

    /**
     * Churn live job @p j: a newcomer (the spare truth row) takes the
     * slot with @p samples observations.
     */
    void
    churn(std::size_t j, std::size_t samples)
    {
        engine.clearJob(j);
        std::fill(seen[j].begin(), seen[j].end(), 0);
        for (std::size_t k = 0; k < samples; ++k) {
            const std::size_t c = (7 + 31 * k) % kCols;
            engine.observe(j, c, liveTruth(kLiveRows, c));
        }
    }
};

/**
 * RMSE of live jobs [first, kLiveRows) over the cells they never
 * observed, relative to the mean |truth| of those cells.
 */
double
relativeUnseenRmse(const ChurnFixture &f, const Matrix &pred,
                   std::size_t first)
{
    double ss = 0.0, level = 0.0;
    std::size_t n = 0;
    for (std::size_t j = first; j < kLiveRows; ++j) {
        for (std::size_t c = 0; c < kCols; ++c) {
            if (f.seen[j][c])
                continue;
            const double err = pred(j, c) - f.liveTruth(j, c);
            ss += err * err;
            level += std::abs(f.liveTruth(j, c));
            ++n;
        }
    }
    return std::sqrt(ss / static_cast<double>(n)) /
           (level / static_cast<double>(n));
}

TEST(ChurnInvalidationTest, SparseChurnedRowMatchesWholeCacheReset)
{
    // A churned row below the blend threshold is predicted by the
    // neighborhood blend, which never reads the factors: row-local
    // and whole-cache invalidation must agree on it bit for bit.
    const std::size_t threshold = schedulerOptions().rowBlendThreshold;
    ASSERT_GT(threshold, 1u);
    for (std::size_t seed = 0; seed < kSeeds; ++seed) {
        ChurnFixture f(1000 + seed);
        const std::size_t samples = 1 + seed % (threshold - 1);
        f.churn(0, samples);
        ASSERT_EQ(f.engine.observationsForJob(0), samples);

        CfEngine whole = f.engine;
        whole.invalidateFactors();
        const Matrix row_local = f.engine.predict();
        const Matrix reset = whole.predict();
        EXPECT_EQ(std::memcmp(row_local.rowPtr(0), reset.rowPtr(0),
                              kCols * sizeof(double)),
                  0)
            << "seed " << seed << ", " << samples << " samples";
    }
}

TEST(ChurnInvalidationTest, SurvivingRowsStayAtLeastAsAccurate)
{
    // The five live rows that did not churn keep their converged
    // latent vectors under row-local invalidation; a whole-cache
    // reset re-derives them from a cold SVD. On cells the survivors
    // never observed, row-local must never be the less accurate.
    double mean_local = 0.0, mean_whole = 0.0;
    for (std::size_t seed = 0; seed < kSeeds; ++seed) {
        ChurnFixture f(2000 + seed);
        f.churn(0, 2);

        CfEngine whole = f.engine;
        whole.invalidateFactors();
        const Matrix row_local = f.engine.predict();
        const Matrix reset = whole.predict();

        const double local_err = relativeUnseenRmse(f, row_local, 1);
        const double whole_err = relativeUnseenRmse(f, reset, 1);
        EXPECT_LE(local_err, whole_err) << "seed " << seed;
        mean_local += local_err / kSeeds;
        mean_whole += whole_err / kSeeds;
    }
    RecordProperty("mean_rel_rmse_row_local", std::to_string(mean_local));
    RecordProperty("mean_rel_rmse_whole_cache",
                   std::to_string(mean_whole));
}

TEST(ChurnInvalidationTest, StaleRowsAreFoldedInBeforeTheFirstEpoch)
{
    ChurnFixture f(4000);
    f.churn(1, 8);  // stale row with observations
    f.churn(3, 0);  // stale row without
    ASSERT_TRUE(f.engine.hasCachedFactors());
    const SgdFactors before = f.engine.cachedFactors();
    const std::size_t observed = kTrainingRows + 1;
    const std::size_t empty = kTrainingRows + 3;
    ASSERT_TRUE(before.stale[observed]);
    ASSERT_TRUE(before.stale[empty]);

    // No epochs and no post-SGD refit: the pre-epoch fold-in is the
    // only writer of any Q row.
    f.engine.options().maxIterations = 0;
    f.engine.options().foldInRows = false;
    f.engine.predict();
    const SgdFactors &after = f.engine.cachedFactors();

    const auto is_zero = [&after](std::size_t r) {
        return std::all_of(after.qRow(r), after.qRow(r) + after.stride,
                           [](double v) { return v == 0.0; });
    };
    EXPECT_FALSE(is_zero(observed));
    EXPECT_TRUE(is_zero(empty));
    EXPECT_EQ(std::count(after.stale.begin(), after.stale.end(), 1), 0);
    EXPECT_TRUE(sameFactorsExceptRow(before, after, observed));
}

TEST(ChurnInvalidationTest, SvdSweepsCountOnlyColdStarts)
{
    ChurnFixture f(3000);
    // The fixture's last predict() ran warm.
    EXPECT_EQ(f.engine.lastSvdSweeps(), 0u);

    f.churn(2, 8);
    f.engine.predict();
    EXPECT_EQ(f.engine.lastSvdSweeps(), 0u)
        << "a churn on a warm engine must not run the SVD";

    f.engine.invalidateFactors();
    f.engine.predict();
    EXPECT_GT(f.engine.lastSvdSweeps(), 0u);
}

} // namespace
} // namespace cuttlesys
