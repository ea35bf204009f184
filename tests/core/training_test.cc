/**
 * @file
 * Tests for offline training-table construction.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core_fixture.hh"

namespace cuttlesys {
namespace {

TEST(TrainingTest, TablesHaveExpectedShapes)
{
    const TrainingTables &tables = testTrainingTables(0);
    EXPECT_EQ(tables.bips.rows(), 21u); // 16 batch + 5 LC services
    EXPECT_EQ(tables.bips.cols(), kNumJobConfigs);
    EXPECT_EQ(tables.power.rows(), 21u);
    EXPECT_EQ(tables.latency.rows(), 5u * 3u); // 5 LC apps x 3 loads
    EXPECT_EQ(tables.latency.cols(), kNumJobConfigs);
}

TEST(TrainingTest, AllEntriesPositive)
{
    const TrainingTables &tables = testTrainingTables(0);
    for (std::size_t r = 0; r < tables.bips.rows(); ++r) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
            EXPECT_GT(tables.bips(r, c), 0.0);
            EXPECT_GT(tables.power(r, c), 0.0);
        }
    }
    for (std::size_t r = 0; r < tables.latency.rows(); ++r)
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            EXPECT_GT(tables.latency(r, c), 0.0);
}

TEST(TrainingTest, BipsRowsAreApproximatelyLowRank)
{
    // The premise of the CF approach (Section V): training rows share
    // latent structure. Check that the top few singular values carry
    // nearly all the energy.
    const TrainingTables &tables = testTrainingTables(0);
    const SvdResult svd = jacobiSvd(tables.bips.transpose());
    double total = 0.0, top4 = 0.0;
    for (std::size_t i = 0; i < svd.singularValues.size(); ++i) {
        const double s2 =
            svd.singularValues[i] * svd.singularValues[i];
        total += s2;
        if (i < 4)
            top4 += s2;
    }
    EXPECT_GT(top4 / total, 0.95);
}

TEST(TrainingTest, LatencyRowsSpanLoads)
{
    // Higher-load rows should dominate lower-load rows config-wise.
    const TrainingTables &tables = testTrainingTables(0);
    // Row layout: (app0/0.25, app0/0.55, app0/0.85, app1/0.25, ...).
    for (std::size_t app = 0; app < 5; ++app) {
        const std::size_t lo = app * 3, hi = app * 3 + 2;
        std::size_t higher = 0;
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            higher += tables.latency(hi, c) >=
                      tables.latency(lo, c) ? 1 : 0;
        EXPECT_GT(higher, kNumJobConfigs / 2)
            << "high-load tail should usually dominate (app "
            << app << ")";
    }
}

/** FNV-1a over the bit patterns of @p n doubles, chained. */
std::uint64_t
hashBits(std::uint64_t h, const double *x, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &x[i], sizeof(bits));
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

TEST(TrainingTest, PinnedTableBits)
{
    // The offline characterization seeds every reconstruction, so a
    // change to how it is computed (queue simulation, percentile,
    // scheduling of the independent cells) must not move one bit of
    // the calibrated loads or of any training table.
    std::vector<double> max_qps;
    for (const AppProfile &app : calibratedTailbench())
        max_qps.push_back(app.maxQps);
    const TrainingTables &tables = testTrainingTables(0);

    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = hashBits(h, max_qps.data(), max_qps.size());
    for (const Matrix *m : {&tables.bips, &tables.power, &tables.latency})
        h = hashBits(h, m->data(), m->rows() * m->cols());
    h = hashBits(h, tables.latencyRowUtil.data(),
                 tables.latencyRowUtil.size());
    EXPECT_EQ(h, 0x144a25199bc2ea95ULL) << "digest 0x" << std::hex << h;
}

} // namespace
} // namespace cuttlesys
