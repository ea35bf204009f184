/**
 * @file
 * Tests for the batch-side policy helpers: the greedy knapsack warm
 * start's feasibility invariants, the cap-enforcement pass's way
 * reclamation, and the graded power repair / budget re-fit the
 * incremental fast path uses to track budget wiggles.
 */

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "config/job_config.hh"
#include "core/batch_policy.hh"

namespace cuttlesys {
namespace {

/**
 * The quantum's prepared objective over two prediction tables, built
 * the way the runtime builds it; the batch-policy passes read it.
 */
struct PreparedTables
{
    ObjectiveContext ctx;
    PreparedObjective prepared;

    PreparedTables(const Matrix &bips, const Matrix &power)
    {
        ctx.bips = &bips;
        ctx.power = &power;
        prepared.rebuild(ctx);
    }
    PreparedTables(const PreparedTables &) = delete;
    PreparedTables &operator=(const PreparedTables &) = delete;
};

double
pointWays(const Point &x)
{
    double ways = 0.0;
    for (const std::uint16_t c : x)
        ways += JobConfig::fromIndex(c).cacheWays();
    return ways;
}

/** bips grows with the allocation; power is shaped per test. */
Matrix
waysBips(std::size_t jobs)
{
    Matrix bips(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            bips(j, c) = 1.0 + JobConfig::fromIndex(c).cacheWays();
    }
    return bips;
}

TEST(KnapsackSeedTest, RepairsWayInfeasibleCheapestPowerSeed)
{
    // Power decreases with the allocation, so every job's
    // cheapest-power configuration carries the full 4 ways: the raw
    // seed uses 8 x 4 = 32 ways against an 8-way budget, and no
    // upgrade can fix that. The repair pass must downgrade it into
    // feasibility before DDS sees it.
    const std::size_t jobs = 8;
    const Matrix bips = waysBips(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 10.0 - JobConfig::fromIndex(c).cacheWays();
    }

    const double cache_budget = 8.0;
    const PreparedTables tables(bips, power);
    const KnapsackSeed seed =
        greedyKnapsackSeed(tables.prepared, /*power_budget=*/1e6,
                           cache_budget);

    EXPECT_TRUE(seed.repaired);
    EXPECT_LE(seed.usedWays, cache_budget + 1e-9);
    EXPECT_NEAR(pointWays(seed.point), seed.usedWays, 1e-9);
}

TEST(KnapsackSeedTest, FeasibleSeedIsNotRepaired)
{
    // Power increases with the allocation: the cheapest-power seed
    // holds 0.5 ways per job and is feasible from the start.
    const std::size_t jobs = 8;
    const Matrix bips = waysBips(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 1.0 + JobConfig::fromIndex(c).cacheWays();
    }

    const double cache_budget = 16.0;
    const PreparedTables tables(bips, power);
    const KnapsackSeed seed =
        greedyKnapsackSeed(tables.prepared, /*power_budget=*/1e6,
                           cache_budget);

    EXPECT_FALSE(seed.repaired);
    EXPECT_LE(seed.usedWays, cache_budget + 1e-9);
    // With power unconstrained the upgrade rounds should spend the
    // way budget rather than leave it idle.
    EXPECT_GT(seed.usedWays, cache_budget * 0.5);
}

TEST(KnapsackSeedTest, RepairRespectsPowerBudgetWhenPossible)
{
    // One power-feasible downgrade exists per job (same power, fewer
    // ways); the repair must prefer it over cheaper-throughput moves
    // that bust the power cap.
    const std::size_t jobs = 4;
    const Matrix bips = waysBips(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 10.0 - JobConfig::fromIndex(c).cacheWays();
    }

    // Budget exactly the raw seed's power: any downgrade here raises
    // power (power = 10 - ways), so the "prefer power-feasible"
    // tie-break cannot apply; the repair still must terminate and
    // restore way feasibility.
    const PreparedTables tables(bips, power);
    const KnapsackSeed seed =
        greedyKnapsackSeed(tables.prepared, /*power_budget=*/4.0 * 6.0,
                           /*cache_budget=*/4.0);
    EXPECT_TRUE(seed.repaired);
    EXPECT_LE(seed.usedWays, 4.0 + 1e-9);
}

TEST(WayRepairTest, FeasiblePointIsUntouched)
{
    const std::size_t jobs = 4;
    const Matrix bips = waysBips(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 2.0;
    }

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(), 1).index()));
    const Point before = x;
    const PreparedTables tables(bips, power);
    const WayRepair repair =
        repairWayOvercommit(x, tables.prepared, /*power_budget=*/1e6,
                            /*cache_budget=*/16.0);
    EXPECT_EQ(x, before);
    EXPECT_DOUBLE_EQ(repair.freedWays, 0.0);
    EXPECT_NEAR(repair.usedWays, pointWays(x), 1e-9);
    EXPECT_NEAR(repair.usedPowerW, 8.0, 1e-9);
}

TEST(WayRepairTest, RepairsOvercommittedPointInPlace)
{
    // Every job at the largest allocation: 8 x 4 = 32 ways against a
    // 6-way budget, exactly the shape a soft-penalty DDS point can
    // have. The repair must land under budget and report the ways it
    // released.
    const std::size_t jobs = 8;
    const Matrix bips = waysBips(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 2.0;
    }

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(),
                                kNumCacheAllocs - 1).index()));
    const double before_ways = pointWays(x);
    const double cache_budget = 6.0;
    const PreparedTables tables(bips, power);
    const WayRepair repair =
        repairWayOvercommit(x, tables.prepared, /*power_budget=*/1e6,
                            cache_budget);

    EXPECT_LE(repair.usedWays, cache_budget + 1e-9);
    EXPECT_NEAR(repair.usedWays, pointWays(x), 1e-9);
    EXPECT_NEAR(repair.freedWays, before_ways - repair.usedWays, 1e-9);
    EXPECT_GT(repair.freedWays, 0.0);
    // Repair only ever releases ways: no job's allocation grew.
    for (const std::uint16_t c : x) {
        EXPECT_LE(JobConfig::fromIndex(c).cacheWays(),
                  kCacheAllocWays[kNumCacheAllocs - 1]);
    }
}

SliceDecision
fourWayDecision(std::size_t jobs)
{
    SliceDecision d;
    d.batchConfigs.assign(jobs, JobConfig(CoreConfig::widest(),
                                          kNumCacheAllocs - 1));
    d.batchActive.assign(jobs, true);
    return d;
}

TEST(CapEnforcementTest, GatedVictimsReleaseTheirWays)
{
    const std::size_t jobs = 4;
    SliceDecision d = fourWayDecision(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 10.0 * static_cast<double>(j + 1);
    }

    // Total 100 W against 45 W: gate job 3 (40 W) then job 2 (30 W).
    const CapEnforcement result = enforcePowerCap(d, power, 45.0);

    ASSERT_EQ(result.victims.size(), 2u);
    EXPECT_EQ(result.victims[0], 3u);
    EXPECT_EQ(result.victims[1], 2u);
    EXPECT_DOUBLE_EQ(result.finalPowerW, 30.0);

    for (const std::size_t v : result.victims) {
        EXPECT_FALSE(d.batchActive[v]);
        // The gated core's LLC allocation must shrink to the smallest
        // rank — leaving 4 ways assigned to an off core charges the
        // budget for cache nobody touches.
        EXPECT_DOUBLE_EQ(d.batchConfigs[v].cacheWays(),
                         kCacheAllocWays[0]);
    }
    EXPECT_DOUBLE_EQ(result.reclaimedWays,
                     2.0 * (kCacheAllocWays[kNumCacheAllocs - 1] -
                            kCacheAllocWays[0]));

    // Survivors keep their allocation.
    EXPECT_TRUE(d.batchActive[0]);
    EXPECT_TRUE(d.batchActive[1]);
    EXPECT_DOUBLE_EQ(d.batchConfigs[0].cacheWays(),
                     kCacheAllocWays[kNumCacheAllocs - 1]);
}

TEST(CapEnforcementTest, UnderBudgetIsUntouched)
{
    const std::size_t jobs = 3;
    SliceDecision d = fourWayDecision(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 5.0;
    }

    const CapEnforcement result = enforcePowerCap(d, power, 100.0);
    EXPECT_TRUE(result.victims.empty());
    EXPECT_DOUBLE_EQ(result.reclaimedWays, 0.0);
    EXPECT_DOUBLE_EQ(result.finalPowerW, 15.0);
    for (std::size_t j = 0; j < jobs; ++j) {
        EXPECT_TRUE(d.batchActive[j]);
        EXPECT_DOUBLE_EQ(d.batchConfigs[j].cacheWays(),
                         kCacheAllocWays[kNumCacheAllocs - 1]);
    }
}

TEST(CapEnforcementTest, GatesEverythingWhenBudgetBelowFloor)
{
    const std::size_t jobs = 2;
    SliceDecision d = fourWayDecision(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 50.0;
    }

    const CapEnforcement result = enforcePowerCap(d, power, 1.0);
    EXPECT_EQ(result.victims.size(), 2u);
    EXPECT_FALSE(d.batchActive[0]);
    EXPECT_FALSE(d.batchActive[1]);
}

TEST(CapEnforcementTest, InPlaceFormOverwritesThePreviousOutcome)
{
    // The runtime keeps one CapEnforcement across quanta: a second
    // pass must report only its own victims and reclaimed ways.
    const std::size_t jobs = 4;
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 10.0 * static_cast<double>(j + 1);
    }

    CapEnforcement result;
    SliceDecision first = fourWayDecision(jobs);
    enforcePowerCap(first, power, 45.0, result);
    ASSERT_EQ(result.victims.size(), 2u);

    SliceDecision second = fourWayDecision(jobs);
    enforcePowerCap(second, power, 65.0, result);
    ASSERT_EQ(result.victims.size(), 1u);
    EXPECT_EQ(result.victims[0], 3u);
    EXPECT_DOUBLE_EQ(result.finalPowerW, 60.0);
    EXPECT_DOUBLE_EQ(result.reclaimedWays,
                     kCacheAllocWays[kNumCacheAllocs - 1] -
                         kCacheAllocWays[0]);
}

double
pointPower(const Point &x, const Matrix &power)
{
    double w = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j)
        w += power(j, x[j]);
    return w;
}

/** Power grows with the allocation (1 + ways per job). */
Matrix
waysPower(std::size_t jobs)
{
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 1.0 + JobConfig::fromIndex(c).cacheWays();
    }
    return power;
}

TEST(PowerRepairTest, UnderBudgetPointIsUntouched)
{
    const std::size_t jobs = 4;
    const Matrix bips = waysBips(jobs);
    const Matrix power = waysPower(jobs);

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(), 1).index()));
    const Point before = x;
    const PreparedTables tables(bips, power);
    const PowerRepair repair = repairPowerOvercommit(
        x, tables.prepared, /*power_budget=*/1e6, /*cache_budget=*/16.0);

    EXPECT_EQ(x, before);
    EXPECT_TRUE(repair.feasible);
    EXPECT_DOUBLE_EQ(repair.shavedPowerW, 0.0);
    EXPECT_NEAR(repair.usedPowerW, pointPower(x, power), 1e-9);
    EXPECT_NEAR(repair.usedWays, pointWays(x), 1e-9);
}

TEST(PowerRepairTest, ShedsWattsThroughGradedDowngrades)
{
    // Every job at the largest allocation (5 W each, 20 W total)
    // against an 18 W budget: the graded repair must shed the ~2 W
    // through config downgrades — no job gated, every job still
    // holding a real allocation.
    const std::size_t jobs = 4;
    const Matrix bips = waysBips(jobs);
    const Matrix power = waysPower(jobs);

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(),
                                kNumCacheAllocs - 1).index()));
    const double before_power = pointPower(x, power);
    const double power_budget = 18.0;
    const PreparedTables tables(bips, power);
    const PowerRepair repair = repairPowerOvercommit(
        x, tables.prepared, power_budget, /*cache_budget=*/16.0);

    EXPECT_TRUE(repair.feasible);
    EXPECT_LE(repair.usedPowerW, power_budget + 1e-9);
    EXPECT_NEAR(repair.usedPowerW, pointPower(x, power), 1e-9);
    EXPECT_NEAR(repair.shavedPowerW, before_power - repair.usedPowerW,
                1e-9);
    EXPECT_GT(repair.shavedPowerW, 0.0);
    // Graded, not gated: every job keeps a positive predicted bips.
    for (std::size_t j = 0; j < jobs; ++j)
        EXPECT_GT(bips(j, x[j]), 0.0);
}

TEST(PowerRepairTest, InfeasibleWhenFloorExceedsBudget)
{
    // Even each job's cheapest configuration burns 1 W; a 0.5 W
    // budget cannot be repaired by downgrading. The repair must say
    // so instead of looping or lying.
    const std::size_t jobs = 2;
    const Matrix bips = waysBips(jobs);
    const Matrix power = waysPower(jobs);

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(), 1).index()));
    const PreparedTables tables(bips, power);
    const PowerRepair repair = repairPowerOvercommit(
        x, tables.prepared, /*power_budget=*/0.5, /*cache_budget=*/16.0);
    EXPECT_FALSE(repair.feasible);
}

TEST(PowerRepairTest, NeverTradesPowerForWayOvercommit)
{
    // Power decreases with the allocation (cheap watts = many ways),
    // and the way budget is exactly the point's current usage: every
    // power downgrade would overcommit the LLC, so none is legal and
    // the repair must report infeasibility with the point untouched.
    const std::size_t jobs = 2;
    const Matrix bips = waysBips(jobs);
    Matrix power(jobs, kNumJobConfigs);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c)
            power(j, c) = 10.0 - JobConfig::fromIndex(c).cacheWays();
    }

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(), 0).index()));
    const Point before = x;
    const PreparedTables tables(bips, power);
    const PowerRepair repair = repairPowerOvercommit(
        x, tables.prepared, /*power_budget=*/1.0,
        /*cache_budget=*/pointWays(x));
    EXPECT_FALSE(repair.feasible);
    EXPECT_EQ(x, before);
}

TEST(RefitTest, SpendsHeadroomWhenBudgetAllows)
{
    // A modest point under a generous budget: the re-fit's upgrade
    // rounds must grow it toward the budgets instead of leaving the
    // headroom idle (the full search would have spent it).
    const std::size_t jobs = 4;
    const Matrix bips = waysBips(jobs);
    const Matrix power = waysPower(jobs);

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(), 0).index()));
    const double before_power = pointPower(x, power);
    const double power_budget = 16.0;
    const double cache_budget = 12.0;
    const PreparedTables tables(bips, power);
    const PowerRepair refit = refitPointToBudgets(
        x, tables.prepared, power_budget, cache_budget);

    EXPECT_TRUE(refit.feasible);
    EXPECT_GT(refit.usedPowerW, before_power);
    EXPECT_LE(refit.usedPowerW, power_budget + 1e-9);
    EXPECT_LE(refit.usedWays, cache_budget + 1e-9);
    EXPECT_NEAR(refit.usedPowerW, pointPower(x, power), 1e-9);
    EXPECT_NEAR(refit.usedWays, pointWays(x), 1e-9);
}

TEST(RefitTest, BudgetDipThenRecoveryRegrowsThePoint)
{
    // Shrink under a dipped budget, then re-fit the shrunken point
    // under the recovered budget: allocations must grow back instead
    // of staying pinned at the dip's configs.
    const std::size_t jobs = 4;
    const Matrix bips = waysBips(jobs);
    const Matrix power = waysPower(jobs);

    Point x(jobs, static_cast<std::uint16_t>(
                      JobConfig(CoreConfig::widest(),
                                kNumCacheAllocs - 1).index()));
    const double high_budget = pointPower(x, power);
    const PreparedTables tables(bips, power);
    const PowerRepair dipped = refitPointToBudgets(
        x, tables.prepared, 0.9 * high_budget, /*cache_budget=*/16.0);
    ASSERT_TRUE(dipped.feasible);
    EXPECT_LE(dipped.usedPowerW, 0.9 * high_budget + 1e-9);

    const PowerRepair recovered = refitPointToBudgets(
        x, tables.prepared, high_budget, /*cache_budget=*/16.0);
    EXPECT_TRUE(recovered.feasible);
    EXPECT_GT(recovered.usedPowerW, dipped.usedPowerW);
    EXPECT_LE(recovered.usedPowerW, high_budget + 1e-9);
}

// --- property check against a reference loop ------------------------

/**
 * One random problem: integer-valued tables, so equal throughputs,
 * equal watts and equal way counts (every core config shares the four
 * way ranks) tie all over the place, and some jobs are exact copies of
 * the job before them. Zero throughputs exercise the log floor.
 */
struct PolicyTables
{
    Matrix bips;
    Matrix power;
    ObjectiveContext ctx;
    PreparedObjective prepared;

    PolicyTables(std::size_t jobs, Rng &rng)
        : bips(jobs, kNumJobConfigs), power(jobs, kNumJobConfigs)
    {
        for (std::size_t j = 0; j < jobs; ++j) {
            const bool copy = j > 0 && rng.bernoulli(0.25);
            for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
                bips(j, c) = copy ? bips(j - 1, c)
                    : static_cast<double>(rng.uniformInt(0, 4));
                power(j, c) = copy ? power(j - 1, c)
                    : static_cast<double>(rng.uniformInt(1, 6));
            }
        }
        ctx.bips = &bips;
        ctx.power = &power;
        prepared.rebuild(ctx);
    }
    PolicyTables(const PolicyTables &) = delete;
    PolicyTables &operator=(const PolicyTables &) = delete;

    KnapsackSeed
    seed(double power_budget, double cache_budget) const
    {
        return greedyKnapsackSeed(prepared, power_budget,
                                  cache_budget);
    }

    WayRepair
    repairWays(Point &x, double power_budget, double cache_budget) const
    {
        return repairWayOvercommit(x, prepared, power_budget,
                                   cache_budget);
    }

    PowerRepair
    repairPower(Point &x, double power_budget,
                double cache_budget) const
    {
        return repairPowerOvercommit(x, prepared, power_budget,
                                     cache_budget);
    }

    PowerRepair
    refit(Point &x, double power_budget, double cache_budget) const
    {
        return refitPointToBudgets(x, prepared, power_budget,
                                   cache_budget);
    }
};

double
refLog(const Matrix &bips, std::size_t j, std::size_t c)
{
    return std::log(std::max(bips(j, c), 1e-6));
}

double
refWays(std::size_t c)
{
    return JobConfig::fromIndex(c).cacheWays();
}

/** Running (power, ways) totals of a point, summed in job order. */
struct RefTotals
{
    double power = 0.0;
    double ways = 0.0;

    RefTotals(const Point &x, const Matrix &power_table)
    {
        for (std::size_t j = 0; j < x.size(); ++j) {
            power += power_table(j, x[j]);
            ways += refWays(x[j]);
        }
    }

    void
    move(Point &x, std::size_t j, std::size_t c,
         const Matrix &power_table)
    {
        power += power_table(j, c) - power_table(j, x[j]);
        ways += refWays(c) - refWays(x[j]);
        x[j] = static_cast<std::uint16_t>(c);
    }
};

/** Best log-gain per (power + priced way) cost, first strict max. */
void
refUpgrade(Point &x, const PolicyTables &t, double power_budget,
           double cache_budget, RefTotals &used)
{
    const double way_rate =
        cache_budget > 0.0 ? 0.1 * power_budget / cache_budget : 1e9;
    for (std::size_t round = 0; round < x.size() * kNumJobConfigs;
         ++round) {
        double best = 0.0;
        std::size_t bj = x.size(), bc = 0;
        for (std::size_t j = 0; j < x.size(); ++j) {
            for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
                const double benefit =
                    refLog(t.bips, j, c) - refLog(t.bips, j, x[j]);
                const double dp = t.power(j, c) - t.power(j, x[j]);
                const double dw = refWays(c) - refWays(x[j]);
                if (benefit <= 0.0 || used.power + dp > power_budget ||
                    used.ways + dw > cache_budget)
                    continue;
                const double gain =
                    benefit / (std::max(dp, 0.0) +
                               way_rate * std::max(dw, 0.0) + 1e-6);
                if (gain > best) {
                    best = gain;
                    bj = j;
                    bc = c;
                }
            }
        }
        if (bj == x.size())
            return;
        used.move(x, bj, bc, t.power);
    }
}

/** Least log-loss per freed way, power-feasible moves first. */
double
refRepairWays(Point &x, const PolicyTables &t, double power_budget,
              double cache_budget, RefTotals &used)
{
    double freed = 0.0;
    while (used.ways > cache_budget + 1e-9) {
        double best = std::numeric_limits<double>::infinity();
        bool best_ok = false;
        std::size_t bj = x.size(), bc = 0;
        for (std::size_t j = 0; j < x.size(); ++j) {
            for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
                const double dw = refWays(c) - refWays(x[j]);
                if (dw >= 0.0)
                    continue;
                const double dp = t.power(j, c) - t.power(j, x[j]);
                const bool ok =
                    used.power + dp <= power_budget || dp <= 0.0;
                if (best_ok && !ok)
                    continue;
                const double ratio =
                    (refLog(t.bips, j, x[j]) - refLog(t.bips, j, c)) /
                    -dw;
                if ((ok && !best_ok) || ratio < best) {
                    best = ratio;
                    best_ok = ok;
                    bj = j;
                    bc = c;
                }
            }
        }
        if (bj == x.size())
            break;
        freed -= refWays(bc) - refWays(x[bj]);
        used.move(x, bj, bc, t.power);
    }
    return freed;
}

/** Least log-loss per shed watt among way-feasible downgrades. */
bool
refRepairPower(Point &x, const PolicyTables &t, double power_budget,
               double cache_budget, RefTotals &used)
{
    while (used.power > power_budget + 1e-9) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t bj = x.size(), bc = 0;
        for (std::size_t j = 0; j < x.size(); ++j) {
            for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
                const double dp = t.power(j, c) - t.power(j, x[j]);
                const double dw = refWays(c) - refWays(x[j]);
                if (dp >= 0.0 || used.ways + dw > cache_budget + 1e-9)
                    continue;
                const double ratio =
                    (refLog(t.bips, j, x[j]) - refLog(t.bips, j, c)) /
                    -dp;
                if (ratio < best) {
                    best = ratio;
                    bj = j;
                    bc = c;
                }
            }
        }
        if (bj == x.size())
            break;
        used.move(x, bj, bc, t.power);
    }
    return used.power <= power_budget + 1e-9;
}

Point
randomPoint(std::size_t jobs, Rng &rng)
{
    Point x(jobs);
    for (auto &c : x) {
        c = static_cast<std::uint16_t>(
            rng.uniformInt(0, kNumJobConfigs - 1));
    }
    return x;
}

TEST(BatchPolicyPropertyTest, MatchesReferenceLoopsOnTiedTables)
{
    Rng rng(20261017);
    for (int trial = 0; trial < 120; ++trial) {
        const std::size_t jobs =
            static_cast<std::size_t>(rng.uniformInt(1, 16));
        const PolicyTables t(jobs, rng);
        const double power_budget =
            static_cast<double>(rng.uniformInt(1, 5 * jobs));
        const double cache_budget =
            0.5 * static_cast<double>(rng.uniformInt(1, 8 * jobs));
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << " jobs " << jobs
                     << " budgets " << power_budget << " W "
                     << cache_budget << " ways");

        // Greedy seed: cheapest power (first strict min), way repair,
        // upgrade rounds.
        {
            Point ref(jobs);
            for (std::size_t j = 0; j < jobs; ++j) {
                std::size_t cheapest = 0;
                for (std::size_t c = 1; c < kNumJobConfigs; ++c) {
                    if (t.power(j, c) < t.power(j, cheapest))
                        cheapest = c;
                }
                ref[j] = static_cast<std::uint16_t>(cheapest);
            }
            RefTotals used(ref, t.power);
            const double freed = refRepairWays(
                ref, t, power_budget, cache_budget, used);
            refUpgrade(ref, t, power_budget, cache_budget, used);

            const KnapsackSeed seed = t.seed(power_budget, cache_budget);
            EXPECT_EQ(seed.point, ref);
            EXPECT_EQ(seed.usedPowerW, used.power);
            EXPECT_EQ(seed.usedWays, used.ways);
            EXPECT_EQ(seed.repaired, freed > 0.0);
        }

        // Way repair of an arbitrary (usually overcommitted) point.
        {
            Point x = randomPoint(jobs, rng);
            Point ref = x;
            RefTotals used(ref, t.power);
            const double freed = refRepairWays(
                ref, t, power_budget, cache_budget, used);
            const WayRepair got =
                t.repairWays(x, power_budget, cache_budget);
            EXPECT_EQ(x, ref);
            EXPECT_EQ(got.freedWays, freed);
            EXPECT_EQ(got.usedPowerW, used.power);
            EXPECT_EQ(got.usedWays, used.ways);
        }

        // Power repair and the re-fit (repair, then upgrade rounds)
        // from the same arbitrary point.
        const Point start = randomPoint(jobs, rng);
        {
            Point x = start;
            Point ref = start;
            RefTotals used(ref, t.power);
            const double start_power = used.power;
            const bool feasible = refRepairPower(
                ref, t, power_budget, cache_budget, used);
            const PowerRepair got =
                t.repairPower(x, power_budget, cache_budget);
            EXPECT_EQ(x, ref);
            EXPECT_EQ(got.feasible, feasible);
            EXPECT_EQ(got.shavedPowerW, start_power - used.power);
            EXPECT_EQ(got.usedPowerW, used.power);
            EXPECT_EQ(got.usedWays, used.ways);
        }
        {
            Point x = start;
            Point ref = start;
            RefTotals used(ref, t.power);
            const double start_power = used.power;
            const bool feasible = refRepairPower(
                ref, t, power_budget, cache_budget, used);
            const double shaved = start_power - used.power;
            if (feasible)
                refUpgrade(ref, t, power_budget, cache_budget, used);
            const PowerRepair got =
                t.refit(x, power_budget, cache_budget);
            EXPECT_EQ(x, ref);
            EXPECT_EQ(got.feasible, feasible);
            EXPECT_EQ(got.shavedPowerW, shaved);
            EXPECT_EQ(got.usedPowerW, used.power);
            EXPECT_EQ(got.usedWays, used.ways);
        }
    }
}

} // namespace
} // namespace cuttlesys
