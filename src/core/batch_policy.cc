#include "core/batch_policy.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace cuttlesys {

namespace {

/** Running (power, ways) totals of @p point, summed in job order. */
void
pointTotals(const Point &point, const PreparedObjective &prepared,
            double &used_power, double &used_ways)
{
    used_power = 0.0;
    used_ways = 0.0;
    for (std::size_t j = 0; j < point.size(); ++j) {
        used_power += prepared.power(j, point[j]);
        used_ways += prepared.ways(point[j]);
    }
}

/** Move job @p j of @p point to config @p c, updating the totals. */
void
applyMove(Point &point, const PreparedObjective &prepared,
          std::size_t j, std::size_t c, double &used_power,
          double &used_ways)
{
    used_power += prepared.power(j, c) - prepared.power(j, point[j]);
    used_ways += prepared.ways(c) - prepared.ways(point[j]);
    point[j] = static_cast<std::uint16_t>(c);
}

/**
 * Best-gain-per-cost upgrade rounds shared by the greedy warm start
 * and the fast-path budget re-fit: repeatedly buy the config upgrade
 * with the best log-throughput gain per unit of (power + priced way)
 * cost until neither budget admits another move. @p used_power /
 * @p used_ways must be the point's current totals and are updated in
 * place. Candidates are scanned in (job, config) order and only a
 * strictly better gain replaces the incumbent, so ties go to the
 * first move found.
 */
void
upgradeRounds(Point &x, const PreparedObjective &prepared,
              double power_budget, double cache_budget,
              double &used_power, double &used_ways)
{
    const std::size_t jobs = prepared.numJobs();
    const std::size_t configs = prepared.numConfigs();
    const double *ways = prepared.waysTable();

    // Ways are priced far below their power-equivalent exchange rate:
    // the hard feasibility checks below keep both budgets respected,
    // and when power is the binding constraint the leftover LLC ways
    // should flow to whoever's miss curve wants them rather than sit
    // unused.
    const double way_rate =
        cache_budget > 0.0 ? 0.1 * power_budget / cache_budget : 1e9;

    for (std::size_t round = 0; round < jobs * configs; ++round) {
        double best_gain = 0.0;
        std::size_t best_job = jobs;
        std::size_t best_cfg = 0;
        for (std::size_t j = 0; j < jobs; ++j) {
            const double *log_row =
                prepared.logTable() + j * configs;
            const double *power_row =
                prepared.powerTable() + j * configs;
            const std::size_t cur = x[j];
            const double cur_log = log_row[cur];
            const double cur_power = power_row[cur];
            const double cur_ways = ways[cur];
            for (std::size_t c = 0; c < configs; ++c) {
                const double benefit = log_row[c] - cur_log;
                if (benefit <= 0.0)
                    continue;
                const double d_power = power_row[c] - cur_power;
                const double d_ways = ways[c] - cur_ways;
                if (used_power + d_power > power_budget ||
                    used_ways + d_ways > cache_budget)
                    continue;
                const double cost = std::max(d_power, 0.0) +
                                    way_rate * std::max(d_ways, 0.0) +
                                    1e-6;
                const double gain = benefit / cost;
                if (gain > best_gain) {
                    best_gain = gain;
                    best_job = j;
                    best_cfg = c;
                }
            }
        }
        if (best_job == jobs)
            break;
        applyMove(x, prepared, best_job, best_cfg, used_power,
                  used_ways);
    }
}

} // namespace

WayRepair
repairWayOvercommit(Point &point, const PreparedObjective &prepared,
                    double power_budget, double cache_budget)
{
    const std::size_t jobs = prepared.numJobs();
    const std::size_t configs = prepared.numConfigs();
    const double *ways = prepared.waysTable();
    CS_ASSERT(point.size() == jobs, "point shape mismatch");

    WayRepair repair;
    double used_power = 0.0;
    double used_ways = 0.0;
    pointTotals(point, prepared, used_power, used_ways);

    // Repeatedly take the downgrade that frees ways at the least
    // log-throughput cost, preferring moves that keep the power
    // budget respected.
    while (used_ways > cache_budget + 1e-9) {
        std::size_t best_job = jobs;
        std::size_t best_cfg = 0;
        double best_ratio = std::numeric_limits<double>::infinity();
        bool best_power_ok = false;
        for (std::size_t j = 0; j < jobs; ++j) {
            const double *log_row =
                prepared.logTable() + j * configs;
            const double *power_row =
                prepared.powerTable() + j * configs;
            const std::size_t cur = point[j];
            const double cur_log = log_row[cur];
            const double cur_power = power_row[cur];
            const double cur_ways = ways[cur];
            for (std::size_t c = 0; c < configs; ++c) {
                const double d_ways = ways[c] - cur_ways;
                if (d_ways >= 0.0)
                    continue;
                const double d_power = power_row[c] - cur_power;
                const bool power_ok =
                    used_power + d_power <= power_budget ||
                    d_power <= 0.0;
                // A power-feasible downgrade always beats one that
                // busts the cap, no matter the throughput ratio.
                if (best_power_ok && !power_ok)
                    continue;
                const double loss = cur_log - log_row[c];
                const double ratio = loss / -d_ways;
                if ((power_ok && !best_power_ok) ||
                    ratio < best_ratio) {
                    best_ratio = ratio;
                    best_job = j;
                    best_cfg = c;
                    best_power_ok = power_ok;
                }
            }
        }
        if (best_job == jobs)
            break; // every job already at its smallest allocation
        repair.freedWays -= ways[best_cfg] - ways[point[best_job]];
        applyMove(point, prepared, best_job, best_cfg, used_power,
                  used_ways);
    }
    repair.usedPowerW = used_power;
    repair.usedWays = used_ways;
    return repair;
}

PowerRepair
repairPowerOvercommit(Point &point, const PreparedObjective &prepared,
                      double power_budget, double cache_budget)
{
    const std::size_t jobs = prepared.numJobs();
    const std::size_t configs = prepared.numConfigs();
    const double *ways = prepared.waysTable();
    CS_ASSERT(point.size() == jobs, "point shape mismatch");

    PowerRepair repair;
    double used_power = 0.0;
    double used_ways = 0.0;
    pointTotals(point, prepared, used_power, used_ways);
    const double start_power = used_power;

    // Repeatedly take the downgrade that sheds watts at the least
    // log-throughput cost; moves that would overcommit the LLC ways
    // are never candidates.
    while (used_power > power_budget + 1e-9) {
        std::size_t best_job = jobs;
        std::size_t best_cfg = 0;
        double best_ratio = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < jobs; ++j) {
            const double *log_row =
                prepared.logTable() + j * configs;
            const double *power_row =
                prepared.powerTable() + j * configs;
            const std::size_t cur = point[j];
            const double cur_log = log_row[cur];
            const double cur_power = power_row[cur];
            const double cur_ways = ways[cur];
            for (std::size_t c = 0; c < configs; ++c) {
                const double d_power = power_row[c] - cur_power;
                if (d_power >= 0.0)
                    continue;
                const double d_ways = ways[c] - cur_ways;
                if (used_ways + d_ways > cache_budget + 1e-9)
                    continue;
                const double loss = cur_log - log_row[c];
                const double ratio = loss / -d_power;
                if (ratio < best_ratio) {
                    best_ratio = ratio;
                    best_job = j;
                    best_cfg = c;
                }
            }
        }
        if (best_job == jobs)
            break; // every job already at its cheapest configuration
        applyMove(point, prepared, best_job, best_cfg, used_power,
                  used_ways);
    }
    repair.shavedPowerW = start_power - used_power;
    repair.usedPowerW = used_power;
    repair.usedWays = used_ways;
    repair.feasible = used_power <= power_budget + 1e-9;
    return repair;
}

PowerRepair
refitPointToBudgets(Point &point, const PreparedObjective &prepared,
                    double power_budget, double cache_budget)
{
    PowerRepair repair = repairPowerOvercommit(
        point, prepared, power_budget, cache_budget);
    if (!repair.feasible)
        return repair;
    double used_power = repair.usedPowerW;
    double used_ways = repair.usedWays;
    upgradeRounds(point, prepared, power_budget, cache_budget,
                  used_power, used_ways);
    repair.usedPowerW = used_power;
    repair.usedWays = used_ways;
    return repair;
}

void
greedyKnapsackSeed(const PreparedObjective &prepared,
                   double power_budget, double cache_budget,
                   KnapsackSeed &seed)
{
    const std::size_t jobs = prepared.numJobs();
    const std::size_t configs = prepared.numConfigs();
    seed.usedPowerW = 0.0;
    seed.usedWays = 0.0;
    seed.repaired = false;
    Point &x = seed.point;
    x.assign(jobs, 0);

    for (std::size_t j = 0; j < jobs; ++j) {
        const double *power_row = prepared.powerTable() + j * configs;
        std::size_t cheapest = 0;
        for (std::size_t c = 1; c < configs; ++c) {
            if (power_row[c] < power_row[cheapest])
                cheapest = c;
        }
        x[j] = static_cast<std::uint16_t>(cheapest);
    }

    // The cheapest-power configurations carry whatever allocation
    // happens to minimize power, so their combined ways can overshoot
    // the budget before a single upgrade happens. The upgrade loop
    // below only refuses moves, so an infeasible seed would stay
    // infeasible and hand DDS a penalized starting point: repair it
    // first.
    const WayRepair repair = repairWayOvercommit(
        x, prepared, power_budget, cache_budget);
    seed.repaired = repair.freedWays > 0.0;
    double used_power = repair.usedPowerW;
    double used_ways = repair.usedWays;
    upgradeRounds(x, prepared, power_budget, cache_budget, used_power,
                  used_ways);
    seed.usedPowerW = used_power;
    seed.usedWays = used_ways;
}

KnapsackSeed
greedyKnapsackSeed(const PreparedObjective &prepared,
                   double power_budget, double cache_budget)
{
    KnapsackSeed seed;
    greedyKnapsackSeed(prepared, power_budget, cache_budget, seed);
    return seed;
}

void
enforcePowerCap(SliceDecision &decision, const Matrix &power,
                double power_budget, CapEnforcement &result)
{
    const std::size_t jobs = decision.batchConfigs.size();
    CS_ASSERT(decision.batchActive.size() == jobs,
              "decision shape mismatch");
    CS_ASSERT(power.rows() >= jobs, "power matrix too small");

    result.victims.clear();
    result.reclaimedWays = 0.0;
    double batch_power = 0.0;
    for (std::size_t j = 0; j < jobs; ++j) {
        if (decision.batchActive[j])
            batch_power += power(j, decision.batchConfigs[j].index());
    }

    while (batch_power > power_budget) {
        std::size_t victim = jobs;
        double victim_power = -1.0;
        for (std::size_t j = 0; j < jobs; ++j) {
            if (!decision.batchActive[j])
                continue;
            const double p =
                power(j, decision.batchConfigs[j].index());
            if (p > victim_power) {
                victim_power = p;
                victim = j;
            }
        }
        if (victim == jobs)
            break; // everything is gated already
        decision.batchActive[victim] = false;
        batch_power -= victim_power;
        // A gated core holds no cache: release its LLC ways back to
        // the partition instead of leaving a phantom allocation
        // charged against the budget.
        const JobConfig &was = decision.batchConfigs[victim];
        const double freed = was.cacheWays() - kCacheAllocWays[0];
        if (freed > 0.0) {
            decision.batchConfigs[victim] = JobConfig(was.core(), 0);
            result.reclaimedWays += freed;
        }
        result.victims.push_back(victim);
    }
    result.finalPowerW = batch_power;
}

CapEnforcement
enforcePowerCap(SliceDecision &decision, const Matrix &power,
                double power_budget)
{
    CapEnforcement result;
    enforcePowerCap(decision, power, power_budget, result);
    return result;
}

} // namespace cuttlesys
