#include "sim/ground_truth.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "lcsim/queue_sim.hh"
#include "power/power_model.hh"
#include "model/core_model.hh"

namespace cuttlesys {

BatchTruth
batchTruthTables(const std::vector<AppProfile> &apps,
                 const SystemParams &params, bool reconfigurable,
                 double noise, std::uint64_t seed)
{
    BatchTruth truth;
    truth.bips = Matrix(apps.size(), kNumJobConfigs);
    truth.power = Matrix(apps.size(), kNumJobConfigs);
    Rng rng(seed);

    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
            const JobConfig config = JobConfig::fromIndex(c);
            const double ipc = coreIpc(apps[a], config, params);
            const double bips =
                ipc * coreFrequencyGHz(params, reconfigurable);
            const double power = corePower(apps[a], config.core(), ipc,
                                           params, reconfigurable);
            const double nb =
                noise > 0.0 ? 1.0 + rng.normal(0.0, noise) : 1.0;
            const double np =
                noise > 0.0 ? 1.0 + rng.normal(0.0, noise) : 1.0;
            truth.bips(a, c) = bips * nb;
            truth.power(a, c) = power * np;
        }
    }
    return truth;
}

namespace {

/**
 * Measured p99 of @p app at @p qps on joint configuration @p c: one
 * independent simulation with its own seed, so cells can run in any
 * order on any thread.
 */
double
lcTailCell(const AppProfile &app, double qps, std::size_t c,
           const SystemParams &params, const LcCurveOptions &opts)
{
    const JobConfig config = JobConfig::fromIndex(c);
    const double ips = coreIps(app, config, params, 1.0,
                               opts.reconfigurable);
    LcQueueSim sim(app, opts.servers, ips, opts.seed + c);
    sim.setLoadQps(qps);
    sim.run(opts.warmupSec);
    sim.clearWindow();
    sim.run(opts.measureSec);
    // An empty window means the system is so saturated nothing
    // completed; report the whole backlog age as the tail.
    return sim.completedInWindow() > 0 ? sim.tailLatency(99.0)
                                       : opts.warmupSec + opts.measureSec;
}

} // namespace

std::vector<double>
lcTailCurve(const AppProfile &app, double qps,
            const SystemParams &params, const LcCurveOptions &opts)
{
    CS_ASSERT(app.isLatencyCritical(), "lcTailCurve needs an LC app");
    std::vector<double> curve(kNumJobConfigs, 0.0);
    ThreadPool::global().parallelFor(kNumJobConfigs, [&](std::size_t c) {
        curve[c] = lcTailCell(app, qps, c, params, opts);
    });
    return curve;
}

std::vector<double>
lcPowerCurve(const AppProfile &app, double qps,
             const SystemParams &params, const LcCurveOptions &opts)
{
    CS_ASSERT(app.isLatencyCritical(), "lcPowerCurve needs an LC app");
    std::vector<double> curve(kNumJobConfigs, 0.0);
    for (std::size_t c = 0; c < kNumJobConfigs; ++c) {
        const JobConfig config = JobConfig::fromIndex(c);
        const double ips = coreIps(app, config, params, 1.0,
                                   opts.reconfigurable);
        const double util = std::min(
            1.0, qps * app.requestInstructions() /
                 (static_cast<double>(opts.servers) * ips));
        const double ipc = coreIpc(app, config, params);
        curve[c] = corePower(app, config.core(), ipc * util, params,
                             opts.reconfigurable);
    }
    return curve;
}

Matrix
lcTailTrainingTable(const std::vector<AppProfile> &apps,
                    const std::vector<double> &load_fractions,
                    const SystemParams &params,
                    const LcCurveOptions &opts)
{
    // Preconditions first, in app order, so a bad app fails before
    // any simulation runs.
    for (const auto &app : apps) {
        CS_ASSERT(app.maxQps > 0.0, app.name,
                  " is not calibrated; run calibrateMaxQps first");
        CS_ASSERT(app.isLatencyCritical(), "lcTailCurve needs an LC app");
    }
    // One (row, config) cell per index; each writes its own entry.
    const std::size_t loads = load_fractions.size();
    Matrix table(apps.size() * loads, kNumJobConfigs);
    ThreadPool::global().parallelFor(
        table.rows() * kNumJobConfigs, [&](std::size_t i) {
            const std::size_t row = i / kNumJobConfigs;
            const std::size_t c = i % kNumJobConfigs;
            const AppProfile &app = apps[row / loads];
            table(row, c) = lcTailCell(
                app, load_fractions[row % loads] * app.maxQps, c,
                params, opts);
        });
    return table;
}

} // namespace cuttlesys
