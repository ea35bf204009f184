/**
 * @file
 * Ground-truth characterization tables.
 *
 * Three consumers need the *true* behavior of an application across
 * all 108 joint configurations:
 *  - the offline training step (the 16 "known" apps are characterized
 *    once across every configuration — Section V),
 *  - the oracle-like asymmetric-multicore baseline (Section VII-C),
 *  - the accuracy studies of Figs 5 and 9, which compare predictions
 *    against measured values.
 *
 * Batch truth is analytic (the core model in isolation); LC tail
 * truth is *measured* by running the discrete-event queue per
 * configuration, exactly as the paper measures tail latency by
 * simulation rather than computing it.
 */

#ifndef CUTTLESYS_SIM_GROUND_TRUTH_HH
#define CUTTLESYS_SIM_GROUND_TRUTH_HH

#include <cstdint>
#include <vector>

#include "apps/app_profile.hh"
#include "common/matrix.hh"
#include "config/job_config.hh"
#include "config/params.hh"

namespace cuttlesys {

/** Full app x joint-config tables for a set of batch apps. */
struct BatchTruth
{
    Matrix bips;   //!< apps x kNumJobConfigs
    Matrix power;  //!< apps x kNumJobConfigs
};

/**
 * Characterize @p apps across all joint configurations in isolation.
 * @param noise optional multiplicative measurement noise (stddev);
 *        0 gives exact model output.
 */
BatchTruth batchTruthTables(const std::vector<AppProfile> &apps,
                            const SystemParams &params,
                            bool reconfigurable = true,
                            double noise = 0.0,
                            std::uint64_t seed = 11);

/** Options for measured LC curves. */
struct LcCurveOptions
{
    std::size_t servers = 16;
    double warmupSec = 0.3;
    double measureSec = 1.0;
    std::uint64_t seed = 17;
    bool reconfigurable = true;
};

/**
 * Measured p99 (seconds) of @p app at @p qps for every joint
 * configuration, in isolation. Entry order is JobConfig::index().
 * Configuration c is simulated alone with seed opts.seed + c, one
 * configuration per index of the global thread pool, so the curve
 * does not depend on the pool width.
 */
std::vector<double> lcTailCurve(const AppProfile &app, double qps,
                                const SystemParams &params,
                                const LcCurveOptions &opts = {});

/**
 * Per-core power (W) of the LC service at @p qps for every joint
 * configuration, using the analytic utilization estimate
 * min(1, qps * work / (servers * ips)).
 */
std::vector<double> lcPowerCurve(const AppProfile &app, double qps,
                                 const SystemParams &params,
                                 const LcCurveOptions &opts = {});

/**
 * Training table for the tail-latency matrix: one row per (LC app,
 * load fraction) pair, columns = joint configurations. Apps must be
 * calibrated (maxQps > 0). Row (a, f) is bitwise lcTailCurve(a,
 * f * a.maxQps); the cells run one per index of the global pool.
 */
Matrix lcTailTrainingTable(const std::vector<AppProfile> &apps,
                           const std::vector<double> &load_fractions,
                           const SystemParams &params,
                           const LcCurveOptions &opts = {});

} // namespace cuttlesys

#endif // CUTTLESYS_SIM_GROUND_TRUTH_HH
