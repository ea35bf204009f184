/**
 * @file
 * Max-QPS calibration (Section VII-A).
 *
 * The paper finds each service's maximum sustainable load by
 * simulating it on a 16-core system and raising QPS until saturation,
 * then using the knee point before saturation. We define the knee
 * operationally as the largest load at which the measured p99 still
 * meets the service's QoS target on the reference configuration
 * (widest cores, largest cache allocation); percent loads elsewhere in
 * the evaluation are fractions of this value.
 */

#ifndef CUTTLESYS_LCSIM_CALIBRATE_HH
#define CUTTLESYS_LCSIM_CALIBRATE_HH

#include <cstdint>
#include <vector>

#include "apps/app_profile.hh"
#include "config/params.hh"

namespace cuttlesys {

/** Options for the knee-point search. */
struct MaxQpsOptions
{
    std::size_t referenceCores = 16; //!< paper's calibration system
    double warmupSec = 0.5;
    double measureSec = 2.0;
    std::size_t iterations = 18;     //!< bisection steps
    std::uint64_t seed = 42;
    /**
     * Knee definition: the largest load whose p99 stays below
     * kneeFactor x the unloaded p99 (and below QoS). The paper uses
     * "the knee-point before saturation to avoid the instability of
     * saturation" — a curvature criterion, not a QoS one; p99
     * doubling over its unloaded value marks where the queueing term
     * takes over.
     */
    double kneeFactor = 1.5;
};

/**
 * Measure p99 latency (seconds) of @p app at @p qps on the reference
 * system, after warmup.
 */
double measureTailAtLoad(const AppProfile &app, double qps,
                         const SystemParams &params,
                         const MaxQpsOptions &opts = {});

/**
 * Knee-point load: the largest QPS whose measured p99 stays below
 * both the QoS target and kneeFactor x the unloaded p99 on the
 * reference system.
 */
double findMaxQps(const AppProfile &app, const SystemParams &params,
                  const MaxQpsOptions &opts = {});

/**
 * Fill in AppProfile::maxQps for every profile in @p apps, one
 * service per index of the global thread pool. The result does not
 * depend on the pool width; if several services fail, the panic
 * names the first of them in @p apps order.
 * @return the calibrated loads, in the order of @p apps.
 */
std::vector<double> calibrateMaxQps(std::vector<AppProfile> &apps,
                                    const SystemParams &params,
                                    const MaxQpsOptions &opts = {});

} // namespace cuttlesys

#endif // CUTTLESYS_LCSIM_CALIBRATE_HH
