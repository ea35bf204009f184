#include "lcsim/calibrate.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "config/job_config.hh"
#include "lcsim/queue_sim.hh"
#include "model/core_model.hh"

namespace cuttlesys {

namespace {

/** Reference configuration: widest core, largest cache allocation. */
JobConfig
referenceConfig()
{
    return JobConfig(CoreConfig::widest(), kNumCacheAllocs - 1);
}

} // namespace

double
measureTailAtLoad(const AppProfile &app, double qps,
                  const SystemParams &params, const MaxQpsOptions &opts)
{
    CS_ASSERT(app.isLatencyCritical(),
              "calibration is only meaningful for LC apps");
    const double ips = coreIps(app, referenceConfig(), params);
    LcQueueSim sim(app, opts.referenceCores, ips, opts.seed);
    sim.setLoadQps(qps);
    sim.run(opts.warmupSec);
    sim.clearWindow();
    sim.run(opts.measureSec);
    if (sim.completedInWindow() == 0)
        return 0.0;
    return sim.tailLatency(99.0);
}

double
findMaxQps(const AppProfile &app, const SystemParams &params,
           const MaxQpsOptions &opts)
{
    const double ips = coreIps(app, referenceConfig(), params);
    // Service capacity: requests/s the pool can complete flat out.
    const double capacity = static_cast<double>(opts.referenceCores) *
        ips / app.requestInstructions();

    double lo = capacity * 0.05;
    double hi = capacity * 1.2;
    const double unloaded_p99 =
        measureTailAtLoad(app, lo, params, opts);
    CS_ASSERT(unloaded_p99 <= app.qosSeconds(),
              app.name, " violates QoS even at 5% capacity; the "
              "profile's qosMs is unachievable");
    const double bar =
        std::min(app.qosSeconds(), opts.kneeFactor * unloaded_p99);

    for (std::size_t i = 0; i < opts.iterations; ++i) {
        const double mid = 0.5 * (lo + hi);
        const double p99 = measureTailAtLoad(app, mid, params, opts);
        if (p99 <= bar)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

std::vector<double>
calibrateMaxQps(std::vector<AppProfile> &apps, const SystemParams &params,
                const MaxQpsOptions &opts)
{
    // Each service's bisection is independent (its own simulations,
    // its own seed, its own slot), so the loads cannot depend on the
    // pool width; a failure reports the lowest failing service.
    std::vector<double> loads(apps.size());
    ThreadPool::global().parallelFor(apps.size(), [&](std::size_t i) {
        loads[i] = findMaxQps(apps[i], params, opts);
    });
    for (std::size_t i = 0; i < apps.size(); ++i)
        apps[i].maxQps = loads[i];
    return loads;
}

} // namespace cuttlesys
