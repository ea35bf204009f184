/**
 * @file
 * Discrete-event queueing simulator for latency-critical services.
 *
 * Models one TailBench-like service as an FCFS multi-server queue:
 * Poisson request arrivals at a target QPS, per-request work drawn
 * lognormal around the profile's mean, service rate set by the core
 * model (instructions per second of the currently assigned core/cache
 * configuration). This is the component that turns "configuration
 * choice" into "tail latency", reproducing the characteristic shape
 * of Fig 1: flat tails at low load, a hockey stick as the narrowest
 * configurations saturate.
 *
 * The simulator is stateful across calls so the runtime can carry
 * queue backlogs between 100 ms timeslices (a QoS violation in slice
 * k leaves a backlog slice k+1 must also absorb, as in the paper's
 * Fig 8 dynamics).
 */

#ifndef CUTTLESYS_LCSIM_QUEUE_SIM_HH
#define CUTTLESYS_LCSIM_QUEUE_SIM_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "apps/app_profile.hh"
#include "common/rng.hh"

namespace cuttlesys {

/** One service instance (a cluster of cores serving one LC app). */
class LcQueueSim
{
  public:
    /**
     * @param profile the LC application served
     * @param num_servers cores assigned to the service
     * @param ips_per_core service rate of each core (instr/s)
     * @param seed RNG seed (deterministic runs)
     */
    LcQueueSim(AppProfile profile, std::size_t num_servers,
               double ips_per_core, std::uint64_t seed);

    /** Change the offered load (takes effect immediately). */
    void setLoadQps(double qps);

    /**
     * Change the per-core service rate (a reconfiguration decision).
     * Requests already in service finish at their original rate.
     */
    void setIpsPerCore(double ips);

    /** Grow/shrink the server pool (core relocation). */
    void setServers(std::size_t num_servers);

    /**
     * Size the event and measurement buffers for @p qps offered over
     * a @p window_sec measurement window, with the headroom run()
     * grows them by. A sim built for a known peak load (the
     * calibrated max QPS) reaches its high-water capacity here, not
     * one realloc per new load high in its first busy windows.
     */
    void reserveForLoad(double qps, double window_sec);

    /** Advance simulated time by @p duration seconds. */
    void run(double duration);

    /** Completions recorded since the last clearWindow(). */
    std::size_t completedInWindow() const { return window_.size(); }

    /**
     * Percentile latency (seconds) over the current window.
     * Returns 0 when the window is empty.
     */
    double tailLatency(double pct = 99.0) const;

    /** Mean latency (seconds) over the current window; 0 if empty. */
    double meanLatency() const;

    /** Busy-core fraction integrated over the window. */
    double utilization() const;

    /** Requests currently queued (excluding those in service). */
    std::size_t backlog() const
    {
        return pending_.size() - pendingHead_;
    }

    /** Requests currently in service. */
    std::size_t inService() const { return inService_.size(); }

    /** Reset the measurement window (call per timeslice). */
    void clearWindow();

    /** Current simulated time, seconds. */
    double now() const { return now_; }

    const AppProfile &profile() const { return profile_; }
    std::size_t servers() const { return numServers_; }
    double loadQps() const { return qps_; }
    double ipsPerCore() const { return ips_; }

  private:
    struct Pending
    {
        double arrival;       //!< arrival timestamp, s
        double instructions;  //!< work, instructions
    };

    /** Start service for queued requests while cores are free. */
    void dispatch();

    /** Draw the next interarrival gap and schedule it. */
    void scheduleNextArrival();

    AppProfile profile_;
    /** Request-work distribution, fixed by the immutable profile. */
    LognormalParams work_;
    std::size_t numServers_;
    double ips_;
    double qps_ = 0.0;
    Rng rng_;

    double now_ = 0.0;
    double nextArrival_ = -1.0; //!< < 0 means "no arrival scheduled"

    /**
     * FCFS queue as a vector plus a consumed-prefix index. A deque
     * churns map/node allocations under sustained push/pop; the
     * vector reaches its high-water capacity once and then the whole
     * arrival/completion loop is heap-free (the steady-state
     * zero-alloc gate covers a full fleet node, LC queue included).
     * Order is preserved exactly, so the event stream — and with it
     * every decision trace — is bitwise unchanged.
     */
    std::vector<Pending> pending_;
    std::size_t pendingHead_ = 0;
    /** Min-heap of (completion time, arrival time) for busy cores. */
    std::priority_queue<std::pair<double, double>,
                        std::vector<std::pair<double, double>>,
                        std::greater<>> inService_;

    std::vector<double> window_;   //!< completed latencies, s
    mutable std::vector<double> tailScratch_; //!< percentile sort buf
    double windowStart_ = 0.0;
    double busyTime_ = 0.0;        //!< integrated busy core-seconds
    double lastAccounted_ = 0.0;   //!< time up to which busyTime_ counts
};

} // namespace cuttlesys

#endif // CUTTLESYS_LCSIM_QUEUE_SIM_HH
