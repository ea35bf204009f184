#include "lcsim/queue_sim.hh"

#include <algorithm>
#include <cstddef>

#include "common/logging.hh"
#include "common/stats.hh"

namespace cuttlesys {

namespace {

/**
 * Buffer entries for @p qps over @p sec: twice the expected arrivals
 * plus a floor. With 2x headroom a noisy window rarely sets a new
 * high-water, so the buffers settle early and stay heap-free.
 */
std::size_t
headroomEntries(double qps, double sec)
{
    return static_cast<std::size_t>(2.0 * qps * sec) + 64;
}

} // namespace

LcQueueSim::LcQueueSim(AppProfile profile, std::size_t num_servers,
                       double ips_per_core, std::uint64_t seed)
    : profile_(std::move(profile)),
      work_(lognormalParams(profile_.requestInstructions(),
                            profile_.requestCv)),
      numServers_(num_servers), ips_(ips_per_core), rng_(seed)
{
    CS_ASSERT(numServers_ > 0, "LC service needs at least one core");
    CS_ASSERT(ips_ > 0.0, "service rate must be positive");
}

void
LcQueueSim::setLoadQps(double qps)
{
    CS_ASSERT(qps >= 0.0, "negative load");
    qps_ = qps;
    if (qps_ > 0.0)
        nextArrival_ = now_ + rng_.exponential(qps_);
    else
        nextArrival_ = -1.0;
}

void
LcQueueSim::setIpsPerCore(double ips)
{
    CS_ASSERT(ips > 0.0, "service rate must be positive");
    ips_ = ips;
}

void
LcQueueSim::setServers(std::size_t num_servers)
{
    CS_ASSERT(num_servers > 0, "LC service needs at least one core");
    numServers_ = num_servers;
    dispatch();
}

void
LcQueueSim::scheduleNextArrival()
{
    if (qps_ > 0.0)
        nextArrival_ = now_ + rng_.exponential(qps_);
    else
        nextArrival_ = -1.0;
}

void
LcQueueSim::dispatch()
{
    while (pendingHead_ < pending_.size() &&
           inService_.size() < numServers_) {
        const Pending req = pending_[pendingHead_];
        ++pendingHead_;
        const double service = req.instructions / ips_;
        inService_.emplace(now_ + service, req.arrival);
    }
    if (pendingHead_ == pending_.size()) {
        // Fully drained: recycle the buffer (capacity is kept).
        pending_.clear();
        pendingHead_ = 0;
    } else if (pendingHead_ >= 64 &&
               pendingHead_ * 2 >= pending_.size()) {
        // Mostly-consumed prefix on a queue that never quite drains:
        // shift the live tail down in place (no allocation) so the
        // buffer cannot grow without bound.
        pending_.erase(pending_.begin(),
                       pending_.begin() +
                           static_cast<std::ptrdiff_t>(pendingHead_));
        pendingHead_ = 0;
    }
}

void
LcQueueSim::reserveForLoad(double qps, double window_sec)
{
    CS_ASSERT(qps >= 0.0 && window_sec >= 0.0, "negative load window");
    const std::size_t want = headroomEntries(qps, window_sec);
    pending_.reserve(want);
    window_.reserve(want);
    tailScratch_.reserve(want);
}

void
LcQueueSim::run(double duration)
{
    CS_ASSERT(duration >= 0.0, "negative run duration");
    const double end = now_ + duration;

    // Amortized-headroom growth for the event buffers: reserve twice
    // this run's expected arrivals up front, so push_back's exact
    // doubling never reallocs mid-run. A load above any earlier one
    // still grows them here; reserveForLoad() sizes them ahead.
    if (qps_ > 0.0) {
        const std::size_t want = headroomEntries(qps_, duration);
        if (pending_.capacity() < want)
            pending_.reserve(want);
        if (window_.capacity() < window_.size() + want)
            window_.reserve(window_.size() + want);
    }

    while (true) {
        // Next event: arrival or earliest completion.
        double t_event = end;
        enum class Kind { None, Arrival, Completion } kind = Kind::None;

        if (nextArrival_ >= 0.0 && nextArrival_ < t_event) {
            t_event = nextArrival_;
            kind = Kind::Arrival;
        }
        if (!inService_.empty() && inService_.top().first < t_event) {
            t_event = inService_.top().first;
            kind = Kind::Completion;
        }

        // Integrate busy time up to the event (or the horizon).
        const double busy_cores = static_cast<double>(
            std::min(inService_.size(), numServers_));
        busyTime_ += busy_cores * (t_event - lastAccounted_);
        lastAccounted_ = t_event;
        now_ = t_event;

        if (kind == Kind::None)
            break;

        if (kind == Kind::Arrival) {
            Pending req;
            req.arrival = now_;
            req.instructions = profile_.requestCv == 0.0
                ? profile_.requestInstructions()
                : rng_.lognormal(work_.mu, work_.sigma);
            pending_.push_back(req);
            dispatch();
            scheduleNextArrival();
        } else {
            const auto [completion, arrival] = inService_.top();
            inService_.pop();
            window_.push_back(completion - arrival);
            dispatch();
        }
    }
}

double
LcQueueSim::tailLatency(double pct) const
{
    if (window_.empty())
        return 0.0;
    return percentile(window_, pct, tailScratch_);
}

double
LcQueueSim::meanLatency() const
{
    if (window_.empty())
        return 0.0;
    return mean(window_);
}

double
LcQueueSim::utilization() const
{
    const double elapsed = now_ - windowStart_;
    if (elapsed <= 0.0)
        return 0.0;
    return busyTime_ / (static_cast<double>(numServers_) * elapsed);
}

void
LcQueueSim::clearWindow()
{
    window_.clear();
    windowStart_ = now_;
    busyTime_ = 0.0;
    lastAccounted_ = now_;
}

} // namespace cuttlesys
