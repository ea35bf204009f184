#include "sim/multicore.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "power/power_model.hh"
#include "model/core_model.hh"

namespace cuttlesys {

namespace {

/** Cache rank for a 1.0-way allocation (profiling uses 1 way/core). */
std::size_t
oneWayRank()
{
    for (std::size_t i = 0; i < kNumCacheAllocs; ++i) {
        if (kCacheAllocWays[i] == 1.0)
            return i;
    }
    panic("no 1-way cache allocation in kCacheAllocWays");
}

} // namespace

MulticoreSim::MulticoreSim(SystemParams params, WorkloadMix mix,
                           std::uint64_t seed)
    : params_(std::move(params)), mix_(std::move(mix)), rng_(seed),
      churnRng_(seed ^ 0x9e3779b97f4a7c15ULL)
{
    CS_ASSERT(mix_.lc.isLatencyCritical(),
              "mix must lead with a latency-critical app");
    CS_ASSERT(!mix_.batch.empty(), "mix has no batch jobs");
    CS_ASSERT(mix_.batch.size() < params_.numCores,
              "more batch jobs than cores");

    const JobConfig widest(CoreConfig::widest(), kNumCacheAllocs - 1);
    const double ips = coreIps(mix_.lc, widest, params_);
    lcSim_ = std::make_unique<LcQueueSim>(mix_.lc, 16, ips, rng_());
    // A calibrated service's buffers are sized for its peak load over
    // one timeslice now, so the run's first busy quanta do not grow
    // them one load high at a time.
    if (mix_.lc.maxQps > 0.0)
        lcSim_->reserveForLoad(mix_.lc.maxQps, params_.timesliceSec);

    phaseOffsets_.resize(1 + mix_.batch.size());
    for (auto &offset : phaseOffsets_)
        offset = rng_.uniform(0.0, 2.0 * M_PI);
    phaseDriftAmplitude_ = kPhaseDriftAmplitude;
    phaseDriftPeriodSec_ = kPhaseDriftPeriodSec;

    batchInstr_.assign(mix_.batch.size(), 0.0);
    slotOccupied_.assign(mix_.batch.size(), true);
}

void
MulticoreSim::setBatchSlotOccupied(std::size_t slot, bool occupied)
{
    CS_ASSERT(slot < mix_.batch.size(), "batch slot out of range");
    slotOccupied_[slot] = occupied;
}

bool
MulticoreSim::batchSlotOccupied(std::size_t slot) const
{
    CS_ASSERT(slot < mix_.batch.size(), "batch slot out of range");
    return slotOccupied_[slot];
}

std::size_t
MulticoreSim::occupiedBatchSlots() const
{
    std::size_t n = 0;
    for (bool occupied : slotOccupied_)
        n += occupied ? 1 : 0;
    return n;
}

void
MulticoreSim::replaceBatchJob(std::size_t slot,
                              const AppProfile &profile)
{
    CS_ASSERT(slot < mix_.batch.size(), "batch slot out of range");
    CS_ASSERT(!profile.isLatencyCritical(),
              "batch slot needs a batch profile");
    mix_.batch[slot] = profile;
    phaseOffsets_[1 + slot] = churnRng_.uniform(0.0, 2.0 * M_PI);
    batchInstr_[slot] = 0.0;
    slotOccupied_[slot] = true;
}

void
MulticoreSim::setLcLoadQps(double qps)
{
    CS_ASSERT(qps >= 0.0, "negative load");
    lcLoadQps_ = qps;
    lcSim_->setLoadQps(qps);
}

void
MulticoreSim::setLcLoadFraction(double fraction)
{
    CS_ASSERT(mix_.lc.maxQps > 0.0,
              "LC profile not calibrated (maxQps == 0); run "
              "calibrateMaxQps first");
    setLcLoadQps(fraction * mix_.lc.maxQps);
}

void
MulticoreSim::setPhaseDrift(double amplitude, double period_sec)
{
    CS_ASSERT(amplitude >= 0.0 && amplitude < 1.0,
              "phase-drift amplitude out of [0, 1): ", amplitude);
    CS_ASSERT(period_sec > 0.0, "phase-drift period must be positive");
    phaseDriftAmplitude_ = amplitude;
    phaseDriftPeriodSec_ = period_sec;
}

double
MulticoreSim::phaseScale(std::size_t job_index, double t) const
{
    CS_ASSERT(job_index < phaseOffsets_.size(), "job index out of range");
    return 1.0 + phaseDriftAmplitude_ *
           std::sin(2.0 * M_PI * t / phaseDriftPeriodSec_ +
                    phaseOffsets_[job_index]);
}

const AppProfile &
MulticoreSim::driftedProfile(std::size_t job_index, double t) const
{
    const AppProfile &base =
        job_index == 0 ? mix_.lc : mix_.batch[job_index - 1];
    // Copy-assign into the scratch profile: the std::string name
    // reuses its capacity, so the per-phase hot path stays heap-free.
    AppProfile &drifted = driftScratch_[job_index == 0 ? 0 : 1];
    drifted = base;
    drifted.apki = base.apki * phaseScale(job_index, t);
    return drifted;
}

double
MulticoreSim::contentionScale(const SliceDecision &decision,
                              double lc_utilization) const
{
    const std::size_t batch_cores =
        params_.numCores > decision.lcCores
            ? params_.numCores - decision.lcCores : 0;
    std::size_t active = 0;
    for (std::size_t j = 0; j < decision.batchActive.size(); ++j)
        active += (decision.batchActive[j] && slotOccupied_[j]) ? 1 : 0;
    const double share =
        active == 0 ? 0.0
                    : std::min(1.0, static_cast<double>(batch_cores) /
                                    static_cast<double>(active));

    double scale = 1.0;
    // Two fixpoint iterations: bandwidth lowers IPS which lowers
    // bandwidth; the second pass is within a few percent of converged.
    for (int iter = 0; iter < 2; ++iter) {
        double total_bw = 0.0;
        const AppProfile &lc = driftedProfile(0, now_);
        total_bw += missBandwidthGBs(lc, decision.lcConfig, params_,
                                     scale, decision.reconfigurable) *
                    lc_utilization *
                    static_cast<double>(decision.lcCores);
        for (std::size_t j = 0; j < mix_.batch.size(); ++j) {
            if (!decision.batchActive[j] || !slotOccupied_[j])
                continue;
            const AppProfile &app = driftedProfile(j + 1, now_);
            total_bw += missBandwidthGBs(app, decision.batchConfigs[j],
                                         params_, scale,
                                         decision.reconfigurable) *
                        share;
        }
        scale = 1.0 + kMemContentionStrength *
                total_bw / kPeakMemBandwidthGBs;
    }
    return scale;
}

std::vector<ProfilePair>
MulticoreSim::profileJobs(std::size_t lc_cores, bool reconfigurable)
{
    std::vector<ProfilePair> pairs;
    profileJobsInto(pairs, lc_cores, reconfigurable);
    return pairs;
}

void
MulticoreSim::profileJobsInto(std::vector<ProfilePair> &out,
                              std::size_t lc_cores,
                              bool reconfigurable)
{
    const std::size_t rank1 = oneWayRank();
    const JobConfig wide(CoreConfig::widest(), rank1);
    const JobConfig narrow(CoreConfig::narrowest(), rank1);

    // Representative contention during profiling: half the chip wide,
    // half narrow. Build a synthetic decision reflecting that (in the
    // persistent scratch so repeated quanta reuse its capacity).
    SliceDecision &mixture = profileMixture_;
    mixture.lcConfig = wide;
    mixture.lcCores = lc_cores;
    mixture.batchConfigs.resize(mix_.batch.size());
    mixture.batchActive.assign(mix_.batch.size(), true);
    mixture.reconfigurable = reconfigurable;
    for (std::size_t j = 0; j < mix_.batch.size(); ++j)
        mixture.batchConfigs[j] = (j % 2 == 0) ? wide : narrow;

    const AppProfile &lc_now = driftedProfile(0, now_);
    const double lc_ips_wide =
        coreIps(lc_now, wide, params_, 1.0, reconfigurable);
    double util_est = 1.0;
    if (lc_ips_wide > 0.0 && lc_cores > 0) {
        util_est = std::min(1.0, lcLoadQps_ *
                            lc_now.requestInstructions() /
                            (static_cast<double>(lc_cores) *
                             lc_ips_wide));
    }
    const double mem_scale = contentionScale(mixture, util_est);

    out.resize(1 + mix_.batch.size());

    // LC job: power sampled at both extremes; BIPS is not the LC
    // metric (tail latency comes from steady-state history instead).
    {
        const double ipc_wide = coreIpc(lc_now, wide, params_, mem_scale);
        const double ipc_narrow =
            coreIpc(lc_now, narrow, params_, mem_scale);
        out[0].powerWide =
            corePower(lc_now, wide.core(), ipc_wide * util_est, params_,
                      reconfigurable) *
            (1.0 + rng_.normal(0.0, kSampleNoise));
        out[0].powerNarrow =
            corePower(lc_now, narrow.core(), ipc_narrow * util_est,
                      params_, reconfigurable) *
            (1.0 + rng_.normal(0.0, kSampleNoise));
        out[0].bipsWide = coreBips(lc_now, wide, params_, mem_scale,
                                   reconfigurable);
        out[0].bipsNarrow = coreBips(lc_now, narrow, params_,
                                     mem_scale, reconfigurable);
    }

    for (std::size_t j = 0; j < mix_.batch.size(); ++j) {
        ProfilePair &pair = out[j + 1];
        if (!slotOccupied_[j]) {
            // Vacant slot: no job to sample (and no RNG draws, so
            // churn changes the stream only where jobs changed).
            pair = ProfilePair{};
            continue;
        }
        const AppProfile &app = driftedProfile(j + 1, now_);
        const double ipc_w = coreIpc(app, wide, params_, mem_scale);
        const double ipc_n = coreIpc(app, narrow, params_, mem_scale);
        const double freq =
            coreFrequencyGHz(params_, reconfigurable);
        pair.bipsWide =
            ipc_w * freq * (1.0 + rng_.normal(0.0, kSampleNoise));
        pair.bipsNarrow =
            ipc_n * freq * (1.0 + rng_.normal(0.0, kSampleNoise));
        pair.powerWide =
            corePower(app, wide.core(), ipc_w, params_, reconfigurable) *
            (1.0 + rng_.normal(0.0, kSampleNoise));
        pair.powerNarrow =
            corePower(app, narrow.core(), ipc_n, params_,
                      reconfigurable) *
            (1.0 + rng_.normal(0.0, kSampleNoise));

        // Instructions retired during the two 1 ms samples.
        const double instr =
            (pair.bipsWide + pair.bipsNarrow) * 1e9 * params_.sampleSec;
        batchInstr_[j] += instr;
        totalBatchInstr_ += instr;
    }

    // The LC service runs the 2 ms at the average of the two
    // profiling rates.
    const double lc_ips_avg =
        0.5 * (coreIps(lc_now, wide, params_, mem_scale, reconfigurable) +
               coreIps(lc_now, narrow, params_, mem_scale,
                       reconfigurable));
    lcSim_->setServers(std::max<std::size_t>(lc_cores, 1));
    lcSim_->setIpsPerCore(lc_ips_avg);
    lcSim_->run(params_.sampleSec *
                static_cast<double>(params_.numProfilingSamples));

    now_ = lcSim_->now();
}

void
MulticoreSim::runPhase(const SliceDecision &decision, double dur,
                       PhaseTotals &totals)
{
    if (dur <= 0.0)
        return;
    CS_ASSERT(decision.batchConfigs.size() == mix_.batch.size() &&
              decision.batchActive.size() == mix_.batch.size(),
              "decision shape does not match the mix");
    CS_ASSERT(decision.lcCores >= 1 &&
              decision.lcCores < params_.numCores,
              "LC core count ", decision.lcCores, " out of range");

    const std::size_t batch_cores = params_.numCores - decision.lcCores;
    std::size_t active = 0;
    for (std::size_t j = 0; j < decision.batchActive.size(); ++j)
        active += (decision.batchActive[j] && slotOccupied_[j]) ? 1 : 0;
    const double share =
        active == 0 ? 0.0
                    : std::min(1.0, static_cast<double>(batch_cores) /
                                    static_cast<double>(active));

    // --- latency-critical service ------------------------------------
    const AppProfile &lc_now = driftedProfile(0, now_);
    const double util_prev = lcSim_->utilization();
    const double util_est = util_prev > 0.0 ? util_prev : 0.5;
    const double mem_scale = contentionScale(decision, util_est);

    const double lc_ips = coreIps(lc_now, decision.lcConfig, params_,
                                  mem_scale, decision.reconfigurable);
    lcSim_->setServers(decision.lcCores);
    lcSim_->setIpsPerCore(lc_ips);
    const double lc_start = lcSim_->now();
    lcSim_->run(dur);
    CS_ASSERT(std::abs(lcSim_->now() - (lc_start + dur)) < 1e-9,
              "LC simulator time drifted");

    const double lc_util = lcSim_->utilization();
    const double lc_ipc =
        coreIpc(lc_now, decision.lcConfig, params_, mem_scale);
    const double lc_core_power =
        corePower(lc_now, decision.lcConfig.core(), lc_ipc * lc_util,
                  params_, decision.reconfigurable);
    const double lc_power =
        lc_core_power * static_cast<double>(decision.lcCores);

    // --- batch jobs ----------------------------------------------------
    double chip_power = lc_power + llcPower(params_);
    std::size_t busy_batch_cores = 0;
    for (std::size_t j = 0; j < mix_.batch.size(); ++j) {
        if (!decision.batchActive[j] || !slotOccupied_[j])
            continue;
        const AppProfile &app = driftedProfile(j + 1, now_);
        const double ipc = coreIpc(app, decision.batchConfigs[j],
                                   params_, mem_scale);
        const double bips =
            ipc * coreFrequencyGHz(params_, decision.reconfigurable);
        const double instr = bips * 1e9 * dur * share;
        totals.batchInstr[j] += instr;
        batchInstr_[j] += instr;
        totalBatchInstr_ += instr;

        const double job_power =
            corePower(app, decision.batchConfigs[j].core(), ipc,
                      params_, decision.reconfigurable) *
            share;
        totals.batchPowerSeconds[j] += job_power * dur;
        chip_power += job_power;
        ++busy_batch_cores;
    }
    busy_batch_cores =
        std::min(busy_batch_cores, batch_cores);
    const std::size_t gated =
        batch_cores > busy_batch_cores ? batch_cores - busy_batch_cores
                                       : 0;
    chip_power += gatedCorePower() * static_cast<double>(gated);

    totals.duration += dur;
    totals.powerSeconds += chip_power * dur;
    totals.lcPowerSeconds += lc_power * dur;
    now_ = lcSim_->now();
}

SliceMeasurement
MulticoreSim::runSlice(const SliceDecision &decision, double duration,
                       bool fresh_lc_window)
{
    SliceMeasurement m;
    runSliceInto(m, decision, duration, fresh_lc_window);
    return m;
}

void
MulticoreSim::runSliceInto(SliceMeasurement &m,
                           const SliceDecision &decision,
                           double duration, bool fresh_lc_window)
{
    if (duration < 0.0)
        duration = params_.timesliceSec;

    PhaseTotals &totals = totalsScratch_;
    totals.duration = 0.0;
    totals.powerSeconds = 0.0;
    totals.lcPowerSeconds = 0.0;
    totals.batchInstr.assign(mix_.batch.size(), 0.0);
    totals.batchPowerSeconds.assign(mix_.batch.size(), 0.0);

    m.timeSec = now_;
    m.lcLoadQps = lcLoadQps_;
    m.batchInstructions = 0.0;
    if (fresh_lc_window)
        lcSim_->clearWindow();

    double overhead = std::min(decision.overheadSec, duration);
    if (overhead > 0.0 && lastDecision_) {
        holdoverScratch_ = *lastDecision_;
        holdoverScratch_.overheadSec = 0.0;
        runPhase(holdoverScratch_, overhead, totals);
    } else {
        overhead = 0.0;
    }
    runPhase(decision, duration - overhead, totals);
    lastDecision_ = decision;

    // --- assemble the measurement --------------------------------------
    m.lcTailLatency = lcSim_->tailLatency(99.0);
    m.lcUtilization = lcSim_->utilization();
    m.lcCompleted = lcSim_->completedInWindow();

    m.batchBips.resize(mix_.batch.size());
    m.batchPower.resize(mix_.batch.size());
    m.batchJobInstructions = totals.batchInstr;
    for (std::size_t j = 0; j < mix_.batch.size(); ++j) {
        if (!slotOccupied_[j]) {
            m.batchBips[j] = 0.0;
            m.batchPower[j] = 0.0;
            continue;
        }
        const double noise = 1.0 + rng_.normal(0.0, kSliceNoise);
        m.batchBips[j] =
            totals.batchInstr[j] / duration / 1e9 * noise;
        m.batchPower[j] = totals.duration > 0.0
            ? totals.batchPowerSeconds[j] / totals.duration *
              (1.0 + rng_.normal(0.0, kSliceNoise))
            : 0.0;
        m.batchInstructions += totals.batchInstr[j];
    }
    m.lcPower = totals.duration > 0.0
        ? totals.lcPowerSeconds / totals.duration : 0.0;
    m.totalPower = totals.duration > 0.0
        ? totals.powerSeconds / totals.duration : 0.0;
}

double
MulticoreSim::truthBatchBips(std::size_t job, const JobConfig &config,
                             bool reconfigurable) const
{
    CS_ASSERT(job < mix_.batch.size(), "batch job index out of range");
    return coreBips(driftedProfile(job + 1, now_), config, params_, 1.0,
                    reconfigurable);
}

double
MulticoreSim::truthBatchPower(std::size_t job, const JobConfig &config,
                              bool reconfigurable) const
{
    CS_ASSERT(job < mix_.batch.size(), "batch job index out of range");
    const AppProfile &app = driftedProfile(job + 1, now_);
    const double ipc = coreIpc(app, config, params_);
    return corePower(app, config.core(), ipc, params_, reconfigurable);
}

} // namespace cuttlesys
