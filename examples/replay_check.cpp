/**
 * @file
 * Deterministic-replay checker: run the same colocation twice with
 * identical seeds and structurally diff the two decision traces.
 *
 * Wall-clock telemetry (phase timings) differs between runs; the
 * decisions must not. A structural mismatch means thread-schedule
 * nondeterminism leaked into the scheduling pipeline — e.g. a racy
 * parallel reconstruction whose float noise flips a search argmax —
 * which would make every CI failure unreproducible. On mismatch the
 * checker prints the diff, writes both traces plus the report next to
 * the binary, and exits nonzero so CI can upload them as artifacts.
 *
 * Usage: replay_check [duration_sec] [runs]
 *   duration_sec  colocation length per run (default 1.0 = 10 quanta)
 *   runs          total same-seed runs to cross-compare (default 2)
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/gallery.hh"
#include "apps/mix.hh"
#include "check/trace_diff.hh"
#include "common/logging.hh"
#include "core/cuttlesys.hh"
#include "core/training.hh"
#include "lcsim/calibrate.hh"
#include "power/power_model.hh"
#include "sim/driver.hh"
#include "telemetry/trace_sink.hh"

using namespace cuttlesys;

namespace {

/** One full colocation with a fresh sim + scheduler, fixed seeds. */
std::vector<telemetry::QuantumRecord>
runOnce(const SystemParams &params, const WorkloadMix &mix,
        const TrainingTables &tables, double max_power_w,
        double duration_sec)
{
    MulticoreSim sim(params, mix, /*seed=*/42);
    CuttleSysScheduler scheduler(params, tables, mix.batch.size(),
                                 mix.lc.qosSeconds());

    telemetry::MemorySink sink;
    DriverOptions opts;
    opts.durationSec = duration_sec;
    opts.loadPattern = LoadPattern::constant(0.8);
    opts.powerPattern = LoadPattern::constant(0.7);
    opts.maxPowerW = max_power_w;
    opts.traceSink = &sink;
    runColocation(sim, scheduler, opts);
    return sink.records();
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    const double duration_sec = argc > 1 ? std::atof(argv[1]) : 1.0;
    const std::size_t runs =
        argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 2;
    CS_ASSERT(duration_sec > 0.0 && runs >= 2,
              "usage: replay_check [duration_sec>0] [runs>=2]");

    const SystemParams params;
    const TrainTestSplit split = splitSpecGallery();
    WorkloadMix mix;
    mix.lc = profileByName("xapian");
    mix.batch = makeBatchMix(split.test, 16, /*seed=*/1);

    std::vector<AppProfile> services = {mix.lc};
    calibrateMaxQps(services, params);
    mix.lc = services.front();

    std::vector<AppProfile> known_services = tailbenchGallery();
    calibrateMaxQps(known_services, params);
    const TrainingTables tables =
        buildTrainingTables(split.train, known_services, params);
    const double max_power_w = systemMaxPower(split.test, params);

    const std::vector<telemetry::QuantumRecord> reference =
        runOnce(params, mix, tables, max_power_w, duration_sec);
    std::printf("run 1/%zu: %zu quanta (reference)\n", runs,
                reference.size());

    bool ok = true;
    for (std::size_t r = 2; r <= runs; ++r) {
        const std::vector<telemetry::QuantumRecord> replay =
            runOnce(params, mix, tables, max_power_w, duration_sec);
        const check::TraceDiff diff =
            check::diffDecisionTraces(reference, replay);
        std::printf("run %zu/%zu: %zu quanta, %zu fields compared, "
                    "%zu mismatches\n",
                    r, runs, replay.size(), diff.comparedFields,
                    diff.mismatches.size());
        if (diff.identical())
            continue;

        ok = false;
        std::printf("\n%s\n", diff.toString().c_str());
        telemetry::JsonlSink reference_out("replay_reference.jsonl");
        for (const telemetry::QuantumRecord &rec : reference)
            reference_out.record(rec);
        telemetry::JsonlSink replay_out("replay_divergent.jsonl");
        for (const telemetry::QuantumRecord &rec : replay)
            replay_out.record(rec);
        std::ofstream report("replay_diff.txt", std::ios::trunc);
        report << diff.toString(/*max_lines=*/1000) << '\n';
        std::printf("wrote replay_reference.jsonl, "
                    "replay_divergent.jsonl, replay_diff.txt\n");
        break;
    }

    if (ok) {
        std::printf("replay OK: decision traces are structurally "
                    "identical across %zu same-seed runs\n", runs);
        return 0;
    }
    std::printf("replay FAILED: scheduling nondeterminism detected\n");
    return 1;
}
