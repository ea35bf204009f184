/**
 * @file
 * The fleet controller at scale, timed by its own phase clocks.
 *
 * Every row comes from the shipped FleetController driving full
 * per-node simulators through the compressed diurnal day. Two A/Bs
 * run per fleet size:
 *
 *  - incremental decisions, at N = 16/64/256/1024: stability gate +
 *    memo cache on vs. --no-fastpath always-full. Reported: the mean
 *    per-node decision time (the scheduler-side phases: ingest,
 *    reconstruct, search, enforce), the fast-path hit rate, and the
 *    QoS / batch-Ginstr deltas the reuse costs;
 *  - DAG data gravity, at N = 16/64/256: churned DAG workflow
 *    arrivals under locality-aware vs locality-blind placement
 *    (transfers modeled and charged in both). Reported: completed
 *    workflows, gmean makespan, artifact hit rate, transfer volume,
 *    and the QoS / Ginstr deltas.
 *
 * From every one of those runs the controller table reports the
 * median µs per cluster quantum by phase (churn, views, place,
 * budget, shift, memo, step, gather), read from
 * FleetController::phaseSeconds() after each quantum past warm-up.
 * The wall times are reported, never gated: the controller's scaling
 * is gated by deterministic score counters
 * (PlacementRoundTest.ScoresOncePerVacantNodeThenOncePerBooking), its
 * width determinism by the fleet replay checks, and its heap traffic
 * by the ZeroAlloc tests.
 *
 * --smoke runs N = 16 only and exits nonzero unless the incremental
 * arm runs at most 40% of the always-full arm's full node-quanta
 * (the full pipeline — reconstruction plus DDS — on at most 1 in 2.5
 * decisions) at a >= 50% hit rate with QoS within 1 point and batch
 * Ginstr within 1%, and the DAG A/B completes workflows with
 * locality-aware gmean makespan strictly below blind at unchanged QoS
 * and batch throughput. The incremental gate counts decisions, so it
 * does not jitter; the decision-time speedup is reported, not gated.
 *
 * Writes BENCH_fleet.json to the working directory. The committed
 * copy comes from the full sweep run at the repository root:
 *
 *   ./build/bench/bench_fleet
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/app_profile.hh"
#include "apps/gallery.hh"
#include "cluster/fleet.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/training.hh"
#include "lcsim/calibrate.hh"
#include "power/power_model.hh"
#include "telemetry/trace_sink.hh"

using namespace cuttlesys;
using namespace cuttlesys::cluster;

namespace {

/** Quanta of warm-up excluded from every steady-state mean and
 *  median (cold-start fulls and the first anchor updates). */
constexpr std::size_t kWarmQuanta = 4;

/** Everything the offline stack needs to build real fleets once. */
struct RealStack
{
    SystemParams params;
    TrainTestSplit split = splitSpecGallery();
    std::vector<AppProfile> services = tailbenchGallery();
    AppProfile lc;
    TrainingTables tables;
    double nodeMaxW = 0.0;

    RealStack()
    {
        calibrateMaxQps(services, params);
        for (const AppProfile &s : services) {
            if (s.name == "masstree")
                lc = s;
        }
        // Test-speed reconstruction budgets: the A/B compares the two
        // decision paths under identical search settings, so the
        // *ratio* is representative while the absolute full-quantum
        // cost stays benchable at 1024 nodes.
        TrainingOptions topts;
        topts.latencyLoads = {0.25, 0.55, 0.85};
        tables = buildTrainingTables(split.train, services, params,
                                     topts);
        nodeMaxW = systemMaxPower(split.test, params);
    }
};

/**
 * One real-fleet run: its outcome and the controller's clocks, as
 * medians over the steady quanta (a shared host's scheduling noise
 * lands in a few quanta; the median keeps it out of the row).
 */
struct FleetRun
{
    FleetSummary summary;
    FleetPhaseSeconds phaseUs{}; //!< median µs per cluster quantum
    double controllerUs = 0.0;   //!< median of all phases but step
    double quantumUs = 0.0;      //!< median of the whole quantum
};

/** Drive @p fleet through its day, reading its phase clocks after
 *  every quantum past the warm-up. */
FleetRun
runFleet(FleetController &fleet)
{
    CS_ASSERT(fleet.numQuanta() > kWarmQuanta,
              "day shorter than the warm-up");
    std::vector<double> perPhase[kNumFleetPhases];
    std::vector<double> controller;
    std::vector<double> quantum;
    FleetPhaseSeconds last{};
    while (!fleet.done()) {
        fleet.stepQuantum();
        const FleetPhaseSeconds &now = fleet.phaseSeconds();
        if (fleet.nextQuantum() > kWarmQuanta) {
            double total = 0.0;
            for (std::size_t p = 0; p < kNumFleetPhases; ++p) {
                const double us = (now[p] - last[p]) * 1e6;
                perPhase[p].push_back(us);
                total += us;
            }
            const double step =
                perPhase[static_cast<std::size_t>(FleetPhase::Step)]
                    .back();
            controller.push_back(total - step);
            quantum.push_back(total);
        }
        last = now;
    }
    FleetRun run;
    run.summary = fleet.summary();
    for (std::size_t p = 0; p < kNumFleetPhases; ++p)
        run.phaseUs[p] = percentile(perPhase[p], 50.0);
    run.controllerUs = percentile(controller, 50.0);
    run.quantumUs = percentile(quantum, 50.0);
    return run;
}

/** Scheduler iteration caps that keep the A/Bs benchable at scale. */
void
benchSchedulerCaps(FleetOptions &opts)
{
    opts.scheduler.sgdBips.maxIterations = 40;
    opts.scheduler.sgdPower.maxIterations = 40;
    opts.scheduler.sgdLatency.maxIterations = 40;
    opts.scheduler.dds.maxIterations = 25;
    opts.scheduler.dds.threads = 4;
}

// ---------------------------------------------------------------------
// Incremental decisions: stability gate + memo vs always-full.

/** One arm of the A/B: a full diurnal fleet run, instrumented. */
struct AbArm
{
    FleetRun run;
    double decisionUs = 0.0; //!< mean per-node decision time, steady
    /** Steady node-quanta that ran the full pipeline (every one in
     *  the always-full arm), and their DDS evaluations. */
    std::size_t fullQuanta = 0;
    std::size_t evaluations = 0;
    double phaseUs[telemetry::kNumPhases] = {}; //!< per node-quantum
    std::size_t invalidations[telemetry::kNumInvalidationReasons] =
        {}; //!< why full quanta ran (steady records)
};

AbArm
runAbArm(const RealStack &stack, std::size_t n, std::size_t quanta,
         bool fastpath)
{
    telemetry::MemorySink sink;
    FleetOptions opts;
    opts.numNodes = n;
    opts.seed = 42;
    opts.scenario.daySeconds =
        static_cast<double>(quanta) * stack.params.timesliceSec;
    opts.scenario.peakWindowStartSec =
        0.375 * opts.scenario.daySeconds;
    opts.scenario.peakWindowEndSec = 0.75 * opts.scenario.daySeconds;
    // The calm diurnal fleet the incremental path targets: replicas
    // ride a moderate wave with light churn, so steady-state quanta
    // dominate and the stability gate earns its keep. The compressed
    // day makes per-quantum load deltas ~2000x a real day's, so the
    // wave stays inside [0.45, 0.80] — at the default [0.15, 0.95]
    // every quantum near the trough or the peak legitimately trips
    // the drift and tail-guard checks, which measures the scenario's
    // aggression, not the fast path.
    opts.scenario.loadTrough = 0.45;
    opts.scenario.loadPeak = 0.80;
    opts.loadScaleMin = 1.0;
    opts.loadScaleMax = 1.0;
    opts.churn.departureProbability = 0.002;
    opts.churn.meanArrivalsPerQuantum =
        0.01 * static_cast<double>(n);
    // Same compression argument for application phases: the sim's
    // unit-test default cycles a job's memory intensity every 7
    // timeslices, i.e. the job changes identity faster than any
    // scheduler — full or incremental — can track it. Real phases
    // span many decision quanta; 28 timeslices keeps drift live (the
    // refresh cadence still has work to do) without reducing the A/B
    // to a profile-oscillator microbenchmark.
    opts.phaseDriftPeriodSec = 28.0 * stack.params.timesliceSec;
    opts.sink = &sink;
    benchSchedulerCaps(opts);
    if (!fastpath) {
        opts.scheduler.fastPath = false;
        opts.memoCache = false;
    }

    BackfillBinPack backfill;
    FleetController fleet(stack.params, stack.tables, stack.lc,
                          stack.split.test, stack.nodeMaxW, backfill,
                          opts);
    AbArm arm;
    arm.run = runFleet(fleet);

    // Mean per-node decision time over the steady records: the
    // scheduler-side phases only (ingest + reconstruct + search +
    // enforce) — profiling and slice execution are driver cost either
    // way.
    std::size_t records = 0;
    for (const telemetry::QuantumRecord &r : sink.records()) {
        if (r.slice < kWarmQuanta)
            continue;
        ++records;
        arm.evaluations += r.searchEvaluations;
        if (r.decisionPath != telemetry::DecisionPath::FastReuse)
            ++arm.fullQuanta;
        if (r.decisionPath != telemetry::DecisionPath::None &&
            r.decisionPath != telemetry::DecisionPath::FastReuse) {
            ++arm.invalidations[static_cast<std::size_t>(
                r.invalidationReason)];
        }
        for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
            arm.phaseUs[p] += r.phaseSec[p] * 1e6;
        arm.decisionUs +=
            (r.phase(telemetry::Phase::Ingest) +
             r.phase(telemetry::Phase::Reconstruct) +
             r.phase(telemetry::Phase::Search) +
             r.phase(telemetry::Phase::Enforce)) * 1e6;
    }
    if (records > 0) {
        arm.decisionUs /= static_cast<double>(records);
        for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
            arm.phaseUs[p] /= static_cast<double>(records);
    }
    return arm;
}

/** One fleet size's A/B outcome. */
struct AbPoint
{
    std::size_t nodes = 0;
    std::size_t quanta = 0;
    AbArm on;  //!< stability gate + memo cache (shipped default)
    AbArm off; //!< --no-fastpath always-full baseline
    double decisionSpeedup = 0.0;
    double fullRatio = 0.0;       //!< on/off full node-quanta (gated)
    double evaluationRatio = 0.0; //!< on/off DDS evaluations
    double qosDeltaPts = 0.0;    //!< on - off, percentage points
    double ginstrRelDelta = 0.0; //!< |on/off - 1|
};

AbPoint
measureIncremental(const RealStack &stack, std::size_t n,
                   std::size_t quanta)
{
    AbPoint pt;
    pt.nodes = n;
    pt.quanta = quanta;
    pt.off = runAbArm(stack, n, quanta, /*fastpath=*/false);
    pt.on = runAbArm(stack, n, quanta, /*fastpath=*/true);
    const FleetSummary &on = pt.on.run.summary;
    const FleetSummary &off = pt.off.run.summary;
    pt.decisionSpeedup = pt.on.decisionUs > 0.0
        ? pt.off.decisionUs / pt.on.decisionUs
        : 0.0;
    pt.fullRatio = pt.off.fullQuanta > 0
        ? static_cast<double>(pt.on.fullQuanta) /
            static_cast<double>(pt.off.fullQuanta)
        : 0.0;
    pt.evaluationRatio = pt.off.evaluations > 0
        ? static_cast<double>(pt.on.evaluations) /
            static_cast<double>(pt.off.evaluations)
        : 0.0;
    pt.qosDeltaPts = on.clusterQosPct - off.clusterQosPct;
    pt.ginstrRelDelta = off.totalBatchInstructions > 0.0
        ? std::fabs(on.totalBatchInstructions /
                        off.totalBatchInstructions -
                    1.0)
        : 0.0;
    return pt;
}

// ---------------------------------------------------------------------
// DAG data gravity: locality-aware vs locality-blind placement.

/**
 * One arm of the data-gravity A/B: the same calm diurnal fleet, but
 * churn also submits DAG workflows whose tasks publish and consume
 * content-addressed artifacts through the per-node caches. The two
 * arms differ only in dag.localityAware — whether placement sees the
 * per-node resident-byte deltas — so any makespan gap is the gravity
 * term's doing.
 */
FleetRun
runDagArm(const RealStack &stack, std::size_t n, std::size_t quanta,
          bool aware)
{
    // The fleet_sim --dag configuration: churn hot enough that slots
    // free every few quanta (workflow tasks need somewhere to land)
    // and a scarce rack budget so placement quality matters. Only
    // the scheduler iteration caps differ, to keep the A/B benchable
    // at 256 nodes.
    FleetOptions opts;
    opts.numNodes = n;
    opts.seed = 2026;
    opts.scenario.daySeconds =
        static_cast<double>(quanta) * stack.params.timesliceSec;
    opts.scenario.peakWindowStartSec =
        0.375 * opts.scenario.daySeconds;
    opts.scenario.peakWindowEndSec = 0.75 * opts.scenario.daySeconds;
    opts.rackBudgetFrac = 0.55;
    opts.churn.departureProbability = 0.06;
    opts.churn.meanArrivalsPerQuantum =
        0.5 * static_cast<double>(n);
    benchSchedulerCaps(opts);
    opts.dag.enable = true;
    opts.dag.maxLiveWorkflows = 2 * n;
    opts.dag.localityAware = aware;
    opts.churn.meanWorkflowArrivalsPerQuantum =
        0.05 * static_cast<double>(n);

    BackfillBinPack backfill;
    FleetController fleet(stack.params, stack.tables, stack.lc,
                          stack.split.test, stack.nodeMaxW, backfill,
                          opts);
    return runFleet(fleet);
}

/** One fleet size's data-gravity A/B outcome. */
struct DagPoint
{
    std::size_t nodes = 0;
    std::size_t quanta = 0;
    FleetRun aware;
    FleetRun blind;
    double makespanRelDelta = 0.0; //!< aware/blind - 1 (neg = win)
    double qosDeltaPts = 0.0;      //!< aware - blind, pct points
    double ginstrRelDelta = 0.0;   //!< aware/blind - 1, signed
};

DagPoint
measureDag(const RealStack &stack, std::size_t n, std::size_t quanta)
{
    DagPoint pt;
    pt.nodes = n;
    pt.quanta = quanta;
    pt.blind = runDagArm(stack, n, quanta, /*aware=*/false);
    pt.aware = runDagArm(stack, n, quanta, /*aware=*/true);
    const FleetSummary &aware = pt.aware.summary;
    const FleetSummary &blind = pt.blind.summary;
    pt.makespanRelDelta = blind.gmeanMakespanQuanta > 0.0
        ? aware.gmeanMakespanQuanta / blind.gmeanMakespanQuanta - 1.0
        : 0.0;
    pt.qosDeltaPts = aware.clusterQosPct - blind.clusterQosPct;
    pt.ginstrRelDelta = blind.totalBatchInstructions > 0.0
        ? aware.totalBatchInstructions /
                blind.totalBatchInstructions -
            1.0
        : 0.0;
    return pt;
}

// ---------------------------------------------------------------------
// The controller table: one row per real-fleet run above.

struct ControllerRow
{
    const char *run = "";
    std::size_t nodes = 0;
    std::size_t quanta = 0;
    const FleetRun *fleet = nullptr;
};

std::vector<ControllerRow>
controllerRows(const std::vector<AbPoint> &ab,
               const std::vector<DagPoint> &dag)
{
    std::vector<ControllerRow> rows;
    for (const AbPoint &pt : ab) {
        rows.push_back({"always-full", pt.nodes, pt.quanta, &pt.off.run});
        rows.push_back({"gate+memo", pt.nodes, pt.quanta, &pt.on.run});
    }
    for (const DagPoint &pt : dag) {
        rows.push_back({"dag-blind", pt.nodes, pt.quanta, &pt.blind});
        rows.push_back({"dag-aware", pt.nodes, pt.quanta, &pt.aware});
    }
    return rows;
}

void
printControllerTable(const std::vector<ControllerRow> &rows)
{
    std::printf("controller phases — FleetController::phaseSeconds(), "
                "median us per cluster quantum\n(quanta after the "
                "first %zu; controller = all phases but the node "
                "step)\n",
                kWarmQuanta);
    std::printf("%-12s %5s", "run", "nodes");
    for (std::size_t p = 0; p < kNumFleetPhases; ++p)
        std::printf(" %9s", fleetPhaseName(static_cast<FleetPhase>(p)));
    std::printf(" %10s %10s\n", "controller", "quantum");
    for (const ControllerRow &row : rows) {
        std::printf("%-12s %5zu", row.run, row.nodes);
        for (const double us : row.fleet->phaseUs)
            std::printf(" %9.1f", us);
        std::printf(" %10.1f %10.1f\n", row.fleet->controllerUs,
                    row.fleet->quantumUs);
    }
}

void
writeJson(const std::vector<ControllerRow> &rows,
          const std::vector<AbPoint> &ab,
          const std::vector<DagPoint> &dag)
{
    FILE *f = std::fopen("BENCH_fleet.json", "w");
    if (f == nullptr)
        return;
    const AbPoint &gate = ab.front();
    std::fprintf(f,
                 "{\n"
                 "  \"slots_per_node\": %zu,\n"
                 "  \"placement_policy\": \"%s\",\n"
                 "  \"warm_quanta\": %zu,\n"
                 "  \"controller\": [\n",
                 FleetOptions{}.batchSlotsPerNode,
                 gate.on.run.summary.placementPolicy.c_str(),
                 kWarmQuanta);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ControllerRow &row = rows[i];
        std::fprintf(f, "    {\"run\": \"%s\", \"nodes\": %zu, "
                        "\"quanta\": %zu",
                     row.run, row.nodes, row.quanta);
        for (std::size_t p = 0; p < kNumFleetPhases; ++p) {
            std::fprintf(f, ", \"%s_us\": %.2f",
                         fleetPhaseName(static_cast<FleetPhase>(p)),
                         row.fleet->phaseUs[p]);
        }
        std::fprintf(f,
                     ", \"controller_us\": %.2f, \"quantum_us\": %.1f}"
                     "%s\n",
                     row.fleet->controllerUs, row.fleet->quantumUs,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"incremental\": [\n");
    for (std::size_t i = 0; i < ab.size(); ++i) {
        const AbPoint &pt = ab[i];
        const FleetSummary &on = pt.on.run.summary;
        const FleetSummary &off = pt.off.run.summary;
        std::fprintf(
            f,
            "    {\"nodes\": %zu, \"quanta\": %zu, "
            "\"full_us_per_decision\": %.2f, "
            "\"fast_us_per_decision\": %.2f, "
            "\"decision_speedup\": %.3f, "
            "\"full_quanta_on\": %zu, \"full_quanta_off\": %zu, "
            "\"full_quanta_ratio\": %.4f, "
            "\"dds_evaluation_ratio\": %.4f, "
            "\"fast_path_hit_rate\": %.4f, "
            "\"memo_hits\": %zu, \"memo_stores\": %zu, "
            "\"memo_seeded_quanta\": %zu, "
            "\"qos_pct_on\": %.3f, \"qos_pct_off\": %.3f, "
            "\"ginstr_on\": %.1f, \"ginstr_off\": %.1f, "
            "\"ginstr_rel_delta\": %.5f}%s\n",
            pt.nodes, pt.quanta, pt.off.decisionUs, pt.on.decisionUs,
            pt.decisionSpeedup, pt.on.fullQuanta, pt.off.fullQuanta,
            pt.fullRatio, pt.evaluationRatio, on.fastPathHitRate,
            on.memoHits,
            on.memoStores, on.memoSeededQuanta, on.clusterQosPct,
            off.clusterQosPct, on.totalBatchInstructions,
            off.totalBatchInstructions, pt.ginstrRelDelta,
            i + 1 < ab.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"dag\": [\n");
    for (std::size_t i = 0; i < dag.size(); ++i) {
        const DagPoint &pt = dag[i];
        const FleetSummary &aware = pt.aware.summary;
        const FleetSummary &blind = pt.blind.summary;
        std::fprintf(
            f,
            "    {\"nodes\": %zu, \"quanta\": %zu, "
            "\"workflows_completed_aware\": %zu, "
            "\"workflows_completed_blind\": %zu, "
            "\"gmean_makespan_aware\": %.4f, "
            "\"gmean_makespan_blind\": %.4f, "
            "\"makespan_rel_delta\": %.5f, "
            "\"artifact_hit_rate_aware\": %.4f, "
            "\"artifact_hit_rate_blind\": %.4f, "
            "\"transfer_bytes_aware\": %.0f, "
            "\"transfer_bytes_blind\": %.0f, "
            "\"qos_delta_pts\": %.3f, "
            "\"ginstr_aware\": %.1f, \"ginstr_blind\": %.1f, "
            "\"ginstr_rel_delta\": %.5f}%s\n",
            pt.nodes, pt.quanta, aware.workflowsCompleted,
            blind.workflowsCompleted, aware.gmeanMakespanQuanta,
            blind.gmeanMakespanQuanta, pt.makespanRelDelta,
            aware.artifactHitRate, blind.artifactHitRate,
            aware.transferBytes, blind.transferBytes, pt.qosDeltaPts,
            aware.totalBatchInstructions, blind.totalBatchInstructions,
            pt.ginstrRelDelta, i + 1 < dag.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"decision_speedup\": %.3f,\n"
                 "  \"full_quanta_ratio\": %.4f,\n"
                 "  \"fast_path_hit_rate\": %.4f\n"
                 "}\n",
                 gate.decisionSpeedup, gate.fullRatio,
                 gate.on.run.summary.fastPathHitRate);
    std::fclose(f);
    std::printf("wrote BENCH_fleet.json\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    std::printf("==============================================="
                "=========================\n");
    std::printf("bench_fleet — the shipped fleet controller, timed by "
                "its own phase clocks\n");
    std::printf("-----------------------------------------------"
                "-------------------------\n");

    const RealStack stack;

    // The incremental-decisions A/B. Smoke keeps CI fast with the
    // 16-node day; the full run sweeps 16…1024 nodes.
    std::vector<AbPoint> ab;
    ab.push_back(measureIncremental(stack, 16, 40));
    if (!smoke) {
        ab.push_back(measureIncremental(stack, 64, 40));
        ab.push_back(measureIncremental(stack, 256, 24));
        ab.push_back(measureIncremental(stack, 1024, 12));
    }
    const AbPoint &gatePt = ab.front();

    // The DAG data-gravity A/B: locality-aware vs blind placement on
    // the same diurnal fleet with churned workflow arrivals.
    std::vector<DagPoint> dagPts;
    dagPts.push_back(measureDag(stack, 16, 40));
    if (!smoke) {
        dagPts.push_back(measureDag(stack, 64, 40));
        dagPts.push_back(measureDag(stack, 256, 24));
    }
    const DagPoint &dagGate = dagPts.front();

    const std::vector<ControllerRow> rows = controllerRows(ab, dagPts);
    printControllerTable(rows);

    std::printf("\n-----------------------------------------------"
                "-------------------------\n");
    std::printf("incremental decisions — real fleet, diurnal day, "
                "gate+memo vs always-full\n");
    std::printf("%7s %6s %12s %12s %8s %7s %7s %6s %6s %9s %9s\n",
                "nodes", "quanta", "full us/dec", "fast us/dec",
                "speedup", "full%", "evals%", "hit%", "memo",
                "dQoS(pt)", "dGinstr%");
    for (const AbPoint &pt : ab) {
        std::printf("%7zu %6zu %12.1f %12.1f %7.2fx %6.1f%% %6.1f%% "
                    "%5.1f%% %6zu %+9.2f %9.3f\n",
                    pt.nodes, pt.quanta, pt.off.decisionUs,
                    pt.on.decisionUs, pt.decisionSpeedup,
                    100.0 * pt.fullRatio, 100.0 * pt.evaluationRatio,
                    100.0 * pt.on.run.summary.fastPathHitRate,
                    pt.on.run.summary.memoHits, pt.qosDeltaPts,
                    100.0 * pt.ginstrRelDelta);
    }
    std::printf("\ncluster-quantum wall (median us) and per-node "
                "decision phases (mean us/node-quantum) at N=%zu:\n",
                gatePt.nodes);
    std::printf("%9s %10s", "", "quantum");
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p) {
        std::printf(" %11s",
                    telemetry::phaseName(
                        static_cast<telemetry::Phase>(p)));
    }
    std::printf("\n%9s %10.1f", "always", gatePt.off.run.quantumUs);
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
        std::printf(" %11.1f", gatePt.off.phaseUs[p]);
    std::printf("\n%9s %10.1f", "gate+memo", gatePt.on.run.quantumUs);
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
        std::printf(" %11.1f", gatePt.on.phaseUs[p]);
    std::printf("\ninvalidations:");
    for (std::size_t i = 0; i < telemetry::kNumInvalidationReasons;
         ++i) {
        if (gatePt.on.invalidations[i] > 0) {
            std::printf(
                " %s=%zu",
                telemetry::invalidationReasonName(
                    static_cast<telemetry::InvalidationReason>(i)),
                gatePt.on.invalidations[i]);
        }
    }
    const FleetSummary &gateOn = gatePt.on.run.summary;
    std::printf("\ndecision split: full %zu (memo-seeded %zu), "
                "fast-reuse %zu of %zu node-quanta\n",
                gateOn.fullQuanta, gateOn.memoSeededQuanta,
                gateOn.fastPathHits,
                gateOn.fullQuanta + gateOn.fastPathHits);

    std::printf("\n-----------------------------------------------"
                "-------------------------\n");
    std::printf("dag workflows — data gravity: locality-aware vs "
                "locality-blind placement\n");
    std::printf("%7s %6s %5s %10s %10s %8s %6s %9s %9s %9s\n",
                "nodes", "quanta", "wfs", "gmean(aw)", "gmean(bl)",
                "dMk%", "hit%", "xfer(MB)", "dQoS(pt)", "dGinstr%");
    for (const DagPoint &pt : dagPts) {
        const FleetSummary &aware = pt.aware.summary;
        std::printf("%7zu %6zu %5zu %10.2f %10.2f %+7.2f %5.1f%% "
                    "%9.2f %+9.2f %+9.3f\n",
                    pt.nodes, pt.quanta, aware.workflowsCompleted,
                    aware.gmeanMakespanQuanta,
                    pt.blind.summary.gmeanMakespanQuanta,
                    100.0 * pt.makespanRelDelta,
                    100.0 * aware.artifactHitRate,
                    aware.transferBytes / (1024.0 * 1024.0),
                    pt.qosDeltaPts, 100.0 * pt.ginstrRelDelta);
    }

    writeJson(rows, ab, dagPts);

    if (!smoke)
        return 0;
    bool ok = true;
    // 1/2.5: the incremental arm runs the full pipeline on at most 1
    // in 2.5 of the decisions the always-full arm does.
    if (gatePt.fullRatio > 0.4) {
        std::printf("SMOKE FAIL: incremental arm ran %zu full "
                    "node-quanta, %.1f%% of the always-full arm's %zu "
                    "(limit 40%%, N=%zu)\n",
                    gatePt.on.fullQuanta, 100.0 * gatePt.fullRatio,
                    gatePt.off.fullQuanta, gatePt.nodes);
        ok = false;
    }
    if (gateOn.fastPathHitRate < 0.5) {
        std::printf("SMOKE FAIL: fast-path hit rate %.1f%% < 50%% on "
                    "the diurnal day\n",
                    100.0 * gateOn.fastPathHitRate);
        ok = false;
    }
    if (std::fabs(gatePt.qosDeltaPts) > 1.0) {
        std::printf("SMOKE FAIL: QoS delta %+.2f points vs always-full "
                    "(|tol| 1.0)\n",
                    gatePt.qosDeltaPts);
        ok = false;
    }
    if (gatePt.ginstrRelDelta > 0.01) {
        std::printf("SMOKE FAIL: batch Ginstr drifts %.2f%% vs "
                    "always-full (tol 1%%)\n",
                    100.0 * gatePt.ginstrRelDelta);
        ok = false;
    }
    if (dagGate.aware.summary.workflowsCompleted == 0) {
        std::printf("SMOKE FAIL: dag A/B completed no workflows\n");
        ok = false;
    }
    if (dagGate.makespanRelDelta >= 0.0) {
        std::printf("SMOKE FAIL: locality-aware gmean makespan %.2f "
                    "not below blind %.2f (dag win missing)\n",
                    dagGate.aware.summary.gmeanMakespanQuanta,
                    dagGate.blind.summary.gmeanMakespanQuanta);
        ok = false;
    }
    if (std::fabs(dagGate.qosDeltaPts) > 1.0) {
        std::printf("SMOKE FAIL: dag QoS delta %+.2f points vs blind "
                    "(|tol| 1.0)\n",
                    dagGate.qosDeltaPts);
        ok = false;
    }
    // Asymmetric tolerance: the gravity term finishing MORE batch
    // work than blind placement is the win mechanism (fewer
    // slot-quanta burned on transfers); the regression the gate
    // guards against is locality bias starving batch throughput.
    if (dagGate.ginstrRelDelta < -0.01) {
        std::printf("SMOKE FAIL: dag batch Ginstr %.2f%% below blind "
                    "placement (tol -1%%)\n",
                    100.0 * dagGate.ginstrRelDelta);
        ok = false;
    }
    if (ok)
        std::printf("SMOKE PASS\n");
    return ok ? 0 : 1;
}
