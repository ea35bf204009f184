/**
 * @file
 * Cluster-level deterministic-replay gate.
 *
 * Runs the same fleet — churn, placement, power split, and all —
 * twice with identical seeds and structurally diffs the interleaved
 * per-node decision traces, exactly as examples/replay_check does
 * for a single node. A mismatch means thread-schedule nondeterminism
 * leaked into the *cluster* pipeline: nodes sharing mutable state
 * across the parallel step, or controller decisions depending on
 * completion order.
 *
 * The gate also bridges across processes so CI can verify the trace
 * is identical at every CS_POOL_THREADS width:
 *   --save PATH     write this process's reference trace as JSONL
 *   --against PATH  additionally diff the reference against a trace
 *                   saved by an earlier run (wall-clock fields are
 *                   excluded by the structural diff); a mismatch
 *                   there means changed behaviour or a stale
 *                   reference, not nondeterminism, and gets its own
 *                   verdict (the exit code is 1 either way)
 *
 * With --tenants the fleet runs the 3-tenant skewed-arrival
 * configuration (fair-share queue ordering, class-strict preemption),
 * so the gate also proves the priority order, the drop-lowest
 * admission, and the preemption path replay bitwise — the tenancy
 * fields (per-slot accounts, eviction victims) are part of the diff.
 *
 * With --no-fastpath the stability gate and the fleet memo cache are
 * both disabled, which reproduces the pre-incremental controller's
 * decisions exactly — CI holds that mode's trace against the
 * committed PR 8 reference (tests/data/fleet_ref_pr8.jsonl) at
 * several pool widths.
 *
 * With --dag the churn stream also submits DAG workflows (frontier
 * release, artifact caches, data-gravity placement), so the gate
 * proves the whole workflow path — completion order, artifact
 * eviction, the parallel residency scan, and placeBest commits —
 * replays bitwise; the dag trace group (per-slot workflow/task ids,
 * cache hit/miss counts, completions) is part of the structural
 * diff. CI holds the --dag --no-fastpath trace against the committed
 * reference (tests/data/fleet_ref_dag.jsonl) at several pool widths.
 *
 * Usage: fleet_replay_check [day_seconds] [runs] [--tenants] [--dag]
 *                           [--no-fastpath] [--nodes N]
 *                           [--save P] [--against P]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "apps/gallery.hh"
#include "check/trace_diff.hh"
#include "cluster/fleet.hh"
#include "common/logging.hh"
#include "core/cuttlesys.hh"
#include "core/training.hh"
#include "lcsim/calibrate.hh"
#include "power/power_model.hh"
#include "telemetry/trace_reader.hh"
#include "telemetry/trace_sink.hh"

using namespace cuttlesys;
using namespace cuttlesys::cluster;

namespace {

/** One full fleet run with a fresh controller, fixed seeds. */
std::vector<telemetry::QuantumRecord>
runOnce(const SystemParams &params, const TrainingTables &tables,
        const AppProfile &lc, const std::vector<AppProfile> &pool,
        double node_max_w, double day_seconds, std::size_t nodes,
        bool tenants, bool dag, bool no_fastpath)
{
    telemetry::MemorySink sink;
    FleetOptions opts;
    opts.numNodes = nodes;
    opts.seed = 42;
    opts.scenario.daySeconds = day_seconds;
    opts.scenario.peakWindowStartSec = 0.375 * day_seconds;
    opts.scenario.peakWindowEndSec = 0.75 * day_seconds;
    // Churn hard enough that the gate exercises departures, arrivals
    // and placement every few quanta, scaled so a 256-node fleet sees
    // per-node action comparable to the original 4-node gate.
    opts.churn.departureProbability = 0.08;
    opts.churn.meanArrivalsPerQuantum =
        0.5 * static_cast<double>(nodes);
    opts.sink = &sink;
    if (no_fastpath) {
        opts.scheduler.fastPath = false;
        opts.memoCache = false;
    }
    if (tenants) {
        // The fleet_sim --tenants configuration: skewed arrivals,
        // equal shares, the heaviest submitter in the lowest class,
        // and churn hot enough to saturate the fleet — so the
        // drop-lowest admission, the priority order, and the
        // preemption path are all part of the trace the gate must
        // prove deterministic.
        opts.churn.departureProbability = 0.03;
        opts.churn.meanArrivalsPerQuantum =
            1.5 * static_cast<double>(nodes);
        opts.churn.maxPendingJobs = 2 * nodes;
        opts.tenants = {
            TenantSpec{.name = "ml-train", .arrivalWeight = 0.65,
                       .shares = 1.0, .qosClass = QosClass::Batch},
            TenantSpec{.name = "analytics", .arrivalWeight = 0.25,
                       .shares = 1.0, .qosClass = QosClass::Normal},
            TenantSpec{.name = "web-api", .arrivalWeight = 0.10,
                       .shares = 1.0,
                       .qosClass = QosClass::Interactive},
        };
    }

    if (dag) {
        // The fleet_sim --dag configuration at gate scale: workflows
        // heavy enough that completions, artifact evictions, and the
        // data-gravity commit path all appear in the trace.
        opts.dag.enable = true;
        opts.dag.maxLiveWorkflows = 2 * nodes;
        opts.churn.meanWorkflowArrivalsPerQuantum =
            0.05 * static_cast<double>(nodes);
    }

    BackfillBinPack backfill;
    FleetController fleet(params, tables, lc, pool, node_max_w,
                          backfill, opts);
    fleet.run();
    return sink.records();
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    double day_seconds = 1.0;
    std::size_t runs = 2;
    std::size_t nodes = 256;
    bool tenants = false;
    bool dag = false;
    bool no_fastpath = false;
    std::string savePath, againstPath;
    std::size_t positional = 0;
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--save") == 0 && a + 1 < argc) {
            savePath = argv[++a];
        } else if (std::strcmp(argv[a], "--against") == 0 &&
                   a + 1 < argc) {
            againstPath = argv[++a];
        } else if (std::strcmp(argv[a], "--nodes") == 0 &&
                   a + 1 < argc) {
            nodes = static_cast<std::size_t>(std::atoi(argv[++a]));
        } else if (std::strcmp(argv[a], "--tenants") == 0) {
            tenants = true;
        } else if (std::strcmp(argv[a], "--dag") == 0) {
            dag = true;
        } else if (std::strcmp(argv[a], "--no-fastpath") == 0) {
            no_fastpath = true;
        } else if (positional == 0) {
            day_seconds = std::atof(argv[a]);
            ++positional;
        } else {
            runs = static_cast<std::size_t>(std::atoi(argv[a]));
            ++positional;
        }
    }
    CS_ASSERT(day_seconds > 0.0 && runs >= 2 && nodes > 0,
              "usage: fleet_replay_check [day_seconds>0] [runs>=2] "
              "[--tenants] [--dag] [--no-fastpath] [--nodes N>0] "
              "[--save PATH] [--against PATH]");

    const SystemParams params;
    const TrainTestSplit split = splitSpecGallery();
    std::vector<AppProfile> services = tailbenchGallery();
    calibrateMaxQps(services, params);
    AppProfile lc;
    for (const AppProfile &s : services) {
        if (s.name == "masstree")
            lc = s;
    }
    const TrainingTables tables =
        buildTrainingTables(split.train, services, params);
    const double node_max_w = systemMaxPower(split.test, params);

    const std::vector<telemetry::QuantumRecord> reference =
        runOnce(params, tables, lc, split.test, node_max_w,
                day_seconds, nodes, tenants, dag, no_fastpath);
    std::printf("run 1/%zu: %zu records (%zu nodes%s%s%s, "
                "reference)\n",
                runs, reference.size(), nodes,
                tenants ? ", 3 tenants" : "",
                dag ? ", dag workflows" : "",
                no_fastpath ? ", fastpath off" : "");
    if (!savePath.empty()) {
        telemetry::JsonlSink out(savePath);
        for (const telemetry::QuantumRecord &rec : reference)
            out.record(rec);
        std::printf("saved reference trace to %s\n",
                    savePath.c_str());
    }

    bool ok = true;
    for (std::size_t r = 2; r <= runs; ++r) {
        const std::vector<telemetry::QuantumRecord> replay =
            runOnce(params, tables, lc, split.test, node_max_w,
                    day_seconds, nodes, tenants, dag, no_fastpath);
        const check::TraceDiff diff =
            check::diffDecisionTraces(reference, replay);
        std::printf("run %zu/%zu: %zu records, %zu fields compared, "
                    "%zu mismatches\n",
                    r, runs, replay.size(), diff.comparedFields,
                    diff.mismatches.size());
        if (diff.identical())
            continue;
        ok = false;
        std::printf("\n%s\n", diff.toString().c_str());
        telemetry::JsonlSink reference_out(
            "fleet_replay_reference.jsonl");
        for (const telemetry::QuantumRecord &rec : reference)
            reference_out.record(rec);
        telemetry::JsonlSink replay_out("fleet_replay_divergent.jsonl");
        for (const telemetry::QuantumRecord &rec : replay)
            replay_out.record(rec);
        std::ofstream report("fleet_replay_diff.txt",
                             std::ios::trunc);
        report << diff.toString(/*max_lines=*/1000) << '\n';
        std::printf("wrote fleet_replay_reference.jsonl, "
                    "fleet_replay_divergent.jsonl, "
                    "fleet_replay_diff.txt\n");
        break;
    }

    bool stale_reference = false;
    if (ok && !againstPath.empty()) {
        const std::vector<telemetry::QuantumRecord> other =
            telemetry::readTraceFile(againstPath);
        const check::TraceDiff diff =
            check::diffDecisionTraces(other, reference);
        std::printf("against %s: %zu records, %zu fields compared, "
                    "%zu mismatches\n",
                    againstPath.c_str(), other.size(),
                    diff.comparedFields, diff.mismatches.size());
        if (!diff.identical()) {
            stale_reference = true;
            std::printf("\n%s\n", diff.toString().c_str());
            telemetry::JsonlSink reference_out(
                "fleet_replay_reference.jsonl");
            for (const telemetry::QuantumRecord &rec : reference)
                reference_out.record(rec);
            std::ofstream report("fleet_replay_diff.txt",
                                 std::ios::trunc);
            report << diff.toString(/*max_lines=*/1000) << '\n';
        }
    }

    if (!ok) {
        std::printf("fleet replay FAILED: cluster-level "
                    "nondeterminism detected\n");
        return 1;
    }
    if (stale_reference) {
        // The in-process runs agreed, so this is not nondeterminism:
        // the decisions differ from an earlier build's.
        std::printf("fleet replay FAILED: the trace differs from "
                    "reference %s, because behaviour changed or the "
                    "reference is stale\n",
                    againstPath.c_str());
        return 1;
    }
    std::printf("fleet replay OK: cluster decision traces are "
                "structurally identical\n");
    return 0;
}
