/**
 * @file
 * Steady-state zero-allocation gates for the shipped quantum.
 *
 * This binary links cs_alloc_probe, which replaces the global
 * operator new/delete with counting forwarders (which is why these
 * tests live in their own executable instead of test_common). Each
 * gate warms a shipped component — the scheduler's decision loop, a
 * fleet node (steady, churning, fast-reuse, under cap enforcement),
 * a whole 256-node FleetController, the DAG overlay, the trace path
 * — and asserts that afterwards it performs literally zero heap
 * allocations per quantum.
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "cluster/dag/artifact_cache.hh"
#include "cluster/dag/workflow.hh"
#include "cluster/fleet.hh"
#include "cluster/memo.hh"
#include "cluster/node.hh"
#include "common/alloc_probe.hh"
#include "common/arena.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "power/power_model.hh"
#include "telemetry/quantum_trace.hh"
#include "telemetry/trace_sink.hh"
#include "../core/core_fixture.hh"

namespace cuttlesys {
namespace {

/** Driver options of the node-level gates: constant load, untraced,
 *  no slice records, at @p power_frac of the node's max power. */
DriverOptions
nodeOptions(double power_frac)
{
    DriverOptions opts;
    opts.durationSec = 10.0;
    opts.loadPattern = LoadPattern::constant(0.45);
    opts.powerPattern = LoadPattern::constant(power_frac);
    opts.maxPowerW = 150.0;
    opts.keepSliceRecords = false;
    return opts;
}

/**
 * The scheduler's decision loop alone, over replayed slice contexts:
 * every quantum brings fresh profiling samples for all jobs and the
 * previous slice's measurement at the configurations the scheduler
 * itself chose, as the driver would, but without the simulator.
 */
struct ReplayedDecisions
{
    const SystemParams params;
    const WorkloadMix mix = makeTestMix();
    CuttleSysScheduler sched;
    Rng rng{83};
    SliceContext ctx;
    SliceMeasurement measured;
    SliceDecision decisions[2];
    std::size_t slice = 0;

    explicit ReplayedDecisions(CuttleSysOptions opts)
        : sched(params, testTrainingTables(), mix.batch.size(),
                mix.lc.qosSeconds(), std::move(opts))
    {
        ctx.powerBudgetW = 100.0;
        ctx.lcQosSec = mix.lc.qosSeconds();
        ctx.profiles.resize(1 + mix.batch.size());
        measured.lcTailLatency = 0.5 * ctx.lcQosSec;
        measured.lcCompleted = 200;
        measured.lcUtilization = 0.5;
        measured.lcPower = 40.0;
        measured.batchBips.resize(mix.batch.size());
        measured.batchPower.resize(mix.batch.size());
    }

    void
    step()
    {
        ctx.sliceIndex = slice;
        ctx.timeSec = 0.1 * static_cast<double>(slice);
        for (ProfilePair &p : ctx.profiles) {
            p.bipsWide = rng.uniform(2.0, 6.0);
            p.bipsNarrow = rng.uniform(0.5, 2.0);
            p.powerWide = rng.uniform(2.0, 3.5);
            p.powerNarrow = rng.uniform(0.5, 1.5);
        }
        for (std::size_t j = 0; j < mix.batch.size(); ++j) {
            measured.batchBips[j] = rng.uniform(0.5, 6.0);
            measured.batchPower[j] = rng.uniform(0.5, 3.5);
        }
        ctx.previous = slice > 0 ? &measured : nullptr;
        ctx.previousDecision =
            slice > 0 ? &decisions[(slice + 1) % 2] : nullptr;
        sched.decideInto(ctx, decisions[slice % 2]);
        ++slice;
    }
};

TEST(ZeroAlloc, ProbeCountsThisBinarysAllocations)
{
    const std::uint64_t new_before = AllocProbe::newCount();
    const std::uint64_t del_before = AllocProbe::deleteCount();
    {
        auto p = std::make_unique<int>(7);
        EXPECT_EQ(AllocProbe::newCount(), new_before + 1);
    }
    EXPECT_EQ(AllocProbe::deleteCount(), del_before + 1);
}

TEST(ZeroAlloc, DecisionQuantumIsHeapFreeAfterWarmUp)
{
    // The shipped decision quantum — ingest, three reconstructions
    // from the quantum arena, the LC scan, the greedy seed, parallel
    // DDS and cap enforcement — over an accreting observation set,
    // every quantum a full one.
    setInformEnabled(false);
    CuttleSysOptions opts;
    opts.fastPath = false;
    ReplayedDecisions loop(opts);
    // Warm-up: buffers size themselves, the thread pool spins up, the
    // arena grows to its high-water (with headroom).
    for (int q = 0; q < 4; ++q)
        loop.step();

    constexpr int kMeasured = 8;
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q)
        loop.step();
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "steady-state decision quantum touched the heap "
        << allocs << " times over " << kMeasured << " quanta";
}

TEST(ZeroAlloc, MemoSeedComingAndGoingIsHeapFree)
{
    // The fleet installs a memo seed on some quanta and not on
    // others, so the search's seed count moves between two and three
    // every few quanta. The seed slots must keep their buffers across
    // that: a warmed scheduler alternating seeded and unseeded full
    // quanta must not touch the heap.
    setInformEnabled(false);
    CuttleSysOptions opts;
    opts.fastPath = false;
    ReplayedDecisions loop(opts);
    const std::size_t jobs = loop.mix.batch.size();
    const std::vector<std::uint16_t> seed(jobs, 3);
    const auto step = [&](int q) {
        if (q % 2 == 0)
            loop.sched.setMemoSeed(seed.data(), jobs);
        loop.step();
    };
    for (int q = 0; q < 4; ++q)
        step(q);

    constexpr int kMeasured = 8;
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q)
        step(q);
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "alternating memo-seeded and unseeded quanta touched the "
        << "heap " << allocs << " times over " << kMeasured
        << " quanta";
}

TEST(ZeroAlloc, ChurnQuantumIsHeapFree)
{
    // Every measured quantum a shipped fleet node takes a departure
    // plus an arrival on one slot: the run queues the events, the
    // simulator swaps the job in, the scheduler drops the slot's CF
    // row (CfEngine::clearJob) and runs a full quantum whose warm
    // reconstruction re-initializes that row by fold-in from arena
    // scratch. None of it may touch the heap, and the churn must not
    // push the engines back onto the cold SVD start.
    setInformEnabled(false);
    const SystemParams params;
    WorkloadMix mix = makeTestMix();
    const std::vector<AppProfile> arrivals = mix.batch;
    CuttleSysOptions sched;
    sched.loadChangeThreshold = 1.0;
    cluster::ClusterNode node(params, testTrainingTables(),
                              std::move(mix), 21, nodeOptions(0.7), 3,
                              sched);
    const std::size_t slots = node.numBatchSlots();
    const auto churnEvents = [&](std::size_t q) {
        std::vector<JobEvent> events(2);
        events[0].slot = q % slots;
        events[0].departure = true;
        events[1].slot = q % slots;
        events[1].arrival = arrivals[(q + 1) % arrivals.size()];
        events[1].account = 1;
        return events;
    };

    constexpr std::size_t kWarm = 12;
    constexpr std::size_t kMeasured = 8;
    for (std::size_t q = 0; q < kWarm; ++q) {
        if (q >= kWarm - 2) {
            for (const JobEvent &e : churnEvents(q))
                node.queueJobEvent(e);
        }
        node.step();
    }
    // Built before the measured region: only the node's work is gated.
    std::vector<std::vector<JobEvent>> measured;
    for (std::size_t q = kWarm; q < kWarm + kMeasured; ++q)
        measured.push_back(churnEvents(q));

    const std::uint64_t fullBefore = node.scheduler().fullQuanta();
    const std::uint64_t before = AllocProbe::newCount();
    for (const std::vector<JobEvent> &events : measured) {
        for (const JobEvent &e : events)
            node.queueJobEvent(e);
        node.step();
    }
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "churning fleet-node quantum touched the heap " << allocs
        << " times over " << kMeasured << " quanta";
    EXPECT_EQ(node.scheduler().fullQuanta() - fullBefore, kMeasured)
        << "every churned quantum must run the full pipeline";
    EXPECT_EQ(node.run().result().jobArrivals, kMeasured + 2);
    EXPECT_EQ(node.scheduler().bipsEngine().lastSvdSweeps(), 0u);
    EXPECT_EQ(node.scheduler().powerEngine().lastSvdSweeps(), 0u);
}

TEST(ZeroAlloc, FleetNodeSteadyStateQuantumIsHeapFree)
{
    // The cluster gate: a full fleet node — MulticoreSim +
    // CuttleSysScheduler + ColocationRun behind the ClusterNode
    // stepper — must run its steady-state quantum without touching
    // the heap when untraced and not keeping slice records. This is
    // what keeps an N-node fleet step allocation-free outside churn.
    setInformEnabled(false);
    const SystemParams params;
    // Steady state means stable load AND a stable colocation: churn
    // (CfEngine::clearJob) has its own gate, ChurnQuantumIsHeapFree.
    // At constant offered load the default load-change threshold can
    // still fire off completion-count noise, so widen it — the gate
    // measures the no-churn quantum.
    CuttleSysOptions sched;
    sched.loadChangeThreshold = 1.0;
    // This gate covers the FULL pipeline (reconstruct + DDS) every
    // measured quantum; the stability gate would skip most of it.
    // The fast-reuse path has its own gate below.
    sched.fastPath = false;
    cluster::ClusterNode node(params, testTrainingTables(),
                              makeTestMix(), 21, nodeOptions(0.7), 3,
                              sched);

    // Warm-up: profiling slices, buffer growth, factor caches, the
    // thread pool, and the validator's scratch all settle.
    for (int q = 0; q < 12; ++q)
        node.step();

    constexpr int kMeasured = 8;
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q)
        node.step();
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "steady-state fleet-node quantum touched the heap "
        << allocs << " times over " << kMeasured << " quanta";
}

TEST(ZeroAlloc, JobEventBurstIsHeapFree)
{
    // The fleet's churn and place phases queue JobEvents into a node
    // between its steps, and the memo phase installs a sibling's
    // schedule as the node's search seed. Neither may touch the heap:
    // the run reserves its event queue and the scheduler its seed at
    // construction. A warmed node takes a departure plus an arrival
    // on every slot, then a memo seed.
    setInformEnabled(false);
    const SystemParams params;
    DriverOptions opts;
    opts.durationSec = 10.0;
    opts.loadPattern = LoadPattern::constant(0.45);
    opts.powerPattern = LoadPattern::constant(0.7);
    opts.maxPowerW = 150.0;
    WorkloadMix mix = makeTestMix();
    const std::vector<AppProfile> arrivals = mix.batch;
    cluster::ClusterNode node(params, testTrainingTables(),
                              std::move(mix), 21, opts, 3,
                              CuttleSysOptions{});
    for (int q = 0; q < 4; ++q)
        node.step();

    // Built before the measured region: only the queueing is gated.
    const std::size_t slots = node.numBatchSlots();
    std::vector<JobEvent> events;
    for (std::size_t s = 0; s < slots; ++s) {
        JobEvent departure;
        departure.slot = s;
        departure.departure = true;
        events.push_back(departure);
        JobEvent arrival;
        arrival.slot = s;
        arrival.arrival = arrivals[(s + 1) % arrivals.size()];
        arrival.account = 1;
        events.push_back(std::move(arrival));
    }
    const std::vector<std::uint16_t> seed(slots, 0);

    const std::uint64_t before = AllocProbe::newCount();
    for (const JobEvent &e : events)
        node.queueJobEvent(e);
    node.scheduler().setMemoSeed(seed.data(), slots);
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "a " << events.size() << "-event burst plus a memo seed "
        << "touched the heap " << allocs << " times";
    node.step();
    EXPECT_EQ(node.run().result().jobArrivals, slots);
}

TEST(ZeroAlloc, CapEnforcementWithVictimsIsHeapFree)
{
    // The fleet-node gate under a budget too tight for the batch
    // tier: every measured full quantum ends in cap enforcement that
    // gates at least one core, and recording the victims must reuse
    // the scheduler's buffer rather than allocate a fresh list.
    setInformEnabled(false);
    const SystemParams params;
    CuttleSysOptions sched;
    sched.loadChangeThreshold = 1.0;
    sched.fastPath = false;
    cluster::ClusterNode node(params, testTrainingTables(),
                              makeTestMix(), 21, nodeOptions(0.25), 3,
                              sched);

    const auto gated = [&node] {
        std::size_t off = 0;
        for (const bool active : node.run().lastDecision().batchActive)
            off += active ? 0 : 1;
        return off;
    };

    for (int q = 0; q < 12; ++q)
        node.step();

    constexpr int kMeasured = 8;
    int quanta_with_victims = 0;
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q) {
        node.step();
        quanta_with_victims += gated() > 0 ? 1 : 0;
    }
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(quanta_with_victims, kMeasured)
        << "the budget must gate a core in every measured quantum";
    EXPECT_EQ(allocs, 0u)
        << "cap enforcement with victims touched the heap " << allocs
        << " times over " << kMeasured << " quanta";
}

TEST(ZeroAlloc, FastReuseQuantumIsHeapFree)
{
    // The incremental-decision gate: with the stability gate enabled,
    // steady-state quanta alternate fast-reuse with the forced
    // K-quantum refresh, and neither leg may touch the heap — the
    // fast path's revalidation, decision copy-out, and cache refresh
    // all reuse capacity sized during warm-up.
    setInformEnabled(false);
    const SystemParams params;
    CuttleSysOptions sched;
    sched.loadChangeThreshold = 1.0;
    cluster::ClusterNode node(params, testTrainingTables(),
                              makeTestMix(), 21, nodeOptions(0.7), 3,
                              sched);

    for (int q = 0; q < 12; ++q)
        node.step();
    ASSERT_GT(node.scheduler().fastPathHits(), 0u)
        << "constant-load warm-up must engage the fast path";

    constexpr int kMeasured = 8;
    const std::uint64_t hitsBefore = node.scheduler().fastPathHits();
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q)
        node.step();
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "steady-state fast-reuse quantum touched the heap "
        << allocs << " times over " << kMeasured << " quanta";
    EXPECT_GT(node.scheduler().fastPathHits(), hitsBefore)
        << "the measured window must contain fast-reuse quanta";
}

TEST(ZeroAlloc, MemoCacheFindAndStoreAreHeapFree)
{
    // The fleet memo table allocates only in reset(); the per-quantum
    // find/store pair is pure array arithmetic.
    cluster::ScheduleMemoCache memo(64, 16);
    std::uint16_t point[16] = {};
    const std::uint64_t before = AllocProbe::newCount();
    for (std::uint64_t k = 1; k <= 256; ++k) {
        point[0] = static_cast<std::uint16_t>(k);
        memo.store(k * 0x9e3779b97f4a7c15ULL, point);
        memo.find(k * 0x9e3779b97f4a7c15ULL);
        memo.find(k);
    }
    EXPECT_EQ(AllocProbe::newCount() - before, 0u);
}

TEST(ZeroAlloc, ControllerQuantumAt256NodesIsHeapFree)
{
    // The fleet gate: whole stepQuantum() calls of the shipped
    // controller at 256 nodes, with churn (10% departures, 64
    // arrivals per quantum), three fair-share tenants and the memo
    // cache on, every node stepping its full CuttleSys stack — the
    // churn scan and merge, placement with preemption, the power
    // split, load shifting, the memo probe and store, the concurrent
    // node steps and the gather. None of it may touch the heap once
    // warm. DAG workflows are off; their merge mutations have their
    // own gate below.
    setInformEnabled(false);
    const SystemParams params;
    const TrainTestSplit split = splitSpecGallery();
    cluster::FleetOptions opts;
    opts.numNodes = 256;
    opts.seed = 31;
    opts.scenario.daySeconds = 2.4;
    opts.scenario.loadTrough = 0.5;
    opts.scenario.loadPeak = 0.5;
    opts.loadScaleMin = 1.0;
    opts.loadScaleMax = 1.0;
    opts.churn.departureProbability = 0.10;
    opts.churn.meanArrivalsPerQuantum = 64.0;
    opts.churn.maxPendingJobs = 2 * opts.numNodes;
    // Names within std::string's SSO buffer, like the SPEC gallery's:
    // copying a tenant or profile name must not allocate.
    opts.tenants = {
        cluster::TenantSpec{.name = "t-a", .arrivalWeight = 0.65,
                            .shares = 1.0,
                            .qosClass = cluster::QosClass::Batch},
        cluster::TenantSpec{.name = "t-b", .arrivalWeight = 0.25,
                            .shares = 1.0,
                            .qosClass = cluster::QosClass::Normal},
        cluster::TenantSpec{.name = "t-c", .arrivalWeight = 0.10,
                            .shares = 1.0,
                            .qosClass = cluster::QosClass::Interactive},
    };
    cluster::BackfillBinPack placement;
    cluster::FleetController fleet(
        params, testTrainingTables(), calibratedTailbench()[0],
        split.test, systemMaxPower(split.test, params), placement,
        opts);

    constexpr std::size_t kWarm = 12;
    constexpr std::size_t kMeasured = 12;
    ASSERT_GE(fleet.numQuanta(), kWarm + kMeasured);
    for (std::size_t q = 0; q < kWarm; ++q)
        fleet.stepQuantum();

    const std::uint64_t before = AllocProbe::newCount();
    for (std::size_t q = 0; q < kMeasured; ++q)
        fleet.stepQuantum();
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "steady-state 256-node cluster quantum touched the heap "
        << allocs << " times over " << kMeasured << " quanta";
    const cluster::FleetSummary s = fleet.summary();
    EXPECT_GT(s.departures, 0u);
    EXPECT_GT(s.placements, 0u);
    EXPECT_GT(s.memoHits, 0u) << "the memo seed path must run";
}

TEST(ZeroAlloc, DagWorkflowQuantumIsHeapFree)
{
    // The DAG overlay's serial-merge mutations — admit (artifact-id
    // pass over reserved per-slot storage), place, cache
    // insert/touch/evict, complete-with-release — must not touch the
    // heap once every template has cycled through every live slot.
    // The cache is sized below the mapred working set so eviction
    // runs inside the measured window, not just insertion.
    using cluster::dag::ArtifactCache;
    using cluster::dag::WorkflowEngine;

    WorkflowEngine engine(cluster::dag::standardWorkflowTemplates(),
                          /*max_live=*/8);
    ArtifactCache cache(96.0 * 1024.0 * 1024.0, /*max_entries=*/6);
    std::vector<WorkflowEngine::ReadyTask> ready;
    ready.reserve(engine.capacityTasks());

    std::uint64_t quantum = 0;
    std::uint64_t wfId = 0;
    auto step = [&] {
        // One admission per quantum, rotating templates; then drain
        // the frontier by placing and completing every released task
        // in release order, exactly the mutations the controller's
        // merge phases perform (compressed: tasks depart the quantum
        // they start, which exercises the full release chain).
        engine.admit(wfId % engine.numTemplates(),
                     0x9e3779b97f4a7c15ULL * (wfId + 1), /*account=*/0,
                     quantum, wfId, ready);
        ++wfId;
        while (!ready.empty()) {
            const WorkflowEngine::ReadyTask t = ready.back();
            ready.pop_back();
            engine.onTaskPlaced(t.workflow, t.task);
            for (const cluster::dag::ArtifactRef &in :
                 engine.taskInputs(t.workflow, t.task)) {
                if (cache.find(in.id) != nullptr)
                    cache.touch(in.id, quantum);
                else
                    cache.insert(in.id, in.bytes, quantum);
            }
            const cluster::dag::ArtifactRef out =
                engine.taskOutput(t.workflow, t.task);
            WorkflowEngine::Completion done;
            engine.onTaskCompleted(t.workflow, t.task, quantum, ready,
                                   done);
            cache.insert(out.id, out.bytes, quantum);
        }
        ++quantum;
    };

    // Warm-up: enough admissions that every template's task/input
    // high-water mark has visited every pool slot.
    for (int q = 0; q < 32; ++q)
        step();

    constexpr int kMeasured = 16;
    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < kMeasured; ++q)
        step();
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "steady-state DAG workflow quantum touched the heap "
        << allocs << " times over " << kMeasured << " quanta";
    EXPECT_GT(cache.evictions(), 0u)
        << "cache never evicted — the gate missed the eviction path";
}

TEST(ZeroAlloc, TracedQuantumIsHeapFree)
{
    // A traced run with no sink: begin, the scheduler's and driver's
    // field writes, phase timers, and end()'s fold into the summary.
    telemetry::QuantumTrace trace;
    auto quantum = [&trace](std::size_t slice) {
        trace.begin(slice, 0.1 * static_cast<double>(slice));
        telemetry::QuantumRecord &rec = trace.record();
        rec.lcPath = slice % 3 ? telemetry::LcPath::CfFeasible
                               : telemetry::LcPath::ViolationRelocate;
        rec.lcCoreDelta = slice % 3 ? 0 : 1;
        rec.decisionPath = slice % 2 ? telemetry::DecisionPath::Full
                                     : telemetry::DecisionPath::FastReuse;
        rec.invalidationReason = slice % 2
            ? telemetry::InvalidationReason::LoadDrift
            : telemetry::InvalidationReason::None;
        rec.searchEvaluations = 100 + slice;
        trace.addPhaseTime(telemetry::Phase::Reconstruct, 0.002);
        trace.addPhaseTime(telemetry::Phase::Search, 0.001);
        trace.end();
    };
    for (std::size_t s = 0; s < 4; ++s)
        quantum(s);

    constexpr std::size_t kMeasured = 100;
    const std::uint64_t before = AllocProbe::newCount();
    for (std::size_t s = 4; s < 4 + kMeasured; ++s)
        quantum(s);
    const std::uint64_t allocs = AllocProbe::newCount() - before;

    EXPECT_EQ(allocs, 0u)
        << "traced quantum touched the heap " << allocs
        << " times over " << kMeasured << " quanta";
    EXPECT_EQ(trace.summary().records, 4 + kMeasured);
}

TEST(ZeroAlloc, JsonlSinkRecordIsHeapFree)
{
    // A traced fleet node writes one tenancy-plus-decision line per
    // quantum; once the sink's line buffer has grown to its working
    // size (the warm-up drains it to the file twice), serializing a
    // record straight into it must not touch the heap.
    const std::string path = ::testing::TempDir() + "cs_zeroalloc_" +
        std::to_string(::getpid()) + ".jsonl";
    auto fill = [](telemetry::QuantumRecord &rec, std::size_t q) {
        const double x = static_cast<double>(q);
        rec.slice = q;
        rec.node = q % 32;
        rec.timeSec = 0.1 * x;
        rec.loadFraction = 0.4 + 1e-3 * x;
        rec.powerBudgetW = 100.0 + 0.37 * x;
        rec.measuredTailSec = 1e-3 + 1e-6 * x;
        rec.lcConfigIndex = q % 108;
        rec.capVictims.assign({q % 16, (q + 5) % 16});
        rec.executedPowerW = 90.0 + 0.11 * x;
        rec.gmeanBips = 2.0 + 1e-4 * x;
        rec.decisionPath = q % 2 ? telemetry::DecisionPath::Full
                                 : telemetry::DecisionPath::FastReuse;
        rec.invalidationReason = q % 2
            ? telemetry::InvalidationReason::LoadDrift
            : telemetry::InvalidationReason::None;
        rec.quantaSinceFull = q % 5;
        for (std::size_t j = 0; j < rec.slotAccounts.size(); ++j) {
            const double y = static_cast<double>(j + q);
            rec.slotAccounts[j] = static_cast<std::int32_t>((j + q) % 3);
            rec.slotBips[j] = 1.0 + 1e-3 * y;
            rec.slotCores[j] = 0.25 * static_cast<double>(j % 4);
        }
        rec.preemptedAccounts.assign({static_cast<std::int32_t>(q % 3)});
    };
    {
        telemetry::JsonlSink sink(path);
        telemetry::QuantumRecord rec;
        rec.scheduler = "CuttleSys";
        rec.lcConfigName = "{6,6,6}/4w";
        rec.capVictims.reserve(2);
        rec.slotAccounts.assign(16, 0);
        rec.slotBips.assign(16, 0.0);
        rec.slotCores.assign(16, 0.0);
        rec.preemptedAccounts.reserve(1);
        constexpr std::size_t kWarm = 600;
        for (std::size_t q = 0; q < kWarm; ++q) {
            fill(rec, q);
            sink.record(rec);
        }
        ASSERT_GT(telemetry::JsonlSink::toJson(rec).size(), 900u);

        constexpr std::size_t kMeasured = 100;
        const std::uint64_t before = AllocProbe::newCount();
        for (std::size_t q = kWarm; q < kWarm + kMeasured; ++q) {
            fill(rec, q);
            sink.record(rec);
        }
        const std::uint64_t allocs = AllocProbe::newCount() - before;
        EXPECT_EQ(allocs, 0u)
            << "JsonlSink::record touched the heap " << allocs
            << " times over " << kMeasured << " records";
        EXPECT_EQ(sink.written(), kWarm + kMeasured);
    }
    std::remove(path.c_str());
}

TEST(ZeroAlloc, ParallelForSteadyStateIsHeapFree)
{
    // The pool recycles batch records through a refcount free list;
    // after the first dispatch a fork-join region must not allocate.
    auto &pool = ThreadPool::global();
    std::atomic<std::size_t> sink{0};
    for (int warm = 0; warm < 4; ++warm)
        pool.parallelFor(8, [&](std::size_t i) { sink += i; });

    const std::uint64_t before = AllocProbe::newCount();
    for (int q = 0; q < 32; ++q)
        pool.parallelFor(8, [&](std::size_t i) { sink += i; });
    EXPECT_EQ(AllocProbe::newCount() - before, 0u);
}

TEST(ZeroAlloc, ArenaSteadyStateCycleIsHeapFree)
{
    ScratchArena arena;
    auto cycle = [&arena] {
        arena.alloc<double>(4096);
        arena.alloc<std::uint16_t>(333);
        arena.reset();
    };
    cycle(); // warm-up growth
    const std::uint64_t before = AllocProbe::newCount();
    for (int i = 0; i < 64; ++i)
        cycle();
    EXPECT_EQ(AllocProbe::newCount() - before, 0u);
}

} // namespace
} // namespace cuttlesys
