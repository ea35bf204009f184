/**
 * @file
 * The repository benchmark's measuring program.
 *
 * Drives the shipped stack from outside, through its public entry
 * points only, on one of three workloads:
 *
 *  - fleet_churn: fleet_sim's default 32-node day with three fair-share
 *    tenants and locality-aware DAG workflow arrivals;
 *  - fleet_calm:  bench_fleet's calm diurnal 32-node day (light churn,
 *    one tenant, no DAG), where most node-quanta are fast reuse;
 *  - node_day:    one server (masstree + 16 batch jobs) riding a
 *    compressed day stretched to 1000 decisions.
 *
 * Set-up (calibrateMaxQps, buildTrainingTables, construction) is timed
 * several times per run. The workload day is then repeated a fixed
 * number of times derived from --seconds; every repetition starts
 * from a freshly constructed controller with the same seed, so the
 * simulated outcomes (QoS, batch Ginstr, DAG makespan) must repeat
 * bitwise, and the run fails if they do not, if the schedule
 * validator flags a decision, or if set-up is not deterministic.
 *
 * Untraced repetitions give the host timings. Traced repetitions
 * attach a telemetry::MemorySink and split the time by layer from the
 * QuantumRecord phase timers; with --trace 1 they interleave with
 * untraced ones, which also gives the tracing overhead, and the
 * benchmark's own spans (set-up calls, one span per quantum, with
 * step -> decide nested on node_day) are written to --spans at exit.
 *
 * --replay K runs only the first K quanta of one repetition and prints
 * their outcome digest; perfbench/run.py compares a replay at another
 * pool width against the main run's digest of the same quanta.
 *
 * The last line of standard output is one JSON object with every
 * metric (name, value, unit, direction, kind) and the check results.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "apps/gallery.hh"
#include "apps/mix.hh"
#include "cluster/fleet.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/cuttlesys.hh"
#include "core/training.hh"
#include "lcsim/calibrate.hh"
#include "lcsim/scenarios.hh"
#include "power/power_model.hh"
#include "sim/driver.hh"
#include "telemetry/trace_sink.hh"

using namespace cuttlesys;
using namespace cuttlesys::cluster;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Process user + system CPU seconds, all threads. */
double
processCpuSec()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                   ru.ru_stime.tv_usec);
}

/** Peak resident set so far, MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** FNV-1a over the bit patterns of the folded values. */
class Digest
{
  public:
    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xffu;
            hash_ *= 1099511628211ull;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ull;
};

// --- distributions ----------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p pct of @p sorted (ascending). */
double
percentileSorted(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    const double n = static_cast<double>(sorted.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/** The highest percentile with at least ten samples beyond it. */
struct Tail
{
    double pct = 50.0;
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;
};

Tail
tailOf(std::vector<double> v)
{
    static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0,
                                         50.0};
    std::sort(v.begin(), v.end());
    Tail t;
    t.samples = v.size();
    for (double pct : kLadder) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(pct / 100.0 * static_cast<double>(v.size())));
        const std::size_t beyond = v.size() - std::min(rank, v.size());
        // The smoke configuration has too few samples for any rung;
        // it falls through to the median.
        if (beyond >= 10 || pct == 50.0) {
            t.pct = pct;
            t.value = percentileSorted(v, pct);
            t.beyond = beyond;
            return t;
        }
    }
    return t;
}

// --- metrics ----------------------------------------------------------

enum class Kind
{
    EndToEnd,
    Layer,
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    const char *better = "lower";
    Kind kind = Kind::Layer;
};

class MetricSet
{
  public:
    void e2e(const std::string &name, double value, const char *unit,
             const char *better)
    {
        metrics_.push_back({name, value, unit, better, Kind::EndToEnd});
    }

    void layer(const std::string &name, double value, const char *unit,
               const char *better)
    {
        metrics_.push_back({name, value, unit, better, Kind::Layer});
    }

    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

// --- configuration ----------------------------------------------------

enum class Workload
{
    FleetChurn,
    FleetCalm,
    NodeDay,
};

struct Config
{
    Workload workload = Workload::FleetChurn;
    std::string workloadName;
    std::uint64_t seed = 2026;
    double seconds = 10.0;
    bool traced = false;
    bool smoke = false;
    /** > 0: replay mode, run this many quanta and print the digest. */
    std::size_t replayQuanta = 0;
    std::string spanPath;
};

bool
isFleet(const Config &cfg)
{
    return cfg.workload != Workload::NodeDay;
}

/** Fleet size: 8 nodes per thread (3 pool workers + the caller). */
std::size_t
fleetNodes(const Config &cfg)
{
    return cfg.smoke ? 2 : 32;
}

/** Decision quanta in one workload day. */
std::size_t
dayQuanta(const Config &cfg)
{
    if (cfg.workload == Workload::NodeDay)
        return cfg.smoke ? 12 : 1000;
    return cfg.smoke ? 4 : 40;
}

/**
 * Host seconds one repetition is budgeted at the runner's pool widths
 * on 4 CPUs (3 workers on the fleets, 1 on node_day).
 * The repetition count is --seconds divided by this, so it depends on
 * the command line only: two commits measured with the same
 * --seconds see the same sample counts and the same tail percentile.
 * A fleet_churn repetition is an untraced day (about 3 s) plus the
 * traced day that gives decide_ms, so it is budgeted at both.
 */
double
nominalRepSeconds(const Config &cfg)
{
    switch (cfg.workload) {
    case Workload::FleetChurn:
        return 6.5;
    case Workload::FleetCalm:
        return 1.25;
    case Workload::NodeDay:
        return 2.5;
    }
    return 1.0;
}

/**
 * Quanta of the first repetition folded into the outcome digest, and
 * replayed at another pool width: the cold first quantum and a few churned
 * ones on the fleets, a tenth of the day on the single node.
 */
std::size_t
digestQuanta(const Config &cfg)
{
    if (cfg.smoke)
        return dayQuanta(cfg);
    return cfg.workload == Workload::NodeDay ? 100 : 4;
}

/**
 * Seeded days per run. fleet_calm's mixes barely churn, so one day's
 * batch outcome is essentially one draw of 32 nodes' mixes; four days
 * (seeds derived from --seed) average that draw out.
 */
std::size_t
daysPerRun(const Config &cfg)
{
    return cfg.workload == Workload::FleetCalm && !cfg.smoke ? 4 : 1;
}

/** Day @p day's seed; day 0 runs --seed itself. */
std::uint64_t
daySeed(const Config &cfg, std::size_t day)
{
    return cfg.seed ^ (0x9e3779b97f4a7c15ull * day);
}

/** Repetitions of each day. */
std::size_t
measuredReps(const Config &cfg)
{
    if (cfg.smoke)
        return 3;
    // At least three, so each quantum's fastest time has several
    // chances to miss a host disturbance.
    const double r = std::round(
        cfg.seconds /
        (nominalRepSeconds(cfg) * static_cast<double>(daysPerRun(cfg))));
    return std::max<std::size_t>(3, static_cast<std::size_t>(r));
}


// --- spans --------------------------------------------------------------

/** One span of the benchmark's own trace (kept in memory). */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    std::int64_t rep = -1;
    std::int64_t quantum = -1; //!< shared id of one quantum's spans
    std::vector<std::pair<std::string, double>> attrs;
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    double toUs(Clock::time_point t) const
    {
        return 1e6 * secondsBetween(origin_, t);
    }

    /** Append a span; returns its id (0 when disabled). */
    std::uint64_t add(Span span)
    {
        if (!enabled_)
            return 0;
        span.id = spans_.size() + 1;
        spans_.push_back(std::move(span));
        return spans_.back().id;
    }

    Span &at(std::uint64_t id) { return spans_[id - 1]; }

    std::size_t size() const { return spans_.size(); }

    /** Write every span as one JSON line; false on I/O failure. */
    bool write(const std::string &path) const
    {
        std::ofstream out(path, std::ios::trunc);
        if (!out)
            return false;
        char buf[128];
        for (const Span &s : spans_) {
            out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
                << ",\"name\":\"" << s.name << "\"";
            std::snprintf(buf, sizeof buf,
                          ",\"start_us\":%.3f,\"end_us\":%.3f",
                          s.startUs, s.endUs);
            out << buf << ",\"rep\":" << s.rep
                << ",\"quantum\":" << s.quantum;
            for (const auto &[k, v] : s.attrs) {
                std::snprintf(buf, sizeof buf, "%.9g", v);
                out << ",\"" << k << "\":" << buf;
            }
            out << "}\n";
        }
        out.flush();
        return static_cast<bool>(out);
    }

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

// --- set-up -------------------------------------------------------------

/** Everything set-up builds; shared read-only by every repetition. */
struct Stack
{
    SystemParams params;
    TrainTestSplit split;
    AppProfile lc;
    TrainingTables tables;
    double nodeMaxW = 0.0;
};

struct SetupTimes
{
    double calibrate = 0.0;
    double training = 0.0;
    double construct = 0.0;
    double total = 0.0;
};

/** Calibration and training tables, timed per call. */
Stack
buildStack(SetupTimes &times, SpanLog &spans, std::uint64_t parent)
{
    Stack st;
    st.split = splitSpecGallery();
    std::vector<AppProfile> services = tailbenchGallery();

    const Clock::time_point t0 = Clock::now();
    calibrateMaxQps(services, st.params);
    const Clock::time_point t1 = Clock::now();
    for (const AppProfile &s : services) {
        if (s.name == "masstree")
            st.lc = s;
    }
    st.tables = buildTrainingTables(st.split.train, services, st.params);
    st.nodeMaxW = systemMaxPower(st.split.test, st.params);
    const Clock::time_point t2 = Clock::now();

    times.calibrate = secondsBetween(t0, t1);
    times.training = secondsBetween(t1, t2);
    spans.add({0, parent, "lcsim.calibrate", spans.toUs(t0),
               spans.toUs(t1), -1, -1, {}});
    spans.add({0, parent, "core.training", spans.toUs(t1), spans.toUs(t2),
               -1, -1, {}});
    return st;
}

bool
bitwiseEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameMatrix(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t c = 0; c < a.cols(); ++c) {
            if (!bitwiseEqual(a(r, c), b(r, c)))
                return false;
        }
    }
    return true;
}

bool
sameStack(const Stack &a, const Stack &b)
{
    return sameMatrix(a.tables.bips, b.tables.bips) &&
        sameMatrix(a.tables.power, b.tables.power) &&
        sameMatrix(a.tables.latency, b.tables.latency) &&
        a.tables.latencyRowUtil == b.tables.latencyRowUtil &&
        a.lc.maxQps == b.lc.maxQps && a.nodeMaxW == b.nodeMaxW;
}

// --- per-quantum observations -------------------------------------------

/** Layer sums of one quantum (summed over nodes), from the trace. */
struct LayerSums
{
    double phaseMs[telemetry::kNumPhases] = {};
    double evaluations = 0.0;
    double victims = 0.0;
    double fullQuanta = 0.0;
    double fastQuanta = 0.0;
    double invalidations[telemetry::kNumInvalidationReasons] = {};
};

/** What one repetition measured. */
struct RepResult
{
    std::size_t day = 0;
    std::vector<double> wallMs;   //!< per quantum
    std::vector<double> cpuMs;    //!< per quantum
    std::vector<double> decideMs; //!< per (node-)quantum decision
    std::vector<LayerSums> layers; //!< per quantum, traced reps only
    std::vector<double> reconstructChurnMs; //!< full node-quanta
    std::vector<double> reconstructWarmMs;
    std::vector<double> searchFullMs;
    std::vector<double> pending; //!< queue depth after each quantum
    double sgdIterations = 0.0;  //!< summed over full node-quanta
    std::uint64_t prefixDigest = 0; //!< first digestQuanta quanta

    // Simulated outcome (must repeat bitwise).
    double qosPct = 0.0;
    double batchGinstr = 0.0;
    double gmeanMakespan = 0.0;
    std::size_t quanta = 0;
    std::size_t nodeQuanta = 0;
    std::size_t violations = 0;
    std::size_t submissions = 0;
    std::size_t refused = 0;
    // Cluster counters (0 on node_day).
    double placements = 0.0;
    double preemptions = 0.0;
    double stalls = 0.0;
    double loadShifts = 0.0;
    double memoHits = 0.0;
    double artifactHitRate = 0.0;
    double transferMb = 0.0;
};

/** Run @p step, recording its wall and process CPU time in @p r. */
template <class Step>
std::pair<Clock::time_point, Clock::time_point>
timedStep(RepResult &r, Step &&step)
{
    const double cpu0 = processCpuSec();
    const Clock::time_point t0 = Clock::now();
    step();
    const Clock::time_point t1 = Clock::now();
    r.cpuMs.push_back(1e3 * (processCpuSec() - cpu0));
    r.wallMs.push_back(1e3 * secondsBetween(t0, t1));
    return {t0, t1};
}

/** Fold one quantum's per-record layer data. */
void
foldRecord(const telemetry::QuantumRecord &rec, LayerSums &q,
           RepResult &rep)
{
    using telemetry::DecisionPath;
    using telemetry::InvalidationReason;
    using telemetry::Phase;
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
        q.phaseMs[p] += 1e3 * rec.phaseSec[p];
    q.evaluations += static_cast<double>(rec.searchEvaluations);
    q.victims += static_cast<double>(rec.capVictims.size());
    const bool full = rec.decisionPath == DecisionPath::Full ||
        rec.decisionPath == DecisionPath::MemoSeeded;
    if (rec.decisionPath == DecisionPath::FastReuse)
        q.fastQuanta += 1.0;
    if (!full)
        return;
    q.fullQuanta += 1.0;
    q.invalidations[static_cast<std::size_t>(rec.invalidationReason)] +=
        1.0;
    const double recon = 1e3 * rec.phase(Phase::Reconstruct);
    if (rec.invalidationReason == InvalidationReason::Cold ||
        rec.invalidationReason == InvalidationReason::Churn)
        rep.reconstructChurnMs.push_back(recon);
    else
        rep.reconstructWarmMs.push_back(recon);
    rep.searchFullMs.push_back(1e3 * rec.phase(Phase::Search));
}

double
decisionMs(const telemetry::QuantumRecord &rec)
{
    using telemetry::Phase;
    return 1e3 *
        (rec.phase(Phase::Ingest) + rec.phase(Phase::Reconstruct) +
         rec.phase(Phase::Search) + rec.phase(Phase::Enforce));
}

bool
isFullPath(const CuttleSysScheduler &s)
{
    return s.lastDecisionPath() == telemetry::DecisionPath::Full ||
        s.lastDecisionPath() == telemetry::DecisionPath::MemoSeeded;
}

double
sgdIterationsOf(const CuttleSysScheduler &s)
{
    return static_cast<double>(s.bipsEngine().lastIterations() +
                               s.powerEngine().lastIterations());
}

// --- the fleet workloads -----------------------------------------------

/** The three fleet_sim --tenants accounts. */
std::vector<TenantSpec>
churnTenants()
{
    return {
        TenantSpec{.name = "ml-train", .arrivalWeight = 0.65,
                   .shares = 1.0, .qosClass = QosClass::Batch},
        TenantSpec{.name = "analytics", .arrivalWeight = 0.25,
                   .shares = 1.0, .qosClass = QosClass::Normal},
        TenantSpec{.name = "web-api", .arrivalWeight = 0.10,
                   .shares = 1.0, .qosClass = QosClass::Interactive},
    };
}

FleetOptions
fleetOptions(const Config &cfg, const Stack &st, std::uint64_t seed,
             telemetry::TraceSink *sink)
{
    const std::size_t n = fleetNodes(cfg);
    const double nd = static_cast<double>(n);
    FleetOptions o;
    o.numNodes = n;
    o.seed = seed;
    o.scenario.daySeconds =
        static_cast<double>(dayQuanta(cfg)) * st.params.timesliceSec;
    o.scenario.peakWindowStartSec = 0.375 * o.scenario.daySeconds;
    o.scenario.peakWindowEndSec = 0.75 * o.scenario.daySeconds;
    o.sink = sink;
    if (cfg.workload == Workload::FleetChurn) {
        // fleet_sim's default day, its --tenants accounts under
        // fair-share ordering, and its --dag locality-aware arrivals.
        o.rackBudgetFrac = 0.55;
        o.churn.departureProbability = 0.06;
        o.churn.meanArrivalsPerQuantum = 0.5 * nd;
        o.tenants = churnTenants();
        o.fairShareOrdering = true;
        o.dag.enable = true;
        o.dag.maxLiveWorkflows = 2 * n;
        o.dag.localityAware = true;
        o.churn.meanWorkflowArrivalsPerQuantum = 0.05 * nd;
    } else {
        // bench_fleet's calm diurnal fleet, scheduler at its defaults.
        o.scenario.loadTrough = 0.45;
        o.scenario.loadPeak = 0.80;
        o.loadScaleMin = 1.0;
        o.loadScaleMax = 1.0;
        o.churn.departureProbability = 0.002;
        o.churn.meanArrivalsPerQuantum = 0.01 * nd;
        o.phaseDriftPeriodSec = 28.0 * st.params.timesliceSec;
    }
    return o;
}

/** Fold a colocation's last executed quantum into @p d. */
void
digestQuantum(ColocationRun &run, Digest &d)
{
    const SliceMeasurement &m = run.lastMeasurement();
    d.add(m.totalPower);
    d.add(m.lcTailLatency);
    d.add(m.batchInstructions);
    d.add(run.lastGmeanBips());
    d.add(static_cast<std::uint64_t>(run.lastDecision().lcCores));
    d.add(static_cast<std::uint64_t>(run.lastDecision().lcConfig.index()));
}

struct RepContext
{
    const Config &cfg;
    const Stack &st;
    SpanLog &spans;
    std::uint64_t seed = 0; //!< this day's FleetOptions::seed
    std::size_t day = 0;
    std::size_t rep = 0;
    bool traced = false;
    /** Stop after this many quanta (replay mode); 0 = whole day. */
    std::size_t quantumLimit = 0;
};

/**
 * Fold a traced repetition's records into per-quantum layer sums and
 * per-node-quantum decision times, and stamp each quantum's span with
 * its layer sums and counts.
 */
void
foldTrace(const telemetry::MemorySink &sink, RepContext &ctx,
          const std::vector<std::uint64_t> &span_ids, RepResult &r)
{
    r.layers.assign(r.quanta, LayerSums{});
    for (const telemetry::QuantumRecord &rec : sink.records()) {
        if (rec.slice >= r.quanta)
            continue;
        foldRecord(rec, r.layers[rec.slice], r);
        r.decideMs.push_back(decisionMs(rec));
    }
    for (std::size_t q = 0; q < span_ids.size(); ++q) {
        Span &s = ctx.spans.at(span_ids[q]);
        const LayerSums &l = r.layers[q];
        for (std::size_t p = 0; p < telemetry::kNumPhases; ++p) {
            s.attrs.emplace_back(
                std::string(telemetry::phaseName(
                    static_cast<telemetry::Phase>(p))) + "_ms",
                l.phaseMs[p]);
        }
        s.attrs.emplace_back("search_evaluations", l.evaluations);
        s.attrs.emplace_back("cap_victims", l.victims);
        s.attrs.emplace_back("full_node_quanta", l.fullQuanta);
        s.attrs.emplace_back("fast_node_quanta", l.fastQuanta);
        if (q < r.pending.size())
            s.attrs.emplace_back("pending_jobs", r.pending[q]);
    }
}

void
fillFleetOutcome(const FleetSummary &s, RepResult &r)
{
    r.qosPct = s.clusterQosPct;
    r.batchGinstr = s.totalBatchInstructions * 1e-9;
    r.gmeanMakespan = s.gmeanMakespanQuanta;
    r.nodeQuanta = s.numNodes * r.quanta;
    for (const NodeSummary &n : s.nodes)
        r.violations += n.invariantViolations;
    r.submissions = s.arrivals + s.droppedArrivals +
        s.workflowsSubmitted + s.workflowsDropped;
    r.refused = s.droppedArrivals + s.droppedQueued + s.workflowsDropped;
    r.placements = static_cast<double>(s.placements);
    r.preemptions = static_cast<double>(s.preemptions);
    r.stalls = static_cast<double>(s.placementStalls);
    r.loadShifts = static_cast<double>(s.loadShifts);
    r.memoHits = static_cast<double>(s.memoHits);
    r.artifactHitRate = 100.0 * s.artifactHitRate;
    r.transferMb = s.transferBytes / (1024.0 * 1024.0);
}

/** One fleet repetition: construct, then stepQuantum() to the end. */
RepResult
runFleetRep(RepContext &ctx, double *construct_sec)
{
    telemetry::MemorySink sink;
    BackfillBinPack backfill;
    const Clock::time_point c0 = Clock::now();
    FleetController fleet(ctx.st.params, ctx.st.tables, ctx.st.lc,
                          ctx.st.split.test, ctx.st.nodeMaxW, backfill,
                          fleetOptions(ctx.cfg, ctx.st, ctx.seed,
                                       ctx.traced ? &sink : nullptr));
    const Clock::time_point c1 = Clock::now();
    if (construct_sec)
        *construct_sec = secondsBetween(c0, c1);

    RepResult r;
    r.day = ctx.day;
    Digest digest;
    std::vector<std::uint64_t> spanIds;
    while (!fleet.done() &&
           (ctx.quantumLimit == 0 || r.quanta < ctx.quantumLimit)) {
        const auto [t0, t1] = timedStep(r, [&] { fleet.stepQuantum(); });
        if (ctx.traced && ctx.spans.enabled()) {
            spanIds.push_back(ctx.spans.add(
                {0, 0, "cluster.step_quantum", ctx.spans.toUs(t0),
                 ctx.spans.toUs(t1), static_cast<std::int64_t>(ctx.rep),
                 static_cast<std::int64_t>(r.quanta),
                 {{"cpu_ms", r.cpuMs.back()}}}));
        }
        // Untimed scan of the public per-node state.
        for (std::size_t i = 0; i < fleet.numNodes(); ++i) {
            ClusterNode &node = fleet.node(i);
            if (isFullPath(node.scheduler()))
                r.sgdIterations += sgdIterationsOf(node.scheduler());
            if (r.quanta < digestQuanta(ctx.cfg) || ctx.quantumLimit > 0)
                digestQuantum(node.run(), digest);
        }
        r.pending.push_back(static_cast<double>(fleet.pendingJobs()));
        ++r.quanta;
    }
    r.prefixDigest = digest.value();
    fillFleetOutcome(fleet.summary(), r);

    if (ctx.traced)
        foldTrace(sink, ctx, spanIds, r);
    return r;
}

// --- the single-node workload ------------------------------------------

/**
 * Forwarding Scheduler that times the wrapped CuttleSysScheduler's
 * decideInto(). Churn notifications, the attached trace and the
 * validator are passed through, so a decorated run's outcome equals
 * an undecorated one.
 */
class TimedScheduler final : public Scheduler
{
  public:
    explicit TimedScheduler(Scheduler &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }
    bool wantsProfiling() const override
    {
        return inner_.wantsProfiling();
    }
    bool usesReconfigurableCores() const override
    {
        return inner_.usesReconfigurableCores();
    }
    bool enforcesPowerCap() const override
    {
        return inner_.enforcesPowerCap();
    }

    SliceDecision decide(const SliceContext &ctx) override
    {
        SliceDecision out;
        decideInto(ctx, out);
        return out;
    }

    void decideInto(const SliceContext &ctx, SliceDecision &out) override
    {
        forwardAttachments();
        const Clock::time_point t0 = Clock::now();
        inner_.decideInto(ctx, out);
        const Clock::time_point t1 = Clock::now();
        lastStart_ = t0;
        lastEnd_ = t1;
    }

    void onJobChurn(std::size_t slot) override
    {
        forwardAttachments();
        inner_.onJobChurn(slot);
    }

    Clock::time_point lastStart() const { return lastStart_; }
    Clock::time_point lastEnd() const { return lastEnd_; }

  private:
    void forwardAttachments()
    {
        inner_.attachTrace(trace());
        inner_.attachValidator(validator());
    }

    Scheduler &inner_;
    Clock::time_point lastStart_{};
    Clock::time_point lastEnd_{};
};

/** node_day's day: diurnal_datacenter's shape, >= 1000 decisions. */
CompressedDayScenario
nodeDay(const Config &cfg, const Stack &st)
{
    CompressedDayScenario day;
    day.daySeconds =
        static_cast<double>(dayQuanta(cfg)) * st.params.timesliceSec;
    day.peakWindowStartSec = 0.375 * day.daySeconds;
    day.peakWindowEndSec = 0.75 * day.daySeconds;
    return day;
}

/** The single-node colocation; member order fixes the teardown. */
struct NodeStack
{
    NodeStack(const Config &cfg, const Stack &st,
              telemetry::TraceSink *sink, bool decorated,
              const JobEventHook &hook = {})
        : mix(makeMix(cfg, st)), sim(st.params, mix, cfg.seed + 1),
          inner(st.params, st.tables, mix.batch.size(),
                mix.lc.qosSeconds()),
          timed(inner),
          run(sim, decorated ? static_cast<Scheduler &>(timed) : inner,
              driverOptions(cfg, st, sink, hook))
    {
    }

    /**
     * diurnal_datacenter's colocation: its 16-job draw from the test
     * split, with each job's residual stream re-seeded from --seed.
     * A seed changes the jobs' fine-grained behaviour and the
     * simulator's noise but not which applications run, so a run on
     * one server is comparable across seeds.
     */
    static WorkloadMix makeMix(const Config &cfg, const Stack &st)
    {
        WorkloadMix m;
        m.lc = st.lc;
        m.batch = makeBatchMix(st.split.test, 16, kNodeMixDraw);
        for (AppProfile &app : m.batch)
            app.seed = app.seed * 0x100000001b3ULL + cfg.seed;
        return m;
    }

    static constexpr std::uint64_t kNodeMixDraw = 7;

    static DriverOptions driverOptions(const Config &cfg,
                                       const Stack &st,
                                       telemetry::TraceSink *sink,
                                       const JobEventHook &hook)
    {
        const CompressedDayScenario day = nodeDay(cfg, st);
        DriverOptions o;
        o.durationSec = day.daySeconds;
        o.loadPattern = day.loadPattern();
        o.powerPattern = day.powerPattern();
        o.maxPowerW = st.nodeMaxW;
        o.traceSink = sink;
        o.keepSliceRecords = false;
        o.jobEventHook = hook;
        return o;
    }

    WorkloadMix mix;
    MulticoreSim sim;
    CuttleSysScheduler inner;
    TimedScheduler timed;
    ColocationRun run;
};

/** One node_day repetition. @p decorated = time through the wrapper. */
RepResult
runNodeRep(RepContext &ctx, double *construct_sec, bool decorated = true)
{
    telemetry::MemorySink sink;
    const Clock::time_point c0 = Clock::now();
    NodeStack ns(ctx.cfg, ctx.st, ctx.traced ? &sink : nullptr,
                 decorated);
    const Clock::time_point c1 = Clock::now();
    if (construct_sec)
        *construct_sec = secondsBetween(c0, c1);

    RepResult r;
    r.day = ctx.day;
    Digest digest;
    std::vector<std::uint64_t> spanIds;
    while (!ns.run.done() &&
           (ctx.quantumLimit == 0 || r.quanta < ctx.quantumLimit)) {
        const auto [t0, t1] = timedStep(r, [&] { ns.run.step(); });
        if (decorated && !ctx.traced) {
            r.decideMs.push_back(1e3 * secondsBetween(
                                           ns.timed.lastStart(),
                                           ns.timed.lastEnd()));
        }
        if (ctx.traced && ctx.spans.enabled()) {
            const std::uint64_t step = ctx.spans.add(
                {0, 0, "sim.step", ctx.spans.toUs(t0), ctx.spans.toUs(t1),
                 static_cast<std::int64_t>(ctx.rep),
                 static_cast<std::int64_t>(r.quanta),
                 {{"cpu_ms", r.cpuMs.back()}}});
            spanIds.push_back(step);
            if (decorated) {
                ctx.spans.add({0, step, "core.decide",
                               ctx.spans.toUs(ns.timed.lastStart()),
                               ctx.spans.toUs(ns.timed.lastEnd()),
                               static_cast<std::int64_t>(ctx.rep),
                               static_cast<std::int64_t>(r.quanta),
                               {}});
            }
        }
        if (isFullPath(ns.inner))
            r.sgdIterations += sgdIterationsOf(ns.inner);
        if (r.quanta < digestQuanta(ctx.cfg) || ctx.quantumLimit > 0)
            digestQuantum(ns.run, digest);
        ++r.quanta;
    }
    r.prefixDigest = digest.value();

    const RunResult &res = ns.run.result();
    r.nodeQuanta = r.quanta;
    r.qosPct = r.quanta
        ? 100.0 * static_cast<double>(r.quanta - res.qosViolations) /
            static_cast<double>(r.quanta)
        : 0.0;
    r.batchGinstr = res.totalBatchInstructions * 1e-9;
    r.violations = res.invariantViolations;

    if (ctx.traced)
        foldTrace(sink, ctx, spanIds, r);
    return r;
}

RepResult
runRep(RepContext &ctx, double *construct_sec)
{
    return isFleet(ctx.cfg) ? runFleetRep(ctx, construct_sec)
                            : runNodeRep(ctx, construct_sec);
}

// --- checks -------------------------------------------------------------

/**
 * A decorated node run with churn must equal an undecorated one
 * (smoke self-test only): the wrapper forwards churn and the trace.
 */
bool
decoratorIsTransparent(const Config &cfg, const Stack &st)
{
    // Replace slot (q % 16) with a fresh draw from the test pool
    // every third quantum, departures in between.
    const JobEventHook hook = [&st](std::size_t slice,
                                    std::vector<JobEvent> &out) {
        if (slice == 0 || slice % 3 != 0)
            return;
        JobEvent e;
        e.slot = slice % 16;
        e.departure = true;
        e.arrival = st.split.test[slice % st.split.test.size()];
        out.push_back(e);
    };
    std::uint64_t digests[2] = {};
    for (int decorated = 0; decorated < 2; ++decorated) {
        telemetry::MemorySink sink;
        NodeStack ns(cfg, st, &sink, decorated != 0, hook);
        Digest d;
        while (!ns.run.done()) {
            ns.run.step();
            digestQuantum(ns.run, d);
        }
        for (const telemetry::QuantumRecord &rec : sink.records()) {
            d.add(static_cast<std::uint64_t>(rec.decisionPath));
            d.add(static_cast<std::uint64_t>(rec.invalidationReason));
            d.add(static_cast<std::uint64_t>(rec.searchEvaluations));
        }
        d.add(static_cast<std::uint64_t>(ns.run.result().jobArrivals));
        digests[decorated] = d.value();
    }
    return digests[0] == digests[1];
}

// --- aggregation ---------------------------------------------------------

/**
 * Per-quantum fastest time over repetitions. Every repetition replays
 * the same deterministic day, so quantum q does the same work in
 * each; the fastest is the estimate least disturbed by other tenants
 * of the host (on a shared VM, stolen vCPU time stretches whichever
 * quantum it lands in), and the samples are the day's distinct quanta.
 */
std::vector<double>
fastestOverReps(const std::vector<RepResult> &reps,
                std::vector<double> RepResult::*series)
{
    std::vector<double> out;
    if (reps.empty())
        return out;
    std::vector<double> column;
    for (std::size_t q = 0; q < (reps.front().*series).size(); ++q) {
        column.clear();
        for (const RepResult &r : reps)
            column.push_back((r.*series)[q]);
        out.push_back(*std::min_element(column.begin(), column.end()));
    }
    return out;
}

/** The repetitions of day @p day, in run order. */
std::vector<RepResult>
dayReps(const std::vector<RepResult> &reps, std::size_t day)
{
    std::vector<RepResult> out;
    for (const RepResult &r : reps) {
        if (r.day == day)
            out.push_back(r);
    }
    return out;
}

/** The simulated outcome and counters averaged over the days' first
 *  repetitions (each day's own values are exact). */
RepResult
averageDays(const std::vector<RepResult> &reps, std::size_t days)
{
    RepResult a;
    for (std::size_t day = 0; day < days; ++day) {
        const RepResult r = dayReps(reps, day).front();
        a.quanta = r.quanta;
        a.prefixDigest = day == 0 ? r.prefixDigest : a.prefixDigest;
        a.qosPct += r.qosPct;
        a.batchGinstr += r.batchGinstr;
        a.gmeanMakespan += r.gmeanMakespan;
        a.placements += r.placements;
        a.preemptions += r.preemptions;
        a.stalls += r.stalls;
        a.loadShifts += r.loadShifts;
        a.memoHits += r.memoHits;
        a.artifactHitRate += r.artifactHitRate;
        a.transferMb += r.transferMb;
    }
    const double n = static_cast<double>(days);
    for (double *v : {&a.qosPct, &a.batchGinstr, &a.gmeanMakespan,
                      &a.placements, &a.preemptions, &a.stalls,
                      &a.loadShifts, &a.memoHits, &a.artifactHitRate,
                      &a.transferMb})
        *v /= n;
    return a;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

void
append(std::vector<double> &to, const std::vector<double> &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

/**
 * The traced run's layer split: each node layer's time per quantum
 * and its share of all node layers, then the bases it relates to.
 * Node layers are per-node phase wall times summed over nodes, so on
 * a fleet their sum exceeds the quantum's wall time, and it can exceed
 * the process CPU when nodes wait on the shared pool.
 */
void
printLayerTable(const Config &cfg, const double *layer_ms,
                std::size_t quanta, double cpu_ms, double wall_ms)
{
    static const char *kLayer[telemetry::kNumPhases] = {
        "sim.profile", "core.ingest", "cf.reconstruct",
        "search.search", "core.enforce", "sim.execute"};
    double summed = 0.0;
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
        summed += layer_ms[p];
    std::printf("\nlayer table (%s, %zu traced quanta)\n",
                cfg.workloadName.c_str(), quanta);
    std::printf("%-22s %12s %16s\n", "layer", "ms/quantum",
                "% of node layers");
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p) {
        std::printf("%-22s %12.3f %15.1f%%\n", kLayer[p], layer_ms[p],
                    summed > 0 ? 100.0 * layer_ms[p] / summed : 0.0);
    }
    std::printf("bases per quantum: node layers %.3f ms, process CPU "
                "%.3f ms (node layers = %.1f%% of it), wall %.3f ms; "
                "cluster.unattributed = CPU - node layers = %.3f ms\n",
                summed, cpu_ms, cpu_ms > 0 ? 100.0 * summed / cpu_ms : 0.0,
                wall_ms, cpu_ms - summed);
}

int
run(const Config &cfg)
{
    const bool tracing = cfg.traced && cfg.replayQuanta == 0;
    SpanLog spans(tracing);

    // Set-up, several times: calibrate, train, construct.
    const std::size_t setupReps =
        cfg.replayQuanta > 0 || cfg.smoke ? 1 : 3;
    std::vector<SetupTimes> setups;
    Stack stack;
    bool setupDeterministic = true;
    for (std::size_t i = 0; i < setupReps; ++i) {
        SetupTimes t;
        const Clock::time_point s0 = Clock::now();
        const std::uint64_t root =
            spans.add({0, 0, "setup", spans.toUs(s0), 0.0, -1, -1, {}});
        Stack st = buildStack(t, spans, root);
        // Construction ends set-up: the first quantum is ready.
        const Clock::time_point c0 = Clock::now();
        Clock::time_point s1;
        if (isFleet(cfg)) {
            BackfillBinPack backfill;
            FleetController fleet(st.params, st.tables, st.lc,
                                  st.split.test, st.nodeMaxW, backfill,
                                  fleetOptions(cfg, st, cfg.seed,
                                               nullptr));
            s1 = Clock::now();
        } else {
            NodeStack ns(cfg, st, nullptr, true);
            s1 = Clock::now();
        }
        t.construct = secondsBetween(c0, s1);
        t.total = secondsBetween(s0, s1);
        if (spans.enabled()) {
            spans.add({0, root, "cluster.construct", spans.toUs(c0),
                       spans.toUs(s1), -1, -1, {}});
            spans.at(root).endUs = spans.toUs(s1);
        }
        setups.push_back(t);
        if (i == 0)
            stack = std::move(st);
        else if (!sameStack(stack, st))
            setupDeterministic = false;
    }

    if (cfg.replayQuanta > 0) {
        RepContext ctx{cfg,  stack, spans, daySeed(cfg, 0), 0,
                       0,    false, cfg.replayQuanta};
        const RepResult r =
            isFleet(cfg) ? runFleetRep(ctx, nullptr)
                         : runNodeRep(ctx, nullptr, /*decorated=*/false);
        std::printf("{\"replay_digest\": \"%016llx\", \"quanta\": %zu, "
                    "\"pool_width\": %zu}\n",
                    static_cast<unsigned long long>(r.prefixDigest),
                    r.quanta, ThreadPool::global().size());
        return 0;
    }

    // Measured repetitions. Untraced runs add a traced repetition of
    // day 0 after each untraced one on the fleets, whose phase timers
    // give decide_ms there (the fleet builds its schedulers itself,
    // so no wrapper can time them); their wall times are not used.
    const std::size_t days = daysPerRun(cfg);
    const std::size_t reps = measuredReps(cfg);
    std::vector<RepResult> untraced, traced;
    double peakUntracedRss = 0.0;
    std::vector<double> constructSec;
    std::size_t repIndex = 0;
    const auto runOne = [&](std::size_t day, bool withTrace) {
        RepContext ctx{cfg,       stack, spans, daySeed(cfg, day), day,
                       repIndex++, withTrace, 0};
        double c = 0.0;
        RepResult r = runRep(ctx, &c);
        constructSec.push_back(c);
        if (!withTrace)
            peakUntracedRss = peakRssMb();
        (withTrace ? traced : untraced).push_back(std::move(r));
    };
    // One untimed warm-up day first: the first day after set-up ran
    // up to a third slower than the later ones (cold caches and
    // allocator, idle workers). Its outcome is still checked.
    std::vector<RepResult> warmup;
    if (!cfg.smoke) {
        RepContext ctx{cfg,        stack, spans, daySeed(cfg, 0), 0,
                       repIndex++, false, 0};
        warmup.push_back(runRep(ctx, nullptr));
    }
    // Days take turns, and traced repetitions alternate with untraced
    // ones, so each quantum's repetitions spread over the whole run
    // and a noisy stretch of the host does not hit all of them.
    for (std::size_t i = 0; i < reps; ++i) {
        for (std::size_t day = 0; day < days; ++day) {
            runOne(day, false);
            if (cfg.traced || (day == 0 && isFleet(cfg)))
                runOne(day, true);
        }
    }

    // --- output checks --------------------------------------------------
    std::vector<std::string> failures;
    if (!setupDeterministic)
        failures.push_back("set-up repetitions built different tables");
    std::size_t attempted = 0, failed = 0, violations = 0;
    const auto checkRep = [&](const RepResult &r, const char *what) {
        const RepResult ref = dayReps(untraced, r.day).front();
        if (!bitwiseEqual(r.qosPct, ref.qosPct) ||
            !bitwiseEqual(r.batchGinstr, ref.batchGinstr) ||
            !bitwiseEqual(r.gmeanMakespan, ref.gmeanMakespan) ||
            r.prefixDigest != ref.prefixDigest) {
            failures.push_back(std::string(what) + " repetition of day " +
                               std::to_string(r.day) +
                               " differs bitwise");
        }
        violations += r.violations;
        attempted += r.nodeQuanta + r.submissions;
        failed += r.violations + r.refused;
    };
    for (const RepResult &r : untraced)
        checkRep(r, "untraced");
    for (const RepResult &r : traced)
        checkRep(r, "traced");
    for (const RepResult &r : warmup)
        checkRep(r, "warm-up");
    if (violations > 0)
        failures.push_back("schedule validator flagged " +
                           std::to_string(violations) + " decisions");
    if (cfg.smoke && !isFleet(cfg) && !decoratorIsTransparent(cfg, stack))
        failures.push_back("decorated node run differs from undecorated");

    // --- end-to-end metrics (untraced repetitions) ------------------------
    std::vector<double> wallMs, cpuMs, tracedWallMs;
    for (std::size_t day = 0; day < days; ++day) {
        const std::vector<RepResult> u = dayReps(untraced, day);
        append(wallMs, fastestOverReps(u, &RepResult::wallMs));
        append(cpuMs, fastestOverReps(u, &RepResult::cpuMs));
        append(tracedWallMs,
               fastestOverReps(dayReps(traced, day), &RepResult::wallMs));
    }
    const RepResult ref = averageDays(untraced, days);
    const std::vector<double> decideMs = isFleet(cfg)
        ? fastestOverReps(dayReps(traced, 0), &RepResult::decideMs)
        : fastestOverReps(untraced, &RepResult::decideMs);
    const double cpuPerQuantum =
        cpuMs.empty() ? 0.0 : sum(cpuMs) / static_cast<double>(cpuMs.size());
    std::vector<double> setupTotal, calib, train, construct;
    for (const SetupTimes &t : setups) {
        setupTotal.push_back(t.total);
        calib.push_back(t.calibrate);
        train.push_back(t.training);
        construct.push_back(t.construct);
    }
    append(construct, constructSec);

    const Tail wallTail = tailOf(wallMs);
    const Tail decideTail = tailOf(decideMs);

    MetricSet m;
    m.e2e("setup_s", median(setupTotal), "s", "lower");
    m.e2e("quantum_wall_ms_p50", median(wallMs), "ms", "lower");
    m.e2e("quantum_wall_ms_tail", wallTail.value, "ms", "lower");
    m.e2e("cpu_ms_per_quantum", cpuPerQuantum, "ms", "lower");
    m.e2e("decide_ms_p50", median(decideMs), "ms", "lower");
    m.e2e("decide_ms_tail", decideTail.value, "ms", "lower");
    m.e2e("qos_pct", ref.qosPct, "%", "higher");
    m.e2e("batch_ginstr", ref.batchGinstr, "Ginstr", "higher");
    m.e2e("peak_rss_mb", peakUntracedRss, "MB", "lower");

    // --- per-layer metrics (traced repetitions) ---------------------------
    using telemetry::InvalidationReason;
    using telemetry::Phase;
    double phase[telemetry::kNumPhases] = {};
    double evaluations = 0.0, victims = 0.0, full = 0.0, fast = 0.0;
    double inval[telemetry::kNumInvalidationReasons] = {};
    std::vector<double> reconChurn, reconWarm, searchFull;
    double tracedCpuMsSum = 0.0, tracedWallMsSum = 0.0;
    std::size_t tracedQuanta = 0;
    for (const RepResult &r : traced) {
        for (const LayerSums &l : r.layers) {
            for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
                phase[p] += l.phaseMs[p];
            evaluations += l.evaluations;
            victims += l.victims;
            full += l.fullQuanta;
            fast += l.fastQuanta;
            for (std::size_t k = 0; k < telemetry::kNumInvalidationReasons;
                 ++k)
                inval[k] += l.invalidations[k];
        }
        append(reconChurn, r.reconstructChurnMs);
        append(reconWarm, r.reconstructWarmMs);
        append(searchFull, r.searchFullMs);
        tracedCpuMsSum += sum(r.cpuMs);
        tracedWallMsSum += sum(r.wallMs);
        tracedQuanta += r.quanta;
    }
    const double tq = tracedQuanta ? static_cast<double>(tracedQuanta) : 1;
    const auto perQ = [&](double v) { return v / tq; };
    const double tracedCpuPerQ = tracedCpuMsSum / tq;
    double nodePhaseSum = 0.0;
    for (double p : phase)
        nodePhaseSum += p;
    std::sort(searchFull.begin(), searchFull.end());
    double sgdIter = 0.0;
    std::size_t allQuanta = 0;
    std::vector<double> pending;
    for (const auto *set : {&untraced, &traced}) {
        for (const RepResult &r : *set) {
            sgdIter += r.sgdIterations;
            allQuanta += r.quanta;
            append(pending, r.pending);
        }
    }
    const double perRepQuanta = static_cast<double>(ref.quanta);
    const double overheadPct = cfg.traced && !tracedWallMs.empty()
        ? 100.0 * (median(tracedWallMs) / median(wallMs) - 1.0)
        : 0.0;

    m.layer("lcsim.calibrate_s", median(calib), "s", "lower");
    m.layer("core.training_s", median(train), "s", "lower");
    m.layer("cluster.construct_s", median(construct), "s", "lower");
    m.layer("cf.reconstruct_ms", perQ(phase[2]), "ms", "lower");
    m.layer("cf.reconstruct_ms_churn_p50", median(reconChurn), "ms",
            "lower");
    m.layer("cf.reconstruct_ms_warm_p50", median(reconWarm), "ms",
            "lower");
    m.layer("cf.sgd_iterations",
            allQuanta ? sgdIter / static_cast<double>(allQuanta) : 0.0,
            "count/quantum", "lower");
    m.layer("search.search_ms", perQ(phase[3]), "ms", "lower");
    m.layer("search.search_ms_p99", percentileSorted(searchFull, 99.0),
            "ms", "lower");
    m.layer("search.evaluations", perQ(evaluations), "count/quantum",
            "lower");
    m.layer("core.ingest_ms", perQ(phase[1]), "ms", "lower");
    m.layer("core.enforce_ms", perQ(phase[4]), "ms", "lower");
    m.layer("core.enforce_victims", perQ(victims), "count/quantum",
            "lower");
    m.layer("core.full_quanta", perQ(full), "count/quantum", "lower");
    m.layer("core.fast_reuse_share",
            full + fast > 0 ? 100.0 * fast / (full + fast) : 0.0, "%",
            "higher");
    static const std::pair<InvalidationReason, const char *> kReasons[] = {
        {InvalidationReason::Cold, "cold"},
        {InvalidationReason::Refresh, "refresh"},
        {InvalidationReason::Churn, "churn"},
        {InvalidationReason::LoadDrift, "load_drift"},
        {InvalidationReason::TailFloor, "tail_floor"},
        {InvalidationReason::LcSlack, "lc_slack"},
        {InvalidationReason::BudgetShift, "budget_shift"},
        {InvalidationReason::Revalidate, "revalidate"},
    };
    for (const auto &[reason, name] : kReasons) {
        m.layer(std::string("core.invalidations.") + name,
                perQ(inval[static_cast<std::size_t>(reason)]),
                "count/quantum", "lower");
    }
    m.layer("sim.profile_ms", perQ(phase[0]), "ms", "lower");
    m.layer("sim.execute_ms", perQ(phase[5]), "ms", "lower");
    m.layer("cluster.unattributed_ms", tracedCpuPerQ - perQ(nodePhaseSum),
            "ms", "lower");
    m.layer("cluster.placements", ref.placements / perRepQuanta,
            "count/quantum", "higher");
    m.layer("cluster.preemptions", ref.preemptions / perRepQuanta,
            "count/quantum", "lower");
    m.layer("cluster.placement_stall_quanta", ref.stalls / perRepQuanta,
            "count/quantum", "lower");
    m.layer("cluster.pending_p50", median(pending), "jobs", "lower");
    m.layer("cluster.load_shifts", ref.loadShifts / perRepQuanta,
            "count/quantum", "lower");
    m.layer("cluster.memo_hits", ref.memoHits / perRepQuanta,
            "count/quantum", "higher");
    m.layer("dag.artifact_hit_rate", ref.artifactHitRate, "%", "higher");
    m.layer("dag.transfer_mb", ref.transferMb / perRepQuanta,
            "MB/quantum", "lower");
    m.layer("dag.gmean_makespan_quanta", ref.gmeanMakespan, "quanta",
            "lower");
    // The calling thread works in every parallel region too.
    const double width =
        static_cast<double>(ThreadPool::global().size() + 1);
    m.layer("pool.busy_frac",
            tracedWallMsSum > 0 ? tracedCpuMsSum / (tracedWallMsSum * width)
                              : 0.0,
            "fraction", "higher");
    m.layer("telemetry.overhead_pct", overheadPct, "%", "lower");
    const double failedFrac = attempted
        ? static_cast<double>(failed) / static_cast<double>(attempted)
        : 0.0;
    m.layer("failed_ops_frac", failedFrac, "fraction", "lower");

    // --- report -------------------------------------------------------------
    std::printf("workload %s  seed %llu  pool width %zu  nodes %zu  "
                "quanta/day %zu  days %zu  repetitions %zu untraced + %zu "
                "traced\n",
                cfg.workloadName.c_str(),
                static_cast<unsigned long long>(cfg.seed),
                ThreadPool::global().size(),
                isFleet(cfg) ? fleetNodes(cfg) : 1, dayQuanta(cfg), days,
                untraced.size(), traced.size());
    std::printf("quantum_wall tail = p%g over %zu quanta (%zu beyond), "
                "each quantum the fastest of its day's %zu repetitions\n",
                wallTail.pct, wallTail.samples, wallTail.beyond, reps);
    if (isFleet(cfg)) {
        std::printf("decide tail = p%g over %zu node-quanta (%zu beyond), "
                    "phase timers, each node-quantum the fastest of %zu "
                    "traced repetitions of day 0\n",
                    decideTail.pct, decideTail.samples,
                    decideTail.beyond, dayReps(traced, 0).size());
    } else {
        std::printf("decide tail = p%g over %zu quanta (%zu beyond), "
                    "decideInto via the forwarding wrapper, each quantum "
                    "the fastest of %zu repetitions\n",
                    decideTail.pct, decideTail.samples,
                    decideTail.beyond, reps);
    }
    std::printf("ops %zu  failed_ops %zu  failed_ops_frac %.6g  (ops = "
                "node-quantum decisions + job/workflow submissions; "
                "failed = validator-flagged decisions + refused "
                "submissions)\n",
                attempted, failed, failedFrac);
    std::printf("outcome: qos %.6f%%  batch %.6f Ginstr  gmean makespan "
                "%.6f quanta  digest %016llx\n",
                ref.qosPct, ref.batchGinstr, ref.gmeanMakespan,
                static_cast<unsigned long long>(ref.prefixDigest));
    for (const Metric &mt : m.all()) {
        if ((mt.kind == Kind::EndToEnd) == cfg.traced && !cfg.smoke)
            continue;
        std::printf("%-3s %-34s %16.6f %-14s (%s is better)\n",
                    mt.kind == Kind::EndToEnd ? "e2e" : "lyr",
                    mt.name.c_str(), mt.value, mt.unit.c_str(),
                    mt.better);
    }
    if (cfg.traced) {
        double layerMs[telemetry::kNumPhases];
        for (std::size_t p = 0; p < telemetry::kNumPhases; ++p)
            layerMs[p] = perQ(phase[p]);
        printLayerTable(cfg, layerMs, tracedQuanta, tracedCpuPerQ,
                        tracedWallMsSum / tq);
    }
    for (const RepResult &r : untraced) {
        std::printf("untraced repetition day %zu: wall %.3f ms  cpu %.3f "
                    "ms per quantum\n",
                    r.day, sum(r.wallMs) / static_cast<double>(r.quanta),
                    sum(r.cpuMs) / static_cast<double>(r.quanta));
    }
    for (const std::string &f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());

    if (tracing && !cfg.spanPath.empty()) {
        if (!spans.write(cfg.spanPath)) {
            failures.push_back("could not write span file " +
                               cfg.spanPath);
        } else {
            std::printf("wrote %zu spans to %s\n", spans.size(),
                        cfg.spanPath.c_str());
        }
    }

    std::string json = "{\"correct\": ";
    json += failures.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"digest\": \"";
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(ref.prefixDigest));
    json += hex;
    json += "\", \"digest_quanta\": " + std::to_string(digestQuanta(cfg));
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric &mt : m.all()) {
        if (!first)
            json += ", ";
        first = false;
        json += "\"" + mt.name + "\": {\"value\": " + fmt(mt.value) +
            ", \"unit\": \"" + mt.unit + "\", \"better\": \"" +
            mt.better + "\", \"kind\": \"" +
            (mt.kind == Kind::EndToEnd ? "end_to_end" : "per_layer") +
            "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return failures.empty() ? 0 : 1;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: cs_perfbench --workload "
                 "fleet_churn|fleet_calm|node_day [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--replay K] "
                 "[--spans PATH]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string_view a = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--workload") {
            cfg.workloadName = next();
        } else if (a == "--seed") {
            cfg.seed = std::strtoull(next(), nullptr, 10);
        } else if (a == "--seconds") {
            cfg.seconds = std::atof(next());
        } else if (a == "--trace") {
            cfg.traced = std::string_view(next()) == "1";
        } else if (a == "--smoke") {
            cfg.smoke = true;
        } else if (a == "--replay") {
            cfg.replayQuanta =
                static_cast<std::size_t>(std::atol(next()));
        } else if (a == "--spans") {
            cfg.spanPath = next();
        } else {
            usage();
        }
    }
    if (cfg.workloadName == "fleet_churn")
        cfg.workload = Workload::FleetChurn;
    else if (cfg.workloadName == "fleet_calm")
        cfg.workload = Workload::FleetCalm;
    else if (cfg.workloadName == "node_day")
        cfg.workload = Workload::NodeDay;
    else
        usage();
    if (!(cfg.seconds > 0.0))
        usage();
    try {
        return run(cfg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cs_perfbench: %s\n", e.what());
        return 1;
    }
}
