/**
 * @file
 * The one definition of the JSONL trace schema.
 *
 * forEachTraceField() walks every QuantumRecord field in emission
 * order and hands the visitor its group, JSON key, member pointer and
 * replay policy. The JSONL sink (trace_sink.cc), the reader
 * (trace_reader.cc) and the structural replay diff
 * (check/trace_diff.cc) are walks over this list, so a new field is
 * one line here plus its member in quantum_record.hh.
 *
 * Layout: top-level fields, then one JSON object per group. A group
 * with a presence predicate is emitted only when the predicate holds;
 * optional groups exist so that records which never fill them (legacy
 * schedulers, non-tenancy and non-DAG runs) keep their pre-group
 * bytes, which is what lets frozen replay references stay valid.
 *
 * Keys ending in "_s" hold raw seconds: a ms conversion on write plus
 * the inverse on read can be off by one ulp, which a bitwise replay
 * comparison would flag. Traces from before that switch spelled the
 * same quantity "<stem>_ms"; the reader still accepts that spelling.
 *
 * Value types: double, integral, bool, std::string, the three enums
 * (as their names), std::vector of those, and the per-phase timer
 * array (an object keyed by phaseName(), in ms).
 */

#ifndef CUTTLESYS_TELEMETRY_TRACE_SCHEMA_HH
#define CUTTLESYS_TELEMETRY_TRACE_SCHEMA_HH

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "telemetry/quantum_record.hh"

namespace cuttlesys {
namespace telemetry {

/** A JSON object that fields nest under. */
struct TraceGroup
{
    /** Object key; nullptr for the record's top level. */
    const char *name = nullptr;
    /** Emitted only when this holds; nullptr: always emitted. */
    bool (*present)(const QuantumRecord &) = nullptr;
};

/** How the structural replay diff (check/trace_diff.hh) treats a
 *  field. */
enum class Replay : std::uint8_t
{
    Exact, //!< compared bitwise
    Skip,  //!< wall-clock or search-internal: may differ across runs
    Class, //!< compared through a coarse class (label "<key>_class")
};

/** Compile-time replay policy, so a visitor can overload on it. */
template <Replay R>
using ReplayPolicy = std::integral_constant<Replay, R>;

inline constexpr TraceGroup kTopGroup{};
inline constexpr TraceGroup kMeasuredGroup{"measured"};
inline constexpr TraceGroup kLcGroup{"lc"};
inline constexpr TraceGroup kSearchGroup{"search"};
inline constexpr TraceGroup kEnforceGroup{"enforce"};
inline constexpr TraceGroup kCheckGroup{"check"};
inline constexpr TraceGroup kExecutedGroup{"executed"};
/** Legacy schedulers (and fastPath=false) leave the path at None. */
inline constexpr TraceGroup kDecisionGroup{
    "decision", [](const QuantumRecord &r) {
        return r.decisionPath != DecisionPath::None;
    }};
/** Hand-built records leave the slot maps empty. */
inline constexpr TraceGroup kTenancyGroup{
    "tenancy", [](const QuantumRecord &r) {
        return !r.slotAccounts.empty() || !r.preemptedAccounts.empty();
    }};
/** Non-DAG runs never fill the workflow slot maps. */
inline constexpr TraceGroup kDagGroup{
    "dag", [](const QuantumRecord &r) {
        return !r.slotWorkflows.empty() || !r.completedWorkflows.empty();
    }};

/**
 * Call f(group, key, &QuantumRecord::member, ReplayPolicy<...>) for
 * every field, in emission order.
 */
template <typename F>
void
forEachTraceField(F &&f)
{
    using R = QuantumRecord;
    constexpr ReplayPolicy<Replay::Exact> exact;
    constexpr ReplayPolicy<Replay::Skip> skip;
    constexpr ReplayPolicy<Replay::Class> cls;

    // The node stamp matters in fleet replays: two traces can agree
    // on every decision yet disagree about which node executed it.
    f(kTopGroup, "slice", &R::slice, exact);
    f(kTopGroup, "node", &R::node, exact);
    f(kTopGroup, "t", &R::timeSec, exact);
    f(kTopGroup, "sched", &R::scheduler, exact);
    f(kTopGroup, "load", &R::loadFraction, exact);
    f(kTopGroup, "budget_w", &R::powerBudgetW, exact);
    f(kTopGroup, "profiled_lc_cores", &R::profiledLcCores, exact);

    f(kMeasuredGroup, "tail_s", &R::measuredTailSec, exact);
    f(kMeasuredGroup, "util", &R::measuredUtil, exact);
    f(kMeasuredGroup, "completed", &R::measuredCompleted, exact);
    f(kMeasuredGroup, "violation", &R::measuredViolation, exact);
    f(kMeasuredGroup, "tail_observed", &R::tailObserved, exact);
    f(kMeasuredGroup, "polluted", &R::pollutedSlice, exact);

    // Which scan label qualified first (cf / queue-estimate /
    // no-feasible) and the scan's feasibility bits can flip under
    // float noise with the chosen configuration unchanged.
    f(kLcGroup, "path", &R::lcPath, cls);
    f(kLcGroup, "config", &R::lcConfigName, exact);
    f(kLcGroup, "config_index", &R::lcConfigIndex, exact);
    f(kLcGroup, "cores", &R::lcCores, exact);
    f(kLcGroup, "core_delta", &R::lcCoreDelta, exact);
    f(kLcGroup, "scan_saturated", &R::scanSaturated, skip);
    f(kLcGroup, "cf_feasible", &R::chosenCfFeasible, skip);
    f(kLcGroup, "queue_feasible", &R::chosenQueueFeasible, skip);

    // Search internals: replay checks the decision, not the route.
    f(kSearchGroup, "budget_w", &R::batchPowerBudgetW, skip);
    f(kSearchGroup, "budget_ways", &R::cacheBudgetWays, skip);
    f(kSearchGroup, "seed_ways", &R::seedWays, skip);
    f(kSearchGroup, "seed_repaired", &R::seedRepaired, skip);
    f(kSearchGroup, "evaluations", &R::searchEvaluations, skip);
    f(kSearchGroup, "objective", &R::searchObjective, skip);
    f(kSearchGroup, "power_w", &R::searchPowerW, skip);
    f(kSearchGroup, "ways", &R::searchWays, skip);
    f(kSearchGroup, "repaired_ways", &R::searchRepairedWays, skip);

    f(kEnforceGroup, "victims", &R::capVictims, exact);
    f(kEnforceGroup, "reclaimed_ways", &R::reclaimedWays, exact);
    f(kEnforceGroup, "power_w", &R::enforcedPowerW, skip);

    f(kCheckGroup, "violations", &R::invariantViolations, skip);

    // The executed slice is a pure function of the decision sequence.
    f(kExecutedGroup, "tail_s", &R::executedTailSec, exact);
    f(kExecutedGroup, "power_w", &R::executedPowerW, exact);
    f(kExecutedGroup, "qos_violated", &R::qosViolated, exact);
    f(kExecutedGroup, "gmean_bips", &R::gmeanBips, exact);

    // The stability gate's routing must replay bitwise: a trace that
    // reuses where the reference re-searched diverged even when both
    // landed on the same schedule.
    f(kDecisionGroup, "path", &R::decisionPath, exact);
    f(kDecisionGroup, "invalidation", &R::invalidationReason, exact);
    f(kDecisionGroup, "since_full", &R::quantaSinceFull, exact);

    // Slot holders and evictions follow the fair-share order.
    f(kTenancyGroup, "accounts", &R::slotAccounts, exact);
    f(kTenancyGroup, "bips", &R::slotBips, exact);
    f(kTenancyGroup, "cores", &R::slotCores, exact);
    f(kTenancyGroup, "preempted", &R::preemptedAccounts, exact);

    // Products of the deterministic completion/release/placement
    // order.
    f(kDagGroup, "workflows", &R::slotWorkflows, exact);
    f(kDagGroup, "tasks", &R::slotDagTasks, exact);
    f(kDagGroup, "hits", &R::artifactHits, exact);
    f(kDagGroup, "misses", &R::artifactMisses, exact);
    f(kDagGroup, "transfer_bytes", &R::transferBytes, exact);
    f(kDagGroup, "done", &R::completedWorkflows, exact);
    f(kDagGroup, "done_accounts", &R::completedAccounts, exact);
    f(kDagGroup, "done_makespans", &R::completedMakespans, exact);

    // Wall-clock timers.
    f(kTopGroup, "phase_ms", &R::phaseSec, skip);
}

/** Enum values travel as their printable names; unknown names read
 *  as None. */
inline const char *traceName(LcPath v) { return lcPathName(v); }
inline const char *traceName(DecisionPath v) { return decisionPathName(v); }
inline const char *
traceName(InvalidationReason v)
{
    return invalidationReasonName(v);
}
inline void fromTraceName(std::string_view s, LcPath &v)
{
    v = lcPathFromName(s);
}
inline void fromTraceName(std::string_view s, DecisionPath &v)
{
    v = decisionPathFromName(s);
}
inline void fromTraceName(std::string_view s, InvalidationReason &v)
{
    v = invalidationReasonFromName(s);
}

} // namespace telemetry
} // namespace cuttlesys

#endif // CUTTLESYS_TELEMETRY_TRACE_SCHEMA_HH
