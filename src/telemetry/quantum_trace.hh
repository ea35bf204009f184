/**
 * @file
 * Per-quantum trace lifecycle: begin -> fill -> end.
 *
 * The driver owns one QuantumTrace per run and attaches it to the
 * scheduler (Scheduler::attachTrace). Per timeslice the driver calls
 * begin(), both sides fill the current record (the scheduler its
 * decision internals, the driver the offered conditions and the
 * executed slice's outcome), and end() emits the record to the
 * attached sink and folds it into the run summary.
 *
 * Overhead contract: with no trace attached the scheduler performs a
 * single null check per site; with a trace attached but no sink, the
 * cost is a handful of field writes and clock reads per 100 ms
 * quantum (<1% — bench_hotpath measures it). Serialization happens
 * only when a sink is present.
 */

#ifndef CUTTLESYS_TELEMETRY_QUANTUM_TRACE_HH
#define CUTTLESYS_TELEMETRY_QUANTUM_TRACE_HH

#include <array>
#include <chrono>
#include <cstddef>

#include "common/stats.hh"
#include "telemetry/quantum_record.hh"
#include "telemetry/trace_sink.hh"

namespace cuttlesys {
namespace telemetry {

/** Aggregate view of every record end()-ed during one run. */
struct RunSummary
{
    std::size_t records = 0;
    /** How often each LC feasibility path fired (index = LcPath). */
    std::array<std::size_t, kNumLcPaths> lcPathCount{};
    std::size_t relocations = 0;     //!< quanta with lcCoreDelta > 0
    std::size_t yields = 0;          //!< quanta with lcCoreDelta < 0
    std::size_t gatedSlices = 0;     //!< quanta with cap victims
    std::size_t tailObservations = 0; //!< tails ingested into the CF
    std::size_t qosViolations = 0;
    double reclaimedWays = 0.0;      //!< total ways freed by gating
    /** Per-phase time distributions, seconds (index = Phase). */
    std::array<RunningStats, kNumPhases> phaseSec{};

    /** How often each decision path fired (index = DecisionPath). */
    std::array<std::size_t, kNumDecisionPaths> decisionPathCount{};

    std::size_t pathCount(LcPath path) const
    {
        return lcPathCount[static_cast<std::size_t>(path)];
    }

    std::size_t pathCount(DecisionPath path) const
    {
        return decisionPathCount[static_cast<std::size_t>(path)];
    }

    /** Fast-reuse quanta as a fraction of gate-stamped quanta. */
    double fastPathHitRate() const
    {
        const std::size_t full = pathCount(DecisionPath::Full) +
                                 pathCount(DecisionPath::MemoSeeded);
        const std::size_t fast = pathCount(DecisionPath::FastReuse);
        const std::size_t total = full + fast;
        return total ? static_cast<double>(fast) / total : 0.0;
    }
};

/** The per-run trace state machine. */
class QuantumTrace
{
  public:
    explicit QuantumTrace(TraceSink *sink = nullptr) : sink_(sink) {}

    /** Attach / replace the sink (nullptr disables emission only). */
    void setSink(TraceSink *sink) { sink_ = sink; }
    TraceSink *sink() const { return sink_; }

    /** Reset the current record and stamp its identity. */
    void begin(std::size_t slice, double time_sec);

    /** The record being filled for the current quantum. */
    QuantumRecord &record() { return current_; }
    const QuantumRecord &record() const { return current_; }

    /** Add @p seconds to the current record's @p phase timer. */
    void addPhaseTime(Phase phase, double seconds)
    {
        current_.phaseSec[static_cast<std::size_t>(phase)] += seconds;
    }

    /** Emit the current record and fold it into the summary. */
    void end();

    const RunSummary &summary() const { return summary_; }

  private:
    TraceSink *sink_;
    QuantumRecord current_;
    RunSummary summary_;
};

/**
 * RAII phase timer: accumulates the scope's wall time into the
 * current record of @p trace. A null trace skips the clock reads
 * entirely, so untraced schedulers pay one branch per scope.
 */
class PhaseTimer
{
  public:
    PhaseTimer(QuantumTrace *trace, Phase phase)
        : trace_(trace), phase_(phase)
    {
        if (trace_) {
            // Telemetry-only wall clock: phase timings are recorded
            // into the trace but never read back by any decision
            // path, and the structural replay diff skips them.
            // cslint: allow(wall-clock)
            start_ = std::chrono::steady_clock::now();
        }
    }

    ~PhaseTimer()
    {
        if (trace_) {
            // Same telemetry-only read as the constructor.
            // cslint: allow(wall-clock)
            const auto end = std::chrono::steady_clock::now();
            const auto elapsed = end - start_;
            trace_->addPhaseTime(
                phase_,
                std::chrono::duration<double>(elapsed).count());
        }
    }

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    QuantumTrace *trace_;
    Phase phase_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace telemetry
} // namespace cuttlesys

#endif // CUTTLESYS_TELEMETRY_QUANTUM_TRACE_HH
