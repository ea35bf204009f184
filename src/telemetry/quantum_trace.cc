#include "telemetry/quantum_trace.hh"

namespace cuttlesys {
namespace telemetry {

void
QuantumTrace::begin(std::size_t slice, double time_sec)
{
    current_ = QuantumRecord{};
    current_.slice = slice;
    current_.timeSec = time_sec;
}

void
QuantumTrace::end()
{
    const QuantumRecord &rec = current_;

    ++summary_.records;
    ++summary_.lcPathCount[static_cast<std::size_t>(rec.lcPath)];
    if (rec.lcCoreDelta > 0)
        ++summary_.relocations;
    if (rec.lcCoreDelta < 0)
        ++summary_.yields;
    if (!rec.capVictims.empty())
        ++summary_.gatedSlices;
    if (rec.tailObserved)
        ++summary_.tailObservations;
    if (rec.qosViolated)
        ++summary_.qosViolations;
    summary_.reclaimedWays += rec.reclaimedWays;
    ++summary_.decisionPathCount[static_cast<std::size_t>(
        rec.decisionPath)];
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        if (rec.phaseSec[p] > 0.0)
            summary_.phaseSec[p].add(rec.phaseSec[p]);
    }

    if (sink_)
        sink_->record(rec);
}

} // namespace telemetry
} // namespace cuttlesys
