/**
 * @file
 * Structural diff over two quantum traces for deterministic replay.
 *
 * Wall-clock telemetry (phase timings, measured overheads) legitimately
 * differs between two runs of the same seed, so a byte-compare of the
 * raw traces cannot be the determinism oracle. The replay checker
 * re-runs a colocation with an identical seed and compares only the
 * decision-structural fields of the two traces — chosen
 * configurations, core counts, gating victims, and the (deterministic
 * given identical decisions) executed outcomes; trace_schema.hh marks
 * which fields those are (Replay::Exact / Replay::Class). Any
 * mismatch means thread-schedule nondeterminism leaked into the
 * scheduling pipeline, e.g. a racy parallel reconstruction whose
 * float noise flips a search argmax.
 */

#ifndef CUTTLESYS_CHECK_TRACE_DIFF_HH
#define CUTTLESYS_CHECK_TRACE_DIFF_HH

#include <cstddef>
#include <string>
#include <vector>

#include "telemetry/quantum_record.hh"

namespace cuttlesys {
namespace check {

/** One structural field that differed between the two traces. */
struct FieldMismatch
{
    std::size_t slice = 0;
    std::string field;
    std::string lhs;
    std::string rhs;
};

/** Outcome of a structural trace comparison. */
struct TraceDiff
{
    std::size_t recordsA = 0;
    std::size_t recordsB = 0;
    std::size_t comparedFields = 0; //!< fields compared across quanta
    std::vector<FieldMismatch> mismatches;

    bool identical() const
    {
        return recordsA == recordsB && mismatches.empty();
    }

    /** Human-readable report, at most @p max_lines mismatch lines. */
    std::string toString(std::size_t max_lines = 20) const;
};

/**
 * The scan's cf / queue-estimate / no-feasible labels depend on which
 * prediction qualified first, which float noise can flip even when
 * the chosen configuration is identical; replay compares the coarse
 * class instead. Measurement-driven paths stay distinct.
 */
const char *lcPathClass(telemetry::LcPath path);

/** Structurally compare two traces of the same run configuration. */
TraceDiff
diffDecisionTraces(const std::vector<telemetry::QuantumRecord> &a,
                   const std::vector<telemetry::QuantumRecord> &b);

} // namespace check
} // namespace cuttlesys

#endif // CUTTLESYS_CHECK_TRACE_DIFF_HH
