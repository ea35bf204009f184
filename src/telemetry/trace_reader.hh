/**
 * @file
 * Reader for the JSONL quantum trace: parses the schema JsonlSink
 * emits back into QuantumRecords, so traces round-trip and the
 * trace-replay tool (examples/trace_timeline) and tests can consume
 * a run's trace offline.
 *
 * The parser handles the JSON subset the sink produces (objects,
 * arrays, strings with escapes, numbers, booleans, null) and ignores
 * unknown keys, so the schema can grow without breaking old readers.
 * Fields come from the schema walk in trace_schema.hh; a missing key
 * or a value of the wrong JSON kind leaves the field's default.
 */

#ifndef CUTTLESYS_TELEMETRY_TRACE_READER_HH
#define CUTTLESYS_TELEMETRY_TRACE_READER_HH

#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/quantum_record.hh"

namespace cuttlesys {
namespace telemetry {

/**
 * Parse one JSONL line into a record. Throws FatalError on malformed
 * JSON, nesting deeper than 32 levels, or an integer field whose
 * value is not finite or does not fit the field's type.
 */
QuantumRecord parseRecord(std::string_view line);

/** Parse every non-empty line of @p in. */
std::vector<QuantumRecord> readTrace(std::istream &in);

/** Parse a trace file. Throws FatalError if it cannot be opened. */
std::vector<QuantumRecord> readTraceFile(const std::string &path);

} // namespace telemetry
} // namespace cuttlesys

#endif // CUTTLESYS_TELEMETRY_TRACE_READER_HH
