/**
 * @file
 * Pluggable sinks for the per-quantum trace.
 *
 * The sink contract: record() is called once per decision quantum,
 * after the slice has executed, from the driver's (single) thread.
 * Sinks must tolerate partially filled records — a baseline scheduler
 * leaves the search fields empty — and must not throw on ordinary I/O
 * trouble (a full disk degrades observability, not the run).
 *
 * JsonlSink serializes each record as one JSON object per line, in the
 * schema trace_schema.hh defines; trace_reader.hh parses it back.
 * Lines accumulate in an amortized-growth buffer and reach the
 * underlying stream in large writes — a 1024-node fleet day emits
 * hundreds of thousands of records, and a syscall per record would
 * dominate the controller's overhead — so readers must flush() (or
 * destroy the sink) before consuming the stream. The bytes written
 * are identical to the unbuffered per-record writes. MemorySink
 * keeps the records in a vector for tests and in-process analysis.
 */

#ifndef CUTTLESYS_TELEMETRY_TRACE_SINK_HH
#define CUTTLESYS_TELEMETRY_TRACE_SINK_HH

#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/quantum_record.hh"

namespace cuttlesys {
namespace telemetry {

/** Receives one QuantumRecord per executed timeslice. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Consume one completed quantum's record. */
    virtual void record(const QuantumRecord &rec) = 0;
};

/** Serializes records as JSON Lines to a stream or file. */
class JsonlSink : public TraceSink
{
  public:
    /** Buffered bytes that trigger a drain to the stream. */
    static constexpr std::size_t kDefaultBufferBytes = 1 << 18;

    /**
     * Write to a caller-owned stream. Records are buffered; call
     * flush() before reading the stream mid-run (the destructor
     * drains the tail).
     */
    explicit JsonlSink(std::ostream &out,
                       std::size_t buffer_bytes = kDefaultBufferBytes);

    /** Write to @p path, truncating; throws FatalError on failure. */
    explicit JsonlSink(const std::string &path,
                       std::size_t buffer_bytes = kDefaultBufferBytes);

    /** Drains any buffered records (end-of-run flush). */
    ~JsonlSink() override;

    void record(const QuantumRecord &rec) override;

    /**
     * Drain the line buffer to the stream and flush the stream.
     * Byte-for-byte, the stream then holds exactly what per-record
     * unbuffered writes would have produced.
     */
    void flush();

    /** Records written so far (buffered ones included). */
    std::size_t written() const { return written_; }

    /** Serialize one record to its JSONL form (no newline). */
    static std::string toJson(const QuantumRecord &rec);

    /**
     * Append toJson(rec)'s bytes to @p out. Heap-free while @p out
     * has the capacity, which is how record() writes into its buffer.
     */
    static void appendJson(std::string &out, const QuantumRecord &rec);

  private:
    std::ofstream owned_;
    std::ostream *out_;
    std::string buffer_;
    std::size_t bufferBytes_;
    std::size_t written_ = 0;
};

/** Keeps every record in memory (tests, in-process analysis). */
class MemorySink : public TraceSink
{
  public:
    void record(const QuantumRecord &rec) override
    {
        records_.push_back(rec);
    }

    const std::vector<QuantumRecord> &records() const
    {
        return records_;
    }

    void clear() { records_.clear(); }

  private:
    std::vector<QuantumRecord> records_;
};

} // namespace telemetry
} // namespace cuttlesys

#endif // CUTTLESYS_TELEMETRY_TRACE_SINK_HH
