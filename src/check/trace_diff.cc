#include "check/trace_diff.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "telemetry/trace_schema.hh"

namespace cuttlesys {
namespace check {

namespace {

template <typename T>
std::string
formatValue(const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
        return std::to_string(v);
    } else if constexpr (std::is_enum_v<T>) {
        return telemetry::traceName(v);
    } else if constexpr (std::is_same_v<T, double>) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return buf;
    } else {
        return std::string(v);
    }
}

template <typename T>
std::string
formatValue(const std::vector<T> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += formatValue(v[i]);
    }
    out += ']';
    return out;
}

/** Compares one pair of quanta field by field along the schema. */
class RecordDiffer
{
  public:
    RecordDiffer(TraceDiff &diff, const telemetry::QuantumRecord &a,
                 const telemetry::QuantumRecord &b)
        : diff_(diff), a_(a), b_(b)
    {
    }

    // Exact: both values took the same code path through the same
    // deterministic simulator, so any difference is real.
    template <typename T, telemetry::Replay R>
    void operator()(const telemetry::TraceGroup &group, const char *key,
                    T telemetry::QuantumRecord::*member,
                    telemetry::ReplayPolicy<R>)
    {
        if constexpr (R == telemetry::Replay::Exact)
            compare(group, key, "", a_.*member, b_.*member);
        else if constexpr (R == telemetry::Replay::Class)
            compare(group, key, "_class",
                    std::string_view(lcPathClass(a_.*member)),
                    std::string_view(lcPathClass(b_.*member)));
    }

  private:
    template <typename T>
    void compare(const telemetry::TraceGroup &group, const char *key,
                 const char *suffix, const T &a, const T &b)
    {
        ++diff_.comparedFields;
        if (a == b)
            return;
        FieldMismatch m;
        m.slice = a_.slice;
        if (group.name) {
            m.field = group.name;
            m.field += '.';
        }
        m.field += key;
        m.field += suffix;
        m.lhs = formatValue(a);
        m.rhs = formatValue(b);
        diff_.mismatches.push_back(std::move(m));
    }

    TraceDiff &diff_;
    const telemetry::QuantumRecord &a_;
    const telemetry::QuantumRecord &b_;
};

} // namespace

const char *
lcPathClass(telemetry::LcPath path)
{
    switch (path) {
      case telemetry::LcPath::CfFeasible:
      case telemetry::LcPath::QueueFeasible:
      case telemetry::LcPath::NoFeasible:
        return "scan";
      default:
        return telemetry::lcPathName(path);
    }
}

TraceDiff
diffDecisionTraces(const std::vector<telemetry::QuantumRecord> &a,
                   const std::vector<telemetry::QuantumRecord> &b)
{
    TraceDiff diff;
    diff.recordsA = a.size();
    diff.recordsB = b.size();

    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        telemetry::forEachTraceField(RecordDiffer(diff, a[i], b[i]));
    return diff;
}

std::string
TraceDiff::toString(std::size_t max_lines) const
{
    std::ostringstream oss;
    if (identical()) {
        oss << "traces identical: " << recordsA << " quanta, "
            << comparedFields << " fields compared";
        return oss.str();
    }
    oss << "traces differ: " << recordsA << " vs " << recordsB
        << " quanta, " << mismatches.size() << " mismatched field(s) "
        << "of " << comparedFields << " compared";
    const std::size_t lines = std::min(max_lines, mismatches.size());
    for (std::size_t i = 0; i < lines; ++i) {
        const FieldMismatch &m = mismatches[i];
        oss << "\n  slice " << m.slice << " " << m.field << ": "
            << m.lhs << " != " << m.rhs;
    }
    if (lines < mismatches.size())
        oss << "\n  ... " << mismatches.size() - lines << " more";
    return oss.str();
}

} // namespace check
} // namespace cuttlesys
