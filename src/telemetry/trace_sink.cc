#include "telemetry/trace_sink.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <type_traits>

#include "common/logging.hh"
#include "telemetry/trace_schema.hh"

namespace cuttlesys {
namespace telemetry {

namespace {

/** JSON string escaping (quotes, backslash, control characters). */
void
appendEscaped(std::string &out, std::string_view s)
{
    out += '"';
    for (const char ch : s) {
        switch (ch) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(ch));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += '"';
}

template <typename T>
void
appendValue(std::string &out, const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        out += v ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    } else if constexpr (std::is_enum_v<T>) {
        appendEscaped(out, traceName(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
        appendEscaped(out, v);
    } else {
        // Shortest representation that round-trips the exact bits: a
        // saved trace must compare bitwise-equal against a live
        // replay, so truncating (e.g. %.9g) would read back as a
        // spurious mismatch. 15 digits suffice for most values;
        // escalate to 17 (DBL_DECIMAL_DIG) only when the parse-back
        // differs.
        static_assert(std::is_same_v<T, double>);
        char buf[40];
        for (int prec = 15; prec <= 17; ++prec) {
            std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
            if (std::strtod(buf, nullptr) == v)
                break;
        }
        out += buf;
    }
}

template <typename T>
void
appendValue(std::string &out, const std::vector<T> &values)
{
    out += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        appendValue(out, values[i]);
    }
    out += ']';
}

/** Phase timers go out in ms, keyed by phase name. */
void
appendValue(std::string &out, const std::array<double, kNumPhases> &sec)
{
    out += '{';
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        if (p)
            out += ',';
        appendEscaped(out, phaseName(static_cast<Phase>(p)));
        out += ':';
        appendValue(out, sec[p] * 1e3);
    }
    out += '}';
}

} // namespace

JsonlSink::JsonlSink(std::ostream &out, std::size_t buffer_bytes)
    : out_(&out), bufferBytes_(buffer_bytes)
{
    buffer_.reserve(bufferBytes_);
}

JsonlSink::JsonlSink(const std::string &path, std::size_t buffer_bytes)
    : owned_(path, std::ios::trunc), out_(&owned_),
      bufferBytes_(buffer_bytes)
{
    if (!owned_)
        fatal("cannot open trace file '", path, "' for writing");
    buffer_.reserve(bufferBytes_);
}

JsonlSink::~JsonlSink()
{
    flush();
}

void
JsonlSink::flush()
{
    if (!buffer_.empty()) {
        out_->write(buffer_.data(),
                    static_cast<std::streamsize>(buffer_.size()));
        buffer_.clear(); // keeps capacity: steady state reallocates 0x
    }
    out_->flush();
}

std::string
JsonlSink::toJson(const QuantumRecord &rec)
{
    std::string js;
    js.reserve(640);
    appendJson(js, rec);
    return js;
}

void
JsonlSink::appendJson(std::string &js, const QuantumRecord &rec)
{
    js += '{';
    // Each group's object opens and closes as the schema walk
    // crosses it.
    const TraceGroup *open = &kTopGroup;
    bool first = true;
    forEachTraceField([&](const TraceGroup &group, const char *key,
                          auto member, auto) {
        if (group.present && !group.present(rec))
            return;
        if (&group != open) {
            if (open != &kTopGroup)
                js += '}';
            if (&group != &kTopGroup) {
                js += ",\"";
                js += group.name;
                js += "\":{";
                first = true;
            }
            open = &group;
        }
        js += first ? "\"" : ",\"";
        first = false;
        js += key;
        js += "\":";
        appendValue(js, rec.*member);
    });
    if (open != &kTopGroup)
        js += '}';
    js += '}';
}

void
JsonlSink::record(const QuantumRecord &rec)
{
    appendJson(buffer_, rec);
    buffer_ += '\n';
    ++written_;
    // Drain on the line boundary after crossing the threshold — never
    // mid-record — so a crash or concurrent reader sees whole lines.
    if (buffer_.size() >= bufferBytes_)
        flush();
}

} // namespace telemetry
} // namespace cuttlesys
