#include "telemetry/trace_reader.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <type_traits>

#include "common/logging.hh"
#include "telemetry/trace_schema.hh"

namespace cuttlesys {
namespace telemetry {

namespace {

/** Deepest object/array nesting a line may use; the sink writes 3. */
constexpr std::size_t kMaxDepth = 32;

/**
 * Single-pass recursive-descent parser over one line, for the JSON
 * subset the sink emits. The record reader pulls typed values out of
 * it and skip()s the rest, so every byte is still syntax-checked.
 */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    [[noreturn]] void fail(const char *what) const
    {
        fatal("trace parse error at byte ", pos_, ": ", what);
    }

    char peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    /** Whether the next value is a number (anything but {["tfn). */
    bool atNumber() { return !std::strchr("{[\"tfn", peek()); }

    void finish()
    {
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters");
    }

    /** Call member(key) per object member; it consumes the value. */
    template <typename F>
    void object(F &&member)
    {
        list('{', '}', [&] {
            if (peek() != '"')
                fail("expected key string");
            const std::string key = string();
            expect(':');
            member(std::string_view(key));
        });
    }

    /** Call item() per array item; it consumes the item. */
    template <typename F>
    void array(F &&item)
    {
        list('[', ']', item);
    }

    bool boolean()
    {
        if (literal("true"))
            return true;
        if (!literal("false"))
            fail("bad literal");
        return false;
    }

    std::string string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char ch = text_[pos_++];
            if (ch == '"')
                return out;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'n':  out += '\n'; break;
              case 't':  out += '\t'; break;
              case 'r':  out += '\r'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'u': {
                  if (pos_ + 4 > text_.size())
                      fail("bad unicode escape");
                  const std::string hex(text_.substr(pos_, 4));
                  pos_ += 4;
                  const long code = std::strtol(hex.c_str(), nullptr,
                                                16);
                  // The sink only escapes control characters, which
                  // fit a single byte.
                  out += static_cast<char>(code);
                  break;
              }
              default: fail("unknown escape");
            }
        }
    }

    /** The next number's characters, not yet converted. */
    std::string_view numberToken()
    {
        skipSpace();
        const std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != '\0' &&
               std::strchr("0123456789+-.eE", text_[pos_]))
            ++pos_;
        if (pos_ == start)
            fail("expected number");
        return text_.substr(start, pos_ - start);
    }

    /** A number token as a double (strtod rounding). */
    double toDouble(std::string_view token) const
    {
        const std::string tok(token);
        char *end = nullptr;
        const double value = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            fail("malformed number");
        return value;
    }

    /** Consume one value of any kind. */
    void skip()
    {
        switch (peek()) {
          case '{': object([this](std::string_view) { skip(); }); break;
          case '[': array([this] { skip(); }); break;
          case '"': string(); break;
          case 't':
          case 'f': boolean(); break;
          case 'n':
            if (!literal("null"))
                fail("bad literal");
            break;
          default: toDouble(numberToken());
        }
    }

  private:
    void skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    void expect(char ch)
    {
        if (peek() != ch)
            fail("unexpected character");
        ++pos_;
    }

    /** Parse open, item() per comma-separated entry, close. */
    template <typename F>
    void list(char open, char close, F &&item)
    {
        expect(open);
        // Bounded recursion: a hostile line of nested brackets must
        // fail cleanly, not overflow the stack.
        if (++depth_ > kMaxDepth)
            fail("nesting too deep");
        bool more = peek() != close;
        if (!more)
            ++pos_;
        while (more) {
            item();
            const char next = peek();
            ++pos_;
            more = next == ',';
            if (!more && next != close)
                fail(close == '}' ? "expected ',' or '}'"
                                  : "expected ',' or ']'");
        }
        --depth_;
    }

    bool literal(std::string_view lit)
    {
        skipSpace();
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

/** "group.key", for error messages. */
struct FieldName
{
    const TraceGroup &group;
    const char *key;
};

std::ostream &
operator<<(std::ostream &os, const FieldName &name)
{
    if (name.group.name)
        os << name.group.name << '.';
    return os << name.key;
}

/**
 * A JSON number as integer type T: unsigned fields round and clamp
 * negatives to 0, signed fields truncate. A value T cannot hold is a
 * corrupt trace, not something to wrap or saturate. Tokens without a
 * fraction or exponent convert exactly, so every 64-bit value the
 * sink writes reads back unchanged; the rest go through a double.
 */
template <typename T>
T
toInteger(const Parser &p, std::string_view tok, const FieldName &name)
{
    using Limits = std::numeric_limits<T>;
    if (tok.find_first_of(".eE") != std::string_view::npos) {
        const double d = p.toDouble(tok);
        const double bound = std::ldexp(1.0, Limits::digits);
        const double v = std::is_unsigned_v<T>
            ? (d > 0.0 ? d + 0.5 : 0.0)
            : std::trunc(d);
        if (!std::isfinite(d) || v >= bound || v < -bound)
            fatal("trace field '", name, "': ", d,
                  " does not fit its type");
        return static_cast<T>(v);
    }
    const bool negative = tok.starts_with('-');
    std::string_view digits = tok;
    if (negative || tok.starts_with('+'))
        digits.remove_prefix(1);
    std::uint64_t magnitude = 0;
    const char *end = digits.data() + digits.size();
    const auto [ptr, ec] =
        std::from_chars(digits.data(), end, magnitude);
    if (ptr != end || ec == std::errc::invalid_argument)
        p.fail("malformed number");
    if (std::is_unsigned_v<T> && negative)
        return 0;
    // The most negative value's magnitude is one above the maximum.
    const std::uint64_t limit =
        static_cast<std::uint64_t>(Limits::max()) + (negative ? 1 : 0);
    if (ec == std::errc::result_out_of_range || magnitude > limit)
        fatal("trace field '", name, "': ", tok, " does not fit its type");
    // Unsigned negation, then a modular conversion: exact for every
    // value in range, including the most negative one.
    return static_cast<T>(negative ? 0 - magnitude : magnitude);
}

/** Read one value; one of the wrong JSON kind is skipped and leaves
 *  @p out as it was. */
template <typename T>
void
read(Parser &p, T &out, const FieldName &name)
{
    const char next = p.peek();
    if constexpr (std::is_same_v<T, bool>) {
        if (next == 't' || next == 'f') {
            out = p.boolean();
            return;
        }
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (next == '"') {
            out = p.string();
            return;
        }
    } else if constexpr (std::is_enum_v<T>) {
        if (next == '"') {
            fromTraceName(p.string(), out);
            return;
        }
    } else if (p.atNumber()) {
        const std::string_view tok = p.numberToken();
        if constexpr (std::is_integral_v<T>)
            out = toInteger<T>(p, tok, name);
        else
            out = p.toDouble(tok);
        return;
    }
    p.skip();
}

template <typename T>
void
read(Parser &p, std::vector<T> &out, const FieldName &name)
{
    if (p.peek() != '[') {
        p.skip();
        return;
    }
    out.clear();
    p.array([&] {
        // Signed slot maps use -1 for "none", which is also what an
        // item of the wrong kind reads as.
        T value{};
        if constexpr (std::is_integral_v<T> && std::is_signed_v<T>)
            value = -1;
        read(p, value, name);
        out.push_back(std::move(value));
    });
}

/** Phase timers arrive in ms, keyed by phase name; a missing phase
 *  reads as 0. */
void
read(Parser &p, std::array<double, kNumPhases> &sec,
     const FieldName &name)
{
    if (p.peek() != '{') {
        p.skip();
        return;
    }
    sec.fill(0.0);
    p.object([&](std::string_view key) {
        for (std::size_t i = 0; i < kNumPhases; ++i) {
            if (key == phaseName(static_cast<Phase>(i))) {
                double ms = 0.0;
                read(p, ms, name);
                sec[i] = ms * 1e-3;
                return;
            }
        }
        p.skip();
    });
}

/**
 * Read member @p key of @p group's object (nullptr: the top level)
 * into its schema field; a key the schema does not know is skipped.
 */
void
readMember(Parser &p, QuantumRecord &rec, const TraceGroup *group,
           std::string_view key)
{
    const TraceGroup *nested = nullptr;
    bool done = false;
    forEachTraceField([&]<typename T, typename Policy>(
                          const TraceGroup &g, const char *k,
                          T QuantumRecord::*field, Policy) {
        if (!group && g.name && key == g.name)
            nested = &g;
        if (done || (group ? &g != group : g.name != nullptr))
            return;
        if (key == k) {
            read(p, rec.*field, FieldName{g, k});
            done = true;
        } else if constexpr (std::is_same_v<T, double>) {
            // The pre-seconds spelling "<stem>_ms" of "<stem>_s".
            const std::string_view sec(k);
            if (sec.ends_with("_s") &&
                key.starts_with(sec.substr(0, sec.size() - 1)) &&
                key.substr(sec.size() - 1) == "ms") {
                double ms = 0.0;
                read(p, ms, FieldName{g, k});
                rec.*field = ms * 1e-3;
                done = true;
            }
        }
    });
    if (done)
        return;
    if (nested && p.peek() == '{')
        p.object([&](std::string_view k) {
            readMember(p, rec, nested, k);
        });
    else
        p.skip();
}

} // namespace

QuantumRecord
parseRecord(std::string_view line)
{
    Parser parser(line);
    if (parser.peek() != '{')
        fatal("trace line is not a JSON object");
    QuantumRecord rec;
    parser.object([&](std::string_view key) {
        readMember(parser, rec, nullptr, key);
    });
    parser.finish();
    return rec;
}

std::vector<QuantumRecord>
readTrace(std::istream &in)
{
    std::vector<QuantumRecord> records;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        records.push_back(parseRecord(line));
    }
    return records;
}

std::vector<QuantumRecord>
readTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '", path, "'");
    return readTrace(in);
}

} // namespace telemetry
} // namespace cuttlesys
