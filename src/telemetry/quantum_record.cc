#include "telemetry/quantum_record.hh"

#include <iterator>

namespace cuttlesys {
namespace telemetry {

namespace {

// Printable names, indexed by enumerator value.
const char *const kLcPathNames[] = {
    "none", "cold-start", "violation-escalate", "violation-relocate",
    "cf", "queue-estimate", "no-feasible", "static",
};
const char *const kDecisionPathNames[] = {
    "none", "full", "fast-reuse", "memo-seeded",
};
const char *const kInvalidationReasonNames[] = {
    "none", "cold", "refresh", "churn", "load-drift", "tail-floor",
    "lc-slack", "budget-shift", "revalidate",
};
const char *const kPhaseNames[] = {
    "profile", "ingest", "reconstruct", "search", "enforce", "execute",
};

static_assert(std::size(kLcPathNames) == kNumLcPaths);
static_assert(std::size(kDecisionPathNames) == kNumDecisionPaths);
static_assert(std::size(kInvalidationReasonNames) ==
              kNumInvalidationReasons);
static_assert(std::size(kPhaseNames) == kNumPhases);

/** names[value], or "?" for an out-of-range value. */
template <typename E, std::size_t N>
const char *
nameOf(const char *const (&names)[N], E value)
{
    const auto i = static_cast<std::size_t>(value);
    return i < N ? names[i] : "?";
}

/** The enumerator named @p name; value 0 (None) when unknown. */
template <typename E, std::size_t N>
E
valueOf(const char *const (&names)[N], std::string_view name)
{
    for (std::size_t i = 0; i < N; ++i) {
        if (name == names[i])
            return static_cast<E>(i);
    }
    return E{};
}

} // namespace

const char *
lcPathName(LcPath path)
{
    return nameOf(kLcPathNames, path);
}

LcPath
lcPathFromName(std::string_view name)
{
    return valueOf<LcPath>(kLcPathNames, name);
}

const char *
decisionPathName(DecisionPath path)
{
    return nameOf(kDecisionPathNames, path);
}

DecisionPath
decisionPathFromName(std::string_view name)
{
    return valueOf<DecisionPath>(kDecisionPathNames, name);
}

const char *
invalidationReasonName(InvalidationReason reason)
{
    return nameOf(kInvalidationReasonNames, reason);
}

InvalidationReason
invalidationReasonFromName(std::string_view name)
{
    return valueOf<InvalidationReason>(kInvalidationReasonNames, name);
}

const char *
phaseName(Phase phase)
{
    return nameOf(kPhaseNames, phase);
}

} // namespace telemetry
} // namespace cuttlesys
