/**
 * @file
 * Row-wise comparisons of cached SGD factors, shared by the tests of
 * row-local churn invalidation.
 */

#ifndef CUTTLESYS_TESTS_CF_FACTOR_CHECKS_HH
#define CUTTLESYS_TESTS_CF_FACTOR_CHECKS_HH

#include <algorithm>

#include "cf/sgd.hh"

namespace cuttlesys {

/** True when row @p r's latent vector differs between @p a and @p b. */
inline bool
qRowChanged(const SgdFactors &a, const SgdFactors &b, std::size_t r)
{
    return !std::equal(a.qRow(r), a.qRow(r) + a.stride, b.qRow(r));
}

/** Same shape, same P, and the same Q on every row but @p skip. */
inline bool
sameFactorsExceptRow(const SgdFactors &a, const SgdFactors &b,
                     std::size_t skip)
{
    if (a.rows != b.rows || a.cols != b.cols || a.stride != b.stride ||
        a.p != b.p)
        return false;
    for (std::size_t r = 0; r < a.rows; ++r) {
        if (r != skip && qRowChanged(a, b, r))
            return false;
    }
    return true;
}

} // namespace cuttlesys

#endif // CUTTLESYS_TESTS_CF_FACTOR_CHECKS_HH
