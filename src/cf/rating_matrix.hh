/**
 * @file
 * Sparse rating matrix for the recommender-style reconstruction.
 *
 * Rows are applications (the offline-characterized "known" apps plus
 * the currently running jobs), columns are the 108 joint resource
 * configurations, and a rating is the power or performance of an app
 * in a configuration (Section V). Known apps have fully observed
 * rows; live jobs start with the two profiling samples and gain
 * entries from steady-state measurements.
 */

#ifndef CUTTLESYS_CF_RATING_MATRIX_HH
#define CUTTLESYS_CF_RATING_MATRIX_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/matrix.hh"

namespace cuttlesys {

/** Dense-storage sparse matrix: values plus an observation mask. */
class RatingMatrix
{
  public:
    RatingMatrix(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return values_.rows(); }
    std::size_t cols() const { return values_.cols(); }

    /** Record an observation (overwrites a previous one). */
    void set(std::size_t r, std::size_t c, double value);

    /** Remove one observation. */
    void clear(std::size_t r, std::size_t c);

    /** Remove every observation in a row (job departure/arrival). */
    void clearRow(std::size_t r);

    /** Fill a whole row from @p row_values (offline training rows). */
    void setRow(std::size_t r, const std::vector<double> &row_values);

    bool
    observed(std::size_t r, std::size_t c) const
    {
        CS_ASSERT(r < rows() && c < cols(), "rating index out of range");
        return mask_[r * cols() + c] != 0;
    }

    /** @pre observed(r, c). */
    double
    value(std::size_t r, std::size_t c) const
    {
        CS_ASSERT(observed(r, c), "reading unobserved rating (", r, ",",
                  c, ")");
        return values_(r, c);
    }

    /** Observation count in the whole matrix. */
    std::size_t observedCount() const;

    /** Observation count in row @p r. */
    std::size_t observedInRow(std::size_t r) const;

    /** All observed (row, col) coordinates, row-major order. */
    std::vector<std::pair<std::size_t, std::size_t>> observedCells()
        const;

    /**
     * Raw observation mask of row @p r (cols() chars, nonzero means
     * observed). Allocation-free alternative to observedCells() for
     * the per-quantum reconstruction.
     */
    const char *maskRow(std::size_t r) const
    {
        return mask_.data() + r * cols();
    }

    /**
     * Raw values of row @p r; entries are meaningful only where the
     * mask marks them observed.
     */
    const double *valuesRow(std::size_t r) const
    {
        return values_.rowPtr(r);
    }

    /**
     * Per-row normalization scale: the mean absolute observed value,
     * or @p fallback for empty rows. Reconstruction learns values
     * divided by this scale so rows with very different magnitudes
     * (e.g. millisecond vs second tails) share latent structure.
     */
    std::vector<double> rowScales(double fallback = 1.0) const;

  private:
    Matrix values_;
    std::vector<char> mask_;
    std::vector<std::size_t> rowCounts_;
};

} // namespace cuttlesys

#endif // CUTTLESYS_CF_RATING_MATRIX_HH
