#include "cf/rating_matrix.hh"

#include <cmath>

#include "common/logging.hh"

namespace cuttlesys {

RatingMatrix::RatingMatrix(std::size_t rows, std::size_t cols)
    : values_(rows, cols), mask_(rows * cols, 0), rowCounts_(rows, 0)
{
    CS_ASSERT(rows > 0 && cols > 0, "empty rating matrix");
}

void
RatingMatrix::set(std::size_t r, std::size_t c, double value)
{
    CS_ASSERT(std::isfinite(value), "non-finite rating at (", r, ",",
              c, ")");
    const std::size_t idx = r * cols() + c;
    values_(r, c) = value;
    if (!mask_[idx]) {
        mask_[idx] = 1;
        ++rowCounts_[r];
    }
}

void
RatingMatrix::clear(std::size_t r, std::size_t c)
{
    const std::size_t idx = r * cols() + c;
    if (mask_[idx]) {
        mask_[idx] = 0;
        values_(r, c) = 0.0;
        --rowCounts_[r];
    }
}

void
RatingMatrix::clearRow(std::size_t r)
{
    for (std::size_t c = 0; c < cols(); ++c)
        clear(r, c);
}

void
RatingMatrix::setRow(std::size_t r, const std::vector<double> &row_values)
{
    CS_ASSERT(row_values.size() == cols(),
              "row length ", row_values.size(), " != ", cols());
    for (std::size_t c = 0; c < cols(); ++c)
        set(r, c, row_values[c]);
}

std::size_t
RatingMatrix::observedCount() const
{
    std::size_t total = 0;
    for (auto count : rowCounts_)
        total += count;
    return total;
}

std::size_t
RatingMatrix::observedInRow(std::size_t r) const
{
    CS_ASSERT(r < rows(), "row out of range");
    return rowCounts_[r];
}

std::vector<std::pair<std::size_t, std::size_t>>
RatingMatrix::observedCells() const
{
    std::vector<std::pair<std::size_t, std::size_t>> cells;
    cells.reserve(observedCount());
    for (std::size_t r = 0; r < rows(); ++r) {
        for (std::size_t c = 0; c < cols(); ++c) {
            if (mask_[r * cols() + c])
                cells.emplace_back(r, c);
        }
    }
    return cells;
}

std::vector<double>
RatingMatrix::rowScales(double fallback) const
{
    std::vector<double> scales(rows(), fallback);
    for (std::size_t r = 0; r < rows(); ++r) {
        if (rowCounts_[r] == 0)
            continue;
        double sum = 0.0;
        for (std::size_t c = 0; c < cols(); ++c) {
            if (mask_[r * cols() + c])
                sum += std::abs(values_(r, c));
        }
        const double scale =
            sum / static_cast<double>(rowCounts_[r]);
        scales[r] = scale > 1e-12 ? scale : fallback;
    }
    return scales;
}

} // namespace cuttlesys
