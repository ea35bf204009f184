/**
 * @file
 * Dense row-major matrix and small-scale linear algebra.
 *
 * The CuttleSys runtime only needs linear algebra at the scale of its
 * rating matrices (tens of rows by ~108 columns): PQ factors for the
 * SGD reconstruction, an SVD warm start, and the linear solves inside
 * the RBF surrogate used by the Flicker baseline. A small, dependency-
 * free implementation keeps the repository self-contained.
 */

#ifndef CUTTLESYS_COMMON_MATRIX_HH
#define CUTTLESYS_COMMON_MATRIX_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace cuttlesys {

class Rng;

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /** Build from nested initializer-style data (rows of equal size). */
    static Matrix fromRows(const std::vector<std::vector<double>> &rows);

    /** Identity matrix of size n. */
    static Matrix identity(std::size_t n);

    /** Matrix with entries drawn uniformly from [lo, hi). */
    static Matrix random(std::size_t rows, std::size_t cols, Rng &rng,
                         double lo = 0.0, double hi = 1.0);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    // The checked accessors are defined here so every translation
    // unit inlines them: an element access is the bounds check plus
    // one load, not a call.
    double &
    operator()(std::size_t r, std::size_t c)
    {
        CS_ASSERT(r < rows_ && c < cols_,
                  "matrix index (", r, ",", c, ") out of ",
                  rows_, "x", cols_);
        return data_[r * cols_ + c];
    }

    double
    operator()(std::size_t r, std::size_t c) const
    {
        CS_ASSERT(r < rows_ && c < cols_,
                  "matrix index (", r, ",", c, ") out of ",
                  rows_, "x", cols_);
        return data_[r * cols_ + c];
    }

    /** Pointer to the start of row r (contiguous cols() doubles). */
    double *
    rowPtr(std::size_t r)
    {
        CS_ASSERT(r < rows_, "row ", r, " out of ", rows_);
        return data_.data() + r * cols_;
    }

    const double *
    rowPtr(std::size_t r) const
    {
        CS_ASSERT(r < rows_, "row ", r, " out of ", rows_);
        return data_.data() + r * cols_;
    }

    /** Raw row-major storage (rows() * cols() contiguous doubles). */
    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    /**
     * Reshape to rows x cols, reusing the existing capacity (no heap
     * traffic when the new size fits). Preexisting values survive
     * only as raw row-major prefix; callers overwrite the contents.
     */
    void resize(std::size_t rows, std::size_t cols);

    /** Matrix product this * other. */
    Matrix multiply(const Matrix &other) const;

    /** Transpose. */
    Matrix transpose() const;

    /** Elementwise sum; shapes must match. */
    Matrix add(const Matrix &other) const;

    /** Elementwise difference; shapes must match. */
    Matrix subtract(const Matrix &other) const;

    /** Scale every entry by s. */
    Matrix scaled(double s) const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Maximum absolute entry (0 for an empty matrix). */
    double maxAbs() const;

    /** Human-readable dump, mainly for test diagnostics. */
    std::string toString(int precision = 4) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/**
 * Solve A x = b via LU decomposition with partial pivoting.
 *
 * @param a square coefficient matrix (copied; not modified)
 * @param b right-hand side of length a.rows()
 * @return solution vector x
 * @throws FatalError if the system is singular to working precision.
 */
std::vector<double> solveLinearSystem(const Matrix &a,
                                      const std::vector<double> &b);

/**
 * In-place core of solveLinearSystem for allocation-free callers:
 * @p a (n x n, row-major) is overwritten by its LU factors and @p x
 * holds b on entry and the solution on exit. Identical pivoting and
 * elimination order to solveLinearSystem, so both produce bit-equal
 * results.
 */
void solveLinearSystemInPlace(double *a, double *x, std::size_t n);

/** Result of a singular value decomposition A = U * diag(s) * V^T. */
struct SvdResult
{
    Matrix u;                    //!< m x n with orthonormal columns
    std::vector<double> singularValues; //!< length n, descending
    Matrix v;                    //!< n x n orthogonal
    /** Jacobi sweeps run, the converging sweep included: a
     *  deterministic work counter (maxSweeps when it never
     *  converged). */
    int sweeps = 0;
};

/**
 * One-sided Jacobi SVD of an m x n matrix with m >= n (thin SVD).
 *
 * Accurate and simple; O(m n^2) per sweep, plenty for the rating-matrix
 * sizes in this system. Used to warm-start the PQ factors as the paper
 * describes (Section V).
 */
SvdResult jacobiSvd(const Matrix &a, int maxSweeps = 60,
                    double tol = 1e-12);

} // namespace cuttlesys

#endif // CUTTLESYS_COMMON_MATRIX_HH
