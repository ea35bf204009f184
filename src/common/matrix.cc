#include "common/matrix.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"

namespace cuttlesys {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix
Matrix::fromRows(const std::vector<std::vector<double>> &rows)
{
    if (rows.empty())
        return Matrix();
    Matrix m(rows.size(), rows.front().size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        CS_ASSERT(rows[r].size() == m.cols_,
                  "ragged row ", r, " in Matrix::fromRows");
        std::copy(rows[r].begin(), rows[r].end(), m.rowPtr(r));
    }
    return m;
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::random(std::size_t rows, std::size_t cols, Rng &rng,
               double lo, double hi)
{
    Matrix m(rows, cols);
    for (auto &v : m.data_)
        v = rng.uniform(lo, hi);
    return m;
}

void
Matrix::resize(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
}

Matrix
Matrix::multiply(const Matrix &other) const
{
    CS_ASSERT(cols_ == other.rows_, "shape mismatch in multiply: ",
              rows_, "x", cols_, " * ", other.rows_, "x", other.cols_);
    Matrix out(rows_, other.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        const double *lhs = rowPtr(i);
        double *dst = out.rowPtr(i);
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = lhs[k];
            if (a == 0.0)
                continue;
            const double *rhs = other.rowPtr(k);
            for (std::size_t j = 0; j < other.cols_; ++j)
                dst[j] += a * rhs[j];
        }
    }
    return out;
}

Matrix
Matrix::transpose() const
{
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            out(j, i) = (*this)(i, j);
    return out;
}

Matrix
Matrix::add(const Matrix &other) const
{
    CS_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
              "shape mismatch in add");
    Matrix out = *this;
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] += other.data_[i];
    return out;
}

Matrix
Matrix::subtract(const Matrix &other) const
{
    CS_ASSERT(rows_ == other.rows_ && cols_ == other.cols_,
              "shape mismatch in subtract");
    Matrix out = *this;
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] -= other.data_[i];
    return out;
}

Matrix
Matrix::scaled(double s) const
{
    Matrix out = *this;
    for (auto &v : out.data_)
        v *= s;
    return out;
}

double
Matrix::frobeniusNorm() const
{
    double ss = 0.0;
    for (double v : data_)
        ss += v * v;
    return std::sqrt(ss);
}

double
Matrix::maxAbs() const
{
    double m = 0.0;
    for (double v : data_)
        m = std::max(m, std::abs(v));
    return m;
}

std::string
Matrix::toString(int precision) const
{
    std::ostringstream oss;
    oss << std::setprecision(precision);
    for (std::size_t i = 0; i < rows_; ++i) {
        oss << "[";
        for (std::size_t j = 0; j < cols_; ++j) {
            oss << (*this)(i, j);
            if (j + 1 < cols_)
                oss << ", ";
        }
        oss << "]\n";
    }
    return oss.str();
}

void
solveLinearSystemInPlace(double *a, double *x, std::size_t n)
{
    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivoting: find the largest magnitude in this column.
        std::size_t pivot = col;
        double best = std::abs(a[col * n + col]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double mag = std::abs(a[r * n + col]);
            if (mag > best) {
                best = mag;
                pivot = r;
            }
        }
        if (best < 1e-13) {
            fatal("solveLinearSystem: matrix is singular at column ",
                  col, " (pivot ", best, ")");
        }
        if (pivot != col) {
            for (std::size_t j = 0; j < n; ++j)
                std::swap(a[col * n + j], a[pivot * n + j]);
            std::swap(x[col], x[pivot]);
        }
        // Eliminate below the pivot.
        const double inv = 1.0 / a[col * n + col];
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = a[r * n + col] * inv;
            if (factor == 0.0)
                continue;
            a[r * n + col] = 0.0;
            for (std::size_t j = col + 1; j < n; ++j)
                a[r * n + j] -= factor * a[col * n + j];
            x[r] -= factor * x[col];
        }
    }

    // Back substitution.
    for (std::size_t ri = n; ri-- > 0;) {
        double sum = x[ri];
        for (std::size_t j = ri + 1; j < n; ++j)
            sum -= a[ri * n + j] * x[j];
        x[ri] = sum / a[ri * n + ri];
    }
}

std::vector<double>
solveLinearSystem(const Matrix &a, const std::vector<double> &b)
{
    CS_ASSERT(a.rows() == a.cols(), "solveLinearSystem needs square A");
    CS_ASSERT(b.size() == a.rows(), "rhs length mismatch");
    const std::size_t n = a.rows();

    // Working copies: the in-place core destroys its inputs.
    Matrix lu = a;
    std::vector<double> x = b;
    solveLinearSystemInPlace(lu.data(), x.data(), n);
    return x;
}

SvdResult
jacobiSvd(const Matrix &a, int maxSweeps, double tol)
{
    CS_ASSERT(a.rows() >= a.cols(),
              "jacobiSvd expects m >= n (got ", a.rows(), "x",
              a.cols(), "); transpose first");
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();

    // U and V are kept transposed, so column k of each is the
    // contiguous row k of ut / vt. Every sum and rotation walks its
    // columns in increasing i; the result's bits depend on that order
    // and are pinned by SvdTest.PinnedBitsOnMeanFilledRatingShapes.
    Matrix ut = a.transpose();    // becomes (U * diag(s))^T
    Matrix vt = Matrix::identity(n);

    // squared[k] is column k's squared norm, summed in i order, kept
    // until a rotation touches the column: recomputing it would repeat
    // the identical ordered sum.
    std::vector<double> squared(n);
    std::vector<char> fresh(n, 0);
    const auto squaredNorm = [&](std::size_t k) {
        if (!fresh[k]) {
            const double *col = ut.rowPtr(k);
            double sum = 0.0;
            for (std::size_t i = 0; i < m; ++i)
                sum += col[i] * col[i];
            squared[k] = sum;
            fresh[k] = 1;
        }
        return squared[k];
    };

    // One-sided Jacobi: orthogonalize pairs of columns of U.
    int sweeps = 0;
    for (int sweep = 0; sweep < maxSweeps; ++sweep) {
        ++sweeps;
        double offDiag = 0.0;
        for (std::size_t p = 0; p + 1 < n; ++p) {
            double *up = ut.rowPtr(p);
            double *vp = vt.rowPtr(p);
            for (std::size_t q = p + 1; q < n; ++q) {
                double *uq = ut.rowPtr(q);
                double *vq = vt.rowPtr(q);
                const double alpha = squaredNorm(p);
                const double beta = squaredNorm(q);
                double gamma = 0.0;
                for (std::size_t i = 0; i < m; ++i)
                    gamma += up[i] * uq[i];
                offDiag = std::max(offDiag,
                                   std::abs(gamma) /
                                   std::max(std::sqrt(alpha * beta),
                                            1e-300));
                if (std::abs(gamma) <=
                    tol * std::sqrt(alpha * beta))
                    continue;

                // Jacobi rotation that zeroes the (p, q) inner product.
                const double zeta = (beta - alpha) / (2.0 * gamma);
                const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                    (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = c * t;

                for (std::size_t i = 0; i < m; ++i) {
                    const double x = up[i];
                    const double y = uq[i];
                    up[i] = c * x - s * y;
                    uq[i] = s * x + c * y;
                }
                for (std::size_t i = 0; i < n; ++i) {
                    const double x = vp[i];
                    const double y = vq[i];
                    vp[i] = c * x - s * y;
                    vq[i] = s * x + c * y;
                }
                fresh[p] = 0;
                fresh[q] = 0;
            }
        }
        if (offDiag < tol)
            break;
    }

    // Extract singular values as the column norms of U.
    SvdResult result;
    result.singularValues.resize(n);
    for (std::size_t j = 0; j < n; ++j)
        result.singularValues[j] = std::sqrt(squaredNorm(j));

    // Sort descending, permuting U and V columns to match.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t x,
                                              std::size_t y) {
        return result.singularValues[x] > result.singularValues[y];
    });

    Matrix uSorted(m, n), vSorted(n, n);
    std::vector<double> sSorted(n);
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t src = order[j];
        sSorted[j] = result.singularValues[src];
        const double inv = sSorted[j] > 1e-300 ? 1.0 / sSorted[j] : 0.0;
        const double *ucol = ut.rowPtr(src);
        const double *vcol = vt.rowPtr(src);
        for (std::size_t i = 0; i < m; ++i)
            uSorted(i, j) = ucol[i] * inv;
        for (std::size_t i = 0; i < n; ++i)
            vSorted(i, j) = vcol[i];
    }

    result.u = std::move(uSorted);
    result.v = std::move(vSorted);
    result.singularValues = std::move(sSorted);
    result.sweeps = sweeps;
    return result;
}

} // namespace cuttlesys
