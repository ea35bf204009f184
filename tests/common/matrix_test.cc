/**
 * @file
 * Tests for the dense matrix, LU solver and Jacobi SVD.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/logging.hh"
#include "common/matrix.hh"
#include "common/rng.hh"

namespace cuttlesys {
namespace {

TEST(MatrixTest, ConstructionAndIndexing)
{
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 1) = -2.0;
    EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, OutOfRangePanics)
{
    Matrix m(2, 2);
    EXPECT_THROW(m(2, 0), PanicError);
    EXPECT_THROW(m(0, 2), PanicError);
}

TEST(MatrixTest, FromRowsAndTranspose)
{
    const Matrix m = Matrix::fromRows({{1, 2, 3}, {4, 5, 6}});
    const Matrix t = m.transpose();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
    EXPECT_DOUBLE_EQ(t(0, 0), 1.0);
}

TEST(MatrixTest, FromRowsRejectsRagged)
{
    EXPECT_THROW(Matrix::fromRows({{1, 2}, {3}}), PanicError);
}

TEST(MatrixTest, MultiplyKnownProduct)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    const Matrix b = Matrix::fromRows({{5, 6}, {7, 8}});
    const Matrix c = a.multiply(b);
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyShapeMismatchPanics)
{
    Matrix a(2, 3), b(2, 3);
    EXPECT_THROW(a.multiply(b), PanicError);
}

TEST(MatrixTest, IdentityIsMultiplicativeUnit)
{
    Rng rng(1);
    const Matrix a = Matrix::random(4, 4, rng, -1.0, 1.0);
    const Matrix i = Matrix::identity(4);
    EXPECT_NEAR(a.multiply(i).subtract(a).maxAbs(), 0.0, 1e-15);
    EXPECT_NEAR(i.multiply(a).subtract(a).maxAbs(), 0.0, 1e-15);
}

TEST(MatrixTest, AddSubtractScale)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    const Matrix b = a.scaled(2.0);
    EXPECT_DOUBLE_EQ(b(1, 1), 8.0);
    const Matrix c = b.subtract(a);
    EXPECT_NEAR(c.subtract(a).maxAbs(), 0.0, 1e-15);
    const Matrix d = a.add(a);
    EXPECT_NEAR(d.subtract(b).maxAbs(), 0.0, 1e-15);
}

TEST(MatrixTest, FrobeniusNorm)
{
    const Matrix a = Matrix::fromRows({{3, 4}});
    EXPECT_DOUBLE_EQ(a.frobeniusNorm(), 5.0);
}

TEST(LinearSolveTest, SolvesKnownSystem)
{
    const Matrix a = Matrix::fromRows({{2, 1}, {1, 3}});
    const auto x = solveLinearSystem(a, {5, 10});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinearSolveTest, RequiresPivoting)
{
    // Zero on the diagonal forces a row swap.
    const Matrix a = Matrix::fromRows({{0, 1}, {1, 0}});
    const auto x = solveLinearSystem(a, {2, 3});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LinearSolveTest, RandomSystemsRoundTrip)
{
    Rng rng(2);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 1 +
            static_cast<std::size_t>(rng.uniformInt(1, 12));
        const Matrix a = Matrix::random(n, n, rng, -2.0, 2.0);
        std::vector<double> x_true(n);
        for (auto &v : x_true)
            v = rng.uniform(-3.0, 3.0);
        std::vector<double> b(n, 0.0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                b[i] += a(i, j) * x_true[j];
        const auto x = solveLinearSystem(a, b);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(x[i], x_true[i], 1e-8);
    }
}

TEST(LinearSolveTest, SingularMatrixIsFatal)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {2, 4}});
    EXPECT_THROW(solveLinearSystem(a, {1, 2}), FatalError);
}

TEST(SvdTest, ReconstructsDiagonal)
{
    const Matrix a = Matrix::fromRows({{3, 0}, {0, 2}, {0, 0}});
    const SvdResult svd = jacobiSvd(a);
    ASSERT_EQ(svd.singularValues.size(), 2u);
    EXPECT_NEAR(svd.singularValues[0], 3.0, 1e-10);
    EXPECT_NEAR(svd.singularValues[1], 2.0, 1e-10);
}

TEST(SvdTest, SingularValuesSortedDescending)
{
    Rng rng(3);
    const Matrix a = Matrix::random(8, 5, rng, -1.0, 1.0);
    const SvdResult svd = jacobiSvd(a);
    for (std::size_t i = 0; i + 1 < svd.singularValues.size(); ++i)
        EXPECT_GE(svd.singularValues[i], svd.singularValues[i + 1]);
}

TEST(SvdTest, FactorsReconstructMatrix)
{
    Rng rng(4);
    const Matrix a = Matrix::random(7, 4, rng, -2.0, 2.0);
    const SvdResult svd = jacobiSvd(a);

    // Rebuild A = U * diag(s) * V^T.
    Matrix us = svd.u;
    for (std::size_t i = 0; i < us.rows(); ++i)
        for (std::size_t j = 0; j < us.cols(); ++j)
            us(i, j) *= svd.singularValues[j];
    const Matrix rebuilt = us.multiply(svd.v.transpose());
    EXPECT_NEAR(rebuilt.subtract(a).maxAbs(), 0.0, 1e-8);
}

TEST(SvdTest, ColumnsOfVAreOrthonormal)
{
    Rng rng(5);
    const Matrix a = Matrix::random(6, 6, rng, -1.0, 1.0);
    const SvdResult svd = jacobiSvd(a);
    const Matrix vtv = svd.v.transpose().multiply(svd.v);
    EXPECT_NEAR(vtv.subtract(Matrix::identity(6)).maxAbs(), 0.0, 1e-8);
}

/**
 * A rating matrix shaped the way the CF warm start hands it to
 * jacobiSvd: @p rows apps over the 108 joint configs from a rank-3
 * model plus noise, about a third of every row unobserved and filled
 * with that row's observed mean, and the last three rows exact copies
 * of earlier ones so the matrix is rank deficient. Returned transposed
 * (108 x rows), as the warm start passes a wide matrix.
 */
Matrix
meanFilledRatings(std::size_t rows, std::uint64_t seed)
{
    constexpr std::size_t kConfigs = 108;
    constexpr std::size_t kRank = 3;
    Rng rng(seed);
    const Matrix q = Matrix::random(rows, kRank, rng, 0.2, 1.5);
    const Matrix p = Matrix::random(kRank, kConfigs, rng, 0.1, 2.0);
    Matrix filled = q.multiply(p);
    for (std::size_t r = 0; r < rows; ++r) {
        double *row = filled.rowPtr(r);
        std::vector<bool> seen(kConfigs);
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t c = 0; c < kConfigs; ++c) {
            seen[c] = rng.uniform() >= 1.0 / 3.0;
            if (seen[c]) {
                row[c] += rng.uniform(-0.05, 0.05);
                sum += row[c];
                ++n;
            }
        }
        const double mean = n ? sum / static_cast<double>(n) : 0.0;
        for (std::size_t c = 0; c < kConfigs; ++c) {
            if (!seen[c])
                row[c] = mean;
        }
    }
    for (std::size_t r = rows - 3; r < rows; ++r) {
        for (std::size_t c = 0; c < kConfigs; ++c)
            filled(r, c) = filled(r - 7, c);
    }
    return filled.transpose();
}

/** FNV-1a over the bit patterns of @p n doubles, chained. */
std::uint64_t
hashBits(std::uint64_t h, const double *x, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &x[i], sizeof(bits));
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

std::uint64_t
svdDigest(const SvdResult &svd)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = hashBits(h, svd.singularValues.data(),
                 svd.singularValues.size());
    h = hashBits(h, svd.u.data(), svd.u.rows() * svd.u.cols());
    return hashBits(h, svd.v.data(), svd.v.rows() * svd.v.cols());
}

TEST(SvdTest, PinnedBitsOnMeanFilledRatingShapes)
{
    // The cold CF start's factors seed the SGD, so any change to the
    // Jacobi arithmetic — summation order, a fused multiply-add, a
    // recomputed norm that rounds differently — moves every decision
    // downstream. Pin the exact output bits and the sweep count on
    // the two rating-matrix shapes (38 and 21 rows) the fleet's cold
    // starts factor.
    struct Case
    {
        std::size_t rows;
        std::uint64_t seed;
        std::uint64_t digest;
        int sweeps;
    };
    for (const Case &k : {Case{38, 11, 0xb695a1119958535aULL, 12},
                          Case{21, 12, 0x18f7f02c81c51c28ULL, 10}}) {
        const Matrix a = meanFilledRatings(k.rows, k.seed);
        ASSERT_EQ(a.rows(), 108u);
        ASSERT_EQ(a.cols(), k.rows);
        const SvdResult svd = jacobiSvd(a);
        EXPECT_EQ(svdDigest(svd), k.digest)
            << "rows " << k.rows << " digest 0x" << std::hex
            << svdDigest(svd);
        EXPECT_EQ(svd.sweeps, k.sweeps) << "rows " << k.rows;
        // The copied rows leave a null space.
        EXPECT_LT(svd.singularValues.back(),
                  1e-10 * svd.singularValues.front());
    }
}

TEST(SvdTest, RejectsWideMatrix)
{
    Matrix a(2, 5);
    EXPECT_THROW(jacobiSvd(a), PanicError);
}

} // namespace
} // namespace cuttlesys
