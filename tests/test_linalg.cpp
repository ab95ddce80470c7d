// Unit tests for wivi::linalg - complex matrices and the Hermitian
// eigensolver (Householder + QL) that powers smoothed MUSIC, checked
// against the test-only cyclic Jacobi oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/constants.hpp"
#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/linalg/cmatrix.hpp"
#include "src/linalg/eig.hpp"
#include "tests/jacobi_oracle.hpp"

namespace wivi::linalg {
namespace {

CMatrix random_hermitian(std::size_t n, Rng& rng) {
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.gaussian();
    for (std::size_t j = i + 1; j < n; ++j) {
      const cdouble v = rng.complex_gaussian();
      a(i, j) = v;
      a(j, i) = std::conj(v);
    }
  }
  return a;
}

/// Orthogonal projector V_k V_k^H onto the span of the first k columns.
CMatrix leading_projector(const CMatrix& v, std::size_t k) {
  const std::size_t n = v.rows();
  CMatrix p(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t c = 0; c < k; ++c) p(i, j) += v(i, c) * std::conj(v(j, c));
  return p;
}

double max_abs_diff(const CMatrix& a, const CMatrix& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
  return worst;
}

/// max |(V diag(values) V^H - A)_ij|: how well a decomposition rebuilds A.
double reconstruction_error(const CMatrix& a, const EigResult& r) {
  const std::size_t n = a.rows();
  CMatrix rebuilt(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t c = 0; c < n; ++c)
        rebuilt(i, j) += r.vectors(i, c) * r.values[c] * std::conj(r.vectors(j, c));
  return max_abs_diff(rebuilt, a);
}

/// max |(V^H V - I)_ij|.
double orthonormality_error(const CMatrix& v) {
  const CMatrix vhv = v.hermitian() * v;
  return max_abs_diff(vhv, CMatrix::identity(v.cols()));
}

/// A random unitary matrix: the eigenvectors of a random Hermitian one.
CMatrix random_unitary(std::size_t n, Rng& rng) {
  return oracle::jacobi_eig(random_hermitian(n, rng)).vectors;
}

/// U diag(values) U^H for a random unitary U; `u_out` receives U.
CMatrix with_spectrum(const RVec& values, Rng& rng, CMatrix* u_out = nullptr) {
  const std::size_t n = values.size();
  const CMatrix u = random_unitary(n, rng);
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      cdouble acc{0.0, 0.0};
      for (std::size_t c = 0; c < n; ++c)
        acc += u(i, c) * values[c] * std::conj(u(j, c));
      a(i, j) = acc;
      a(j, i) = std::conj(acc);
    }
  for (std::size_t i = 0; i < n; ++i) a(i, i) = a(i, i).real();
  if (u_out != nullptr) *u_out = u;
  return a;
}

// ------------------------------------------------------------- CMatrix ---

TEST(CMatrix, IdentityTimesVectorIsVector) {
  const CMatrix id = CMatrix::identity(4);
  const CVec x = {{1, 2}, {3, -1}, {0, 0}, {-2, 5}};
  const CVec y = id * CSpan(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-15);
}

TEST(CMatrix, OuterProductIsRankOneHermitian) {
  const CVec x = {{1, 1}, {2, -1}, {0, 3}};
  const CMatrix m = CMatrix::outer(x);
  EXPECT_NEAR(m.hermitian_defect(), 0.0, 1e-15);
  // Diagonal = |x_i|^2.
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(m(i, i).real(), norm2(x[i]), 1e-15);
  // m * x == ||x||^2 x (x is the only eigenvector with nonzero eigenvalue).
  double e = 0.0;
  for (const auto& v : x) e += norm2(v);
  const CVec mx = m * CSpan(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(mx[i] - e * x[i]), 0.0, 1e-12);
}

TEST(CMatrix, ProductMatchesHandComputation) {
  CMatrix a(2, 2);
  a(0, 0) = {1, 0};
  a(0, 1) = {0, 1};
  a(1, 0) = {2, 0};
  a(1, 1) = {0, 0};
  CMatrix b(2, 2);
  b(0, 0) = {0, 1};
  b(0, 1) = {1, 0};
  b(1, 0) = {1, 0};
  b(1, 1) = {0, -1};
  const CMatrix c = a * b;
  EXPECT_NEAR(std::abs(c(0, 0) - cdouble{0, 2}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(c(0, 1) - cdouble{2, 0}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(c(1, 0) - cdouble{0, 2}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(c(1, 1) - cdouble{2, 0}), 0.0, 1e-15);
}

TEST(CMatrix, HermitianTransposeConjugates) {
  CMatrix a(2, 3);
  a(0, 2) = {1, 2};
  const CMatrix h = a.hermitian();
  EXPECT_EQ(h.rows(), 3u);
  EXPECT_EQ(h.cols(), 2u);
  EXPECT_NEAR(std::abs(h(2, 0) - cdouble{1, -2}), 0.0, 1e-15);
}

TEST(CMatrix, SizeMismatchThrows) {
  CMatrix a(2, 3);
  CMatrix b(2, 3);
  EXPECT_THROW((void)(a * b), InvalidArgument);
  CMatrix c(2, 2);
  EXPECT_THROW(c += a, InvalidArgument);
}

TEST(CMatrix, AtChecksBounds) {
  CMatrix a(2, 2);
  EXPECT_THROW((void)a.at(2, 0), InvalidArgument);
  EXPECT_NO_THROW((void)a.at(1, 1));
}

// ----------------------------------------------------------------- Eig ---

TEST(Eig, DiagonalMatrixReturnsSortedDiagonal) {
  CMatrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 5.0;
  a(2, 2) = 3.0;
  const EigResult r = hermitian_eig(a);
  EXPECT_DOUBLE_EQ(r.values[0], 5.0);
  EXPECT_DOUBLE_EQ(r.values[1], 3.0);
  EXPECT_DOUBLE_EQ(r.values[2], 1.0);
}

TEST(Eig, TwoByTwoKnownEigenvalues) {
  // [[2, i], [-i, 2]] has eigenvalues 3 and 1.
  CMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = {0.0, 1.0};
  a(1, 0) = {0.0, -1.0};
  a(1, 1) = 2.0;
  const EigResult r = hermitian_eig(a);
  EXPECT_NEAR(r.values[0], 3.0, 1e-12);
  EXPECT_NEAR(r.values[1], 1.0, 1e-12);
}

TEST(Eig, RejectsNonHermitian) {
  CMatrix a(2, 2);
  a(0, 1) = {1.0, 0.0};
  a(1, 0) = {5.0, 0.0};  // != conj(a(0,1))
  EXPECT_THROW((void)hermitian_eig(a), InvalidArgument);
}

TEST(Eig, RejectsNonSquare) {
  EXPECT_THROW((void)hermitian_eig(CMatrix(2, 3)), InvalidArgument);
}

// Property sweep over sizes: reconstruction, orthonormality, trace.
class EigProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigProperty, ReconstructsAndIsUnitary) {
  Rng rng(GetParam() * 7919 + 1);
  const std::size_t n = GetParam();
  const CMatrix a = random_hermitian(n, rng);
  const EigResult r = hermitian_eig(a);

  // Eigenvalues are sorted descending.
  for (std::size_t i = 0; i + 1 < n; ++i) EXPECT_GE(r.values[i], r.values[i + 1]);

  // Trace is preserved.
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += a(i, i).real();
  double eig_sum = 0.0;
  for (double v : r.values) eig_sum += v;
  EXPECT_NEAR(trace, eig_sum, 1e-9 * std::max(1.0, std::abs(trace)));

  // Columns are orthonormal: V^H V = I.
  const CMatrix vhv = r.vectors.hermitian() * r.vectors;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double expected = i == j ? 1.0 : 0.0;
      ASSERT_NEAR(std::abs(vhv(i, j)), expected, 1e-9);
    }
  }

  // A v_j = lambda_j v_j.
  for (std::size_t j = 0; j < n; ++j) {
    const CVec v = r.vectors.column(j);
    const CVec av = a * CSpan(v);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(std::abs(av[i] - r.values[j] * v[i]), 0.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32, 50));

TEST(Eig, RankOnePlusNoiseSeparatesSubspaces) {
  // The MUSIC use case in miniature: R = s s^H + sigma^2 I must yield one
  // dominant eigenvalue ~ ||s||^2 + sigma^2 and a flat noise floor.
  Rng rng(42);
  const std::size_t n = 16;
  CVec s(n);
  for (auto& v : s) v = rng.complex_gaussian();
  CMatrix r = CMatrix::outer(s);
  const double sigma2 = 0.01;
  for (std::size_t i = 0; i < n; ++i) r(i, i) += sigma2;

  const EigResult e = hermitian_eig(r);
  double s_energy = 0.0;
  for (const auto& v : s) s_energy += norm2(v);
  EXPECT_NEAR(e.values[0], s_energy + sigma2, 1e-9);
  for (std::size_t i = 1; i < n; ++i) EXPECT_NEAR(e.values[i], sigma2, 1e-9);
}

// ------------------------------------------------ against the oracle ---

// Eigenvalues within 1e-12 ||A||_F of cyclic Jacobi at tolerance 1e-15,
// and the same leading subspaces (compared as projectors, which are
// unique even where individual eigenvectors are only defined up to phase).
class EigOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigOracle, MatchesJacobiEigenvaluesAndLeadingSubspaces) {
  const std::size_t n = GetParam();
  Rng rng(n * 104729 + 3);
  const CMatrix a = random_hermitian(n, rng);
  const EigResult got = hermitian_eig(a);
  const EigResult ref = oracle::jacobi_eig(a);
  const double fro = a.frobenius_norm();
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(got.values[i], ref.values[i], 1e-12 * fro) << "i=" << i;
  for (const std::size_t k : {std::size_t{1}, std::min<std::size_t>(3, n),
                              (n + 1) / 2}) {
    EXPECT_LT(max_abs_diff(leading_projector(got.vectors, k),
                           leading_projector(ref.vectors, k)),
              1e-10)
        << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigOracle,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32, 50));

TEST(Eig, LeadingEigenvectorsAreTheFullSolutionsColumnsBitForBit) {
  // MUSIC forms only its k signal vectors; they must be exactly what the
  // full decomposition would have produced. The replay works up to eight
  // vectors at a time, so every k here but 16 and n ends on a partial
  // block, and 9, 16 and n span several.
  Rng rng(17);
  const std::size_t n = 32;
  const CMatrix a = random_hermitian(n, rng);
  const EigResult full = hermitian_eig(a);
  EigWorkspace ws;
  const RSpan values = hermitian_eigenvalues(a, ws);
  ASSERT_EQ(values.size(), n);
  for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(values[j], full.values[j]);
  for (const std::size_t k : {1ul, 3ul, 4ul, 5ul, 9ul, 16ul, n}) {
    CVec rows(k * n);
    leading_eigenvectors(ws, k, rows);
    for (std::size_t j = 0; j < k; ++j)
      for (std::size_t i = 0; i < n; ++i) {
        const cdouble expect = full.vectors(i, j);
        ASSERT_EQ(std::memcmp(&rows[j * n + i], &expect, sizeof(cdouble)), 0)
            << "k " << k << " vector " << j << " entry " << i;
      }
    if (k < n) {
      EXPECT_THROW(leading_eigenvectors(ws, k + 1, rows), InvalidArgument);
    }
  }
  CVec rows(n * n);
  EXPECT_THROW(leading_eigenvectors(ws, n + 1, rows), InvalidArgument);
}

TEST(Eig, ClusteredMoversAtMaxSourcesMatchTheOracle) {
  // The MUSIC shape QL's rotation replay must get right: the smoothed
  // correlation (w = 100, w' = 32) of a DC residual plus two equal-power
  // movers receding and approaching at the same speed, whose eigenvalues
  // cluster, with every signal vector the estimator can ask for
  // (max_sources = 16, so 13 come from the sampled noise floor). The
  // movers' steering phase step pi/8 makes both steering vectors
  // orthogonal to each other and to the DC's over the 32 elements.
  Rng rng(2013);
  const std::size_t w = 100;
  const std::size_t n = 32;
  const double phi = kPi / 8.0;
  CVec h(w);
  for (std::size_t t = 0; t < w; ++t) {
    const double p = phi * static_cast<double>(t);
    h[t] = cdouble{0.8, 0.3} + cdouble{std::cos(p), std::sin(p)} +
           cdouble{std::cos(p), -std::sin(p)} + rng.complex_gaussian(0.05);
  }
  const std::size_t subarrays = w - n + 1;
  CMatrix r(n, n);
  for (std::size_t s = 0; s < subarrays; ++s)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        r(i, j) += h[s + i] * std::conj(h[s + j]) / static_cast<double>(subarrays);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) r(j, i) = std::conj(r(i, j));

  const EigResult ref = oracle::jacobi_eig(r);
  // The movers' eigenvalues (~34.7 and ~30.2) cluster closer to each
  // other than to the DC's (~22.7).
  ASSERT_LT(ref.values[0] - ref.values[1], ref.values[1] - ref.values[2]);
  EigWorkspace ws;
  const RSpan values = hermitian_eigenvalues(r, ws);
  const double fro = r.frobenius_norm();
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(values[i], ref.values[i], 1e-12 * fro) << "i=" << i;
  const std::size_t k = 16;
  CVec rows(k * n);
  leading_eigenvectors(ws, k, rows);
  CMatrix v(n, k);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < n; ++i) v(i, j) = rows[j * n + i];
  EXPECT_LE(orthonormality_error(v), 1e-14);
  for (const std::size_t m : {1ul, 2ul, 3ul, k})
    EXPECT_LT(max_abs_diff(leading_projector(v, m), leading_projector(ref.vectors, m)),
              1e-12)
        << "m=" << m;
}

TEST(Eig, ZeroMatrixHasZeroSpectrumAndAUnitaryBasis) {
  for (const std::size_t n : {1ul, 2ul, 7ul, 32ul}) {
    const EigResult r = hermitian_eig(CMatrix(n, n));
    for (const double v : r.values) EXPECT_EQ(v, 0.0);
    EXPECT_LT(orthonormality_error(r.vectors), 1e-15) << "n=" << n;
  }
}

TEST(Eig, RejectsAnEmptyMatrix) {
  EXPECT_THROW((void)hermitian_eig(CMatrix{}), InvalidArgument);
  // Also on a workspace warmed by a larger matrix, which then still works.
  Rng rng(8);
  const CMatrix a = random_hermitian(5, rng);
  EigWorkspace ws;
  EigResult out;
  hermitian_eig_into(a, out, ws);
  EXPECT_THROW(hermitian_eig_into(CMatrix{}, out, ws), InvalidArgument);
  EXPECT_THROW((void)hermitian_eigenvalues(CMatrix{}, ws), InvalidArgument);
  EigResult again;
  hermitian_eig_into(a, again, ws);
  EXPECT_EQ(std::memcmp(again.values.data(), hermitian_eig(a).values.data(),
                        5 * sizeof(double)),
            0);
}

TEST(Eig, RepeatedEigenvaluesKeepTheirEigenspaces) {
  // Triple leading eigenvalue, a double in the middle, distinct tail: each
  // eigenvector is arbitrary inside its eigenspace, but the eigenspace
  // (the projector) is not.
  Rng rng(99);
  const RVec spectrum = {5.0, 5.0, 5.0, 2.0, 2.0, 1.0, 0.5, 0.25, 0.125, -1.0};
  CMatrix u;
  const CMatrix a = with_spectrum(spectrum, rng, &u);
  const EigResult r = hermitian_eig(a);
  for (std::size_t i = 0; i < spectrum.size(); ++i)
    EXPECT_NEAR(r.values[i], spectrum[i], 1e-13) << "i=" << i;
  EXPECT_LT(orthonormality_error(r.vectors), 1e-13);
  EXPECT_LT(reconstruction_error(a, r), 1e-13);
  EXPECT_LT(max_abs_diff(leading_projector(r.vectors, 3), leading_projector(u, 3)),
            1e-12);
  EXPECT_LT(max_abs_diff(leading_projector(r.vectors, 5), leading_projector(u, 5)),
            1e-12);
  // A fully degenerate spectrum: any unitary basis is correct.
  const EigResult id = hermitian_eig(CMatrix::identity(6));
  for (const double v : id.values) EXPECT_EQ(v, 1.0);
  EXPECT_LT(orthonormality_error(id.vectors), 1e-15);
}

TEST(Eig, RankOnePlusNoiseMatchesTheOracleSignalVector) {
  Rng rng(4242);
  const std::size_t n = 32;
  CVec s(n);
  for (auto& v : s) v = rng.complex_gaussian();
  CMatrix r = CMatrix::outer(s);
  for (std::size_t i = 0; i < n; ++i) r(i, i) += 1e-3;
  const EigResult got = hermitian_eig(r);
  const EigResult ref = oracle::jacobi_eig(r);
  const double fro = r.frobenius_norm();
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(got.values[i], ref.values[i], 1e-12 * fro) << "i=" << i;
  EXPECT_LT(max_abs_diff(leading_projector(got.vectors, 1),
                         leading_projector(ref.vectors, 1)),
            1e-12);
  EXPECT_LT(orthonormality_error(got.vectors), 1e-13);
}

TEST(Eig, TridiagonalInputWithComplexOffDiagonals) {
  // Nothing below the subdiagonal, so no Householder reflector fires and
  // the diagonal phase scaling alone must make the matrix real. A zero
  // coupling splits it into independent blocks.
  Rng rng(5);
  const std::size_t n = 12;
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = rng.gaussian();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const cdouble v = i == 6 ? cdouble{0.0, 0.0} : rng.complex_gaussian();
    a(i + 1, i) = v;
    a(i, i + 1) = std::conj(v);
  }
  const EigResult got = hermitian_eig(a);
  const EigResult ref = oracle::jacobi_eig(a);
  const double fro = a.frobenius_norm();
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(got.values[i], ref.values[i], 1e-12 * fro) << "i=" << i;
  EXPECT_LT(reconstruction_error(a, got), 1e-13 * fro);
  EXPECT_LT(orthonormality_error(got.vectors), 1e-13);
  for (const std::size_t k : {1ul, 4ul, 9ul})
    EXPECT_LT(max_abs_diff(leading_projector(got.vectors, k),
                           leading_projector(ref.vectors, k)),
              1e-10)
        << "k=" << k;
}

TEST(Eig, WorkspaceReuseAcrossSizesMatchesAFreshWorkspace) {
  // Every workspace buffer is rewritten per call: a decomposition after a
  // larger one on the same workspace is bit-identical to a fresh one.
  Rng rng(31);
  const CMatrix big = random_hermitian(40, rng);
  const CMatrix small = random_hermitian(9, rng);
  EigWorkspace ws;
  EigResult out;
  hermitian_eig_into(big, out, ws);
  hermitian_eig_into(small, out, ws);
  const EigResult fresh = hermitian_eig(small);
  ASSERT_EQ(out.values.size(), fresh.values.size());
  EXPECT_EQ(std::memcmp(out.values.data(), fresh.values.data(),
                        fresh.values.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(out.vectors.data(), fresh.vectors.data(),
                        81 * sizeof(cdouble)),
            0);
}

}  // namespace
}  // namespace wivi::linalg
