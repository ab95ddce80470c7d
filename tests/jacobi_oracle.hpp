// Test-only reference eigensolver: cyclic complex Jacobi rotations.
//
// Slow (~8x the production Householder + QL solver at n = 32) but
// unconditionally stable and simple to verify, which is what an oracle
// needs. Run it at tolerance 1e-15: over the scenario-family columns of
// test_fastpath_parity its noise projections then sit within ~4e-12 of
// the production solver's, against ~4e-10 at 1e-12 — too close to the
// suite's 1e-9 parity bound to tell a solver defect from oracle slack.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "src/common/error.hpp"
#include "src/linalg/cmatrix.hpp"
#include "src/linalg/eig.hpp"

namespace wivi::oracle {

/// One (p, q) complex Jacobi rotation: zero a(p, q) with the unitary
///   G_pp = c, G_pq = -s, G_qp = s*e^{-j phi}, G_qq = c*e^{-j phi},
/// where a_pq = |a_pq| e^{j phi}; A <- G^H A G, V <- V G. Only the upper
/// triangle of `a` is kept valid; eigenvectors accumulate transposed
/// (`vt` row j = eigenvector j).
inline void jacobi_rotate(linalg::CMatrix& a, linalg::CMatrix& vt,
                          std::size_t p, std::size_t q, cdouble apq, double g) {
  const cdouble phase = apq / g;  // e^{j phi}
  const double alpha = a(p, p).real();
  const double beta = a(q, q).real();
  // Smaller-magnitude root of  g t^2 + (alpha - beta) t - g = 0.
  const double diff = alpha - beta;
  const double t = (diff >= 0.0 ? 1.0 : -1.0) * 2.0 * g /
                   (std::abs(diff) + std::sqrt(diff * diff + 4.0 * g * g));
  const double c = 1.0 / std::sqrt(1.0 + t * t);
  const double s = t * c;
  const cdouble conj_phase = std::conj(phase);
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < p; ++k) {
    const cdouble akp = a(k, p);
    const cdouble akq = a(k, q);
    a(k, p) = c * akp + s * conj_phase * akq;
    a(k, q) = -s * akp + c * conj_phase * akq;
  }
  for (std::size_t k = p + 1; k < q; ++k) {
    const cdouble apk = a(p, k);
    const cdouble akq = a(k, q);
    a(p, k) = c * apk + s * phase * std::conj(akq);
    a(k, q) = -s * std::conj(apk) + c * conj_phase * akq;
  }
  for (std::size_t k = q + 1; k < n; ++k) {
    const cdouble apk = a(p, k);
    const cdouble aqk = a(q, k);
    a(p, k) = c * apk + s * phase * aqk;
    a(q, k) = -s * apk + c * phase * aqk;
  }
  const double new_pp = c * c * alpha + 2.0 * c * s * g + s * s * beta;
  a(p, p) = new_pp;
  a(q, q) = alpha + beta - new_pp;
  a(p, q) = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const cdouble vkp = vt(p, k);
    const cdouble vkq = vt(q, k);
    vt(p, k) = c * vkp + s * conj_phase * vkq;
    vt(q, k) = -s * vkp + c * conj_phase * vkq;
  }
}

/// Eigendecomposition of a Hermitian matrix by cyclic Jacobi: sweep until
/// the off-diagonal Frobenius norm is <= tolerance * ||A||_F. Eigenvalues
/// descending, column j of `vectors` the eigenvector of values[j]. Throws
/// ComputeError if `max_sweeps` sweeps do not converge.
inline linalg::EigResult jacobi_eig(const linalg::CMatrix& a_in,
                                    double tolerance = 1e-15,
                                    int max_sweeps = 60) {
  WIVI_REQUIRE(a_in.rows() == a_in.cols(), "jacobi_eig needs a square matrix");
  const std::size_t n = a_in.rows();
  linalg::CMatrix a(n, n);
  linalg::CMatrix vt = linalg::CMatrix::identity(n);
  double fro2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = a_in(i, i).real();
    fro2 += norm2(a_in(i, i));
    for (std::size_t j = i + 1; j < n; ++j) {
      a(i, j) = 0.5 * (a_in(i, j) + std::conj(a_in(j, i)));
      fro2 += 2.0 * norm2(a(i, j));
    }
  }
  const double target = tolerance * std::max(std::sqrt(fro2), 1e-300);
  const double target2 = target * target;
  // A rotation below this cannot matter: if every off-diagonal entry is
  // under it, the total off-diagonal norm is already <= target.
  const double skip2 = n > 1 ? target2 / static_cast<double>(n * (n - 1)) : 0.0;
  auto off2 = [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) acc += norm2(a(i, j));
    return 2.0 * acc;
  };
  bool converged = n == 1 || off2() <= target2;
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    for (std::size_t p = 0; p + 1 < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) {
        const cdouble apq = a(p, q);
        const double g2 = norm2(apq);
        if (g2 > skip2) jacobi_rotate(a, vt, p, q, apq, std::sqrt(g2));
      }
    converged = off2() <= target2;
  }
  if (!converged) throw ComputeError("jacobi_eig: sweeps exhausted");

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return a(x, x).real() > a(y, y).real();
  });
  linalg::EigResult out;
  out.values.resize(n);
  out.vectors = linalg::CMatrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = a(order[j], order[j]).real();
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = vt(order[j], i);
  }
  return out;
}

}  // namespace wivi::oracle
