#include "src/linalg/eig.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "src/common/error.hpp"

namespace wivi::linalg {
namespace {

/// QL iterations allowed, per eigenvalue on average, before giving up
/// (LAPACK's dsteqr budget; 1-2 is typical).
constexpr int kMaxQlIterationsPerEigenvalue = 30;

// The inner loops spell complex arithmetic out on the interleaved
// (re, im) doubles ([complex.numbers] guarantees that layout): the same
// IEEE operations as std::complex, without the NaN-recovery branch GCC
// attaches to every complex multiply, which keeps them vectorisable.
double* ri(cdouble* p) noexcept { return reinterpret_cast<double*>(p); }

/// Check squareness and Hermitian symmetry, and copy the upper triangle
/// of `a_in` (diagonal forced real, tiny defects averaged away) into the
/// working matrix `w`.
void load_upper(const CMatrix& a_in, CMatrix& w) {
  WIVI_REQUIRE(a_in.rows() == a_in.cols(), "hermitian_eig needs a square matrix");
  WIVI_REQUIRE(a_in.rows() > 0, "hermitian_eig needs a non-empty matrix");
  const std::size_t n = a_in.rows();
  // Frobenius norm and Hermitian defect in one pass (squared comparisons,
  // no per-element sqrt).
  double fro2 = 0.0;
  double defect2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const cdouble* const row_i = a_in.row(i);
    fro2 += norm2(row_i[i]);
    defect2 = std::max(defect2, row_i[i].imag() * row_i[i].imag() * 4.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      const cdouble aij = row_i[j];
      const cdouble aji = a_in(j, i);
      fro2 += norm2(aij) + norm2(aji);
      defect2 = std::max(defect2, norm2(aij - std::conj(aji)));
    }
  }
  WIVI_REQUIRE(defect2 <= 1e-18 * std::max(fro2, 1.0),
               "hermitian_eig input is not Hermitian");

  w.reshape(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const cdouble* const src_i = a_in.row(i);
    cdouble* const dst_i = w.row(i);
    dst_i[i] = src_i[i].real();
    for (std::size_t j = i + 1; j < n; ++j)
      dst_i[j] = 0.5 * (src_i[j] + std::conj(a_in(j, i)));
  }
}

/// Householder reduction of the Hermitian matrix held in the upper
/// triangle of ws.a to a real symmetric tridiagonal T (ws.diag, ws.off):
/// A = Q D T D^H Q^H. Step p annihilates column p below its subdiagonal
/// with the Hermitian unitary H_p = I - u u^H / h (u_0 = x_0 + e^{j arg
/// x_0} ||x||, so H_p x = -e^{j arg x_0} ||x|| e_0 without cancellation);
/// u is kept in row p of ws.a, h in ws.h[p]. The complex subdiagonal c_p
/// this leaves is made real by the phase recursion phi_{p+1} = phi_p c_p
/// / |c_p| (ws.phase), giving off-diagonal |c_p|.
void tridiagonalize(EigWorkspace& ws) {
  CMatrix& w = ws.a;
  const std::size_t n = w.rows();
  ws.h.assign(n, 0.0);
  ws.off.assign(n, 0.0);
  ws.diag.resize(n);
  ws.phase.resize(n);
  ws.work.resize(n);
  ws.phase[0] = 1.0;

  for (std::size_t p = 0; p + 1 < n; ++p) {
    const std::size_t m = n - p - 1;  // length of the column below (p, p)
    // Row p right of the diagonal is conj(x), x = column p below it.
    double* const y = ri(w.row(p) + p + 1);
    double sigma = 0.0;
    for (std::size_t j = 1; j < m; ++j)
      sigma += y[2 * j] * y[2 * j] + y[2 * j + 1] * y[2 * j + 1];

    cdouble sub{y[0], -y[1]};  // c_p = x_0 when no reflector is needed
    if (sigma > 0.0) {
      const double alpha_re = y[0];
      const double alpha_im = -y[1];
      const double abs_alpha = std::sqrt(alpha_re * alpha_re + alpha_im * alpha_im);
      const double r = std::sqrt(abs_alpha * abs_alpha + sigma);
      double ph_re = 1.0;
      double ph_im = 0.0;
      if (abs_alpha > 0.0) {
        ph_re = alpha_re / abs_alpha;
        ph_im = alpha_im / abs_alpha;
      }
      const double h = r * r + r * abs_alpha;
      ws.h[p] = h;
      sub = cdouble{-ph_re * r, -ph_im * r};
      // u overwrites conj(x) in row p.
      double* const u = y;
      u[0] = alpha_re + ph_re * r;
      u[1] = alpha_im + ph_im * r;
      for (std::size_t j = 1; j < m; ++j) u[2 * j + 1] = -u[2 * j + 1];

      // g = B u / h over the trailing block B = A(p+1.., p+1..), whose
      // upper triangle is valid: row i contributes B_ii u_i + sum_{j>i}
      // B_ij u_j to g_i and conj(B_ij) u_i to every g_j, j > i.
      double* const g = ri(ws.work.data());
      std::fill(g, g + 2 * m, 0.0);
      for (std::size_t i = 0; i < m; ++i) {
        const double* const b = ri(w.row(p + 1 + i) + p + 1);
        const double ur = u[2 * i];
        const double ui = u[2 * i + 1];
        double acc_re = b[2 * i] * ur;
        double acc_im = b[2 * i] * ui;
        for (std::size_t j = i + 1; j < m; ++j) {
          const double br = b[2 * j];
          const double bi = b[2 * j + 1];
          acc_re += br * u[2 * j] - bi * u[2 * j + 1];
          acc_im += br * u[2 * j + 1] + bi * u[2 * j];
          g[2 * j] += br * ur + bi * ui;
          g[2 * j + 1] += br * ui - bi * ur;
        }
        g[2 * i] += acc_re;
        g[2 * i + 1] += acc_im;
      }
      // q = g - K u with K = u^H g / (2h) (real: B is Hermitian).
      const double inv_h = 1.0 / h;
      double ug = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        g[2 * i] *= inv_h;
        g[2 * i + 1] *= inv_h;
        ug += u[2 * i] * g[2 * i] + u[2 * i + 1] * g[2 * i + 1];
      }
      const double k = 0.5 * ug * inv_h;
      double* const q = g;
      for (std::size_t i = 0; i < 2 * m; ++i) q[i] -= k * u[i];

      // B <- H B H = B - q u^H - u q^H (upper triangle; real diagonal).
      for (std::size_t i = 0; i < m; ++i) {
        double* const b = ri(w.row(p + 1 + i) + p + 1);
        const double qr = q[2 * i];
        const double qi = q[2 * i + 1];
        const double ur = u[2 * i];
        const double ui = u[2 * i + 1];
        b[2 * i] -= 2.0 * (qr * ur + qi * ui);
        for (std::size_t j = i + 1; j < m; ++j) {
          b[2 * j] -= qr * u[2 * j] + qi * u[2 * j + 1] +
                      ur * q[2 * j] + ui * q[2 * j + 1];
          b[2 * j + 1] -= qi * u[2 * j] - qr * u[2 * j + 1] +
                          ui * q[2 * j] - ur * q[2 * j + 1];
        }
      }
    }

    const double abs_sub = std::sqrt(norm2(sub));
    ws.off[p] = abs_sub;
    ws.phase[p + 1] =
        abs_sub > 0.0 ? ws.phase[p] * (sub / abs_sub) : ws.phase[p];
  }
  for (std::size_t i = 0; i < n; ++i) ws.diag[i] = w(i, i).real();
}

/// Implicit-shift QL on the symmetric tridiagonal (ws.diag, ws.off),
/// logging every Givens pair into ws.givens and every sweep into
/// ws.sweeps for replay_rotations(). On return ws.diag holds the unsorted
/// eigenvalues.
///
/// A coupling is negligible once it is below eps * ||T|| (EISPACK tql2's
/// test, with the norm taken over the whole matrix). The reduction has
/// already perturbed every entry by that much, so a tighter test buys no
/// accuracy. A test relative to the neighbouring diagonal instead (tqli's)
/// spends extra sweeps resolving a degenerate noise floor far below
/// ||T|| — exactly the shape of a MUSIC correlation matrix — and ran past
/// tqli's 30-iteration cap on a rank-3-plus-noise example.
void tridiagonal_ql(EigWorkspace& ws) {
  const std::size_t n = ws.diag.size();
  double* const d = ws.diag.data();
  double* const e = ws.off.data();  // e[i] couples i and i+1; e[n-1] = 0
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    norm = std::max(norm, std::abs(d[i]) + std::abs(e[i]));
  const double negligible = std::numeric_limits<double>::epsilon() * norm;

  std::size_t budget = kMaxQlIterationsPerEigenvalue * n;
  // The log's worst case is every budgeted sweep chasing a bulge across
  // the whole matrix. Reserved once per size, so no input can make a
  // warm workspace allocate.
  ws.sweeps.reserve(budget);
  ws.givens.reserve(2 * budget * (n - 1));
  ws.sweeps.clear();
  ws.givens.clear();
  for (std::size_t l = 0; l < n; ++l) {
    for (;;) {
      // Smallest m >= l whose coupling to m+1 is negligible.
      std::size_t m = l;
      while (m + 1 < n && std::abs(e[m]) > negligible) ++m;
      if (m == l) break;
      if (budget-- == 0)
        throw ComputeError("hermitian_eig: QL iterations exhausted");

      // Wilkinson-style shift from the leading 2x2, then chase the bulge
      // from m up to l with Givens rotations.
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = std::sqrt(g * g + 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      bool deflated = false;
      QlSweep& sweep = ws.sweeps.emplace_back();
      sweep.top = m;
      for (std::size_t i = m; i-- > l;) {
        const double f = s * e[i];
        const double b = c * e[i];
        r = std::sqrt(f * f + g * g);
        e[i + 1] = r;
        if (r == 0.0) {  // underflow: split the matrix and restart
          d[i + 1] -= p;
          e[m] = 0.0;
          deflated = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        ws.givens.push_back(c);
        ws.givens.push_back(s);
        ++sweep.count;
      }
      if (deflated) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }
}

/// z = G_1 G_2 ... G_N x for B vectors stored interleaved, x[i B + b] =
/// entry i of vector b, where G_t is QL's t-th logged rotation, acting on
/// (i, i + 1) as [c s; -s c]: the log is read backwards, G_N first. A
/// sweep's rotations chain down one index at a time, so replayed in
/// reverse they walk up, and the entry each one passes on to the next
/// stays in a register. Lane b sees the same operations whatever B is,
/// which keeps leading_eigenvectors() rows independent of k.
template <std::size_t B>
void replay_rotations(const EigWorkspace& ws, double* x) {
  const double* cs = ws.givens.data() + ws.givens.size();
  for (auto sweep = ws.sweeps.rbegin(); sweep != ws.sweeps.rend(); ++sweep) {
    const std::size_t lo = sweep->top - sweep->count;
    double carry[B];  // entry i of each vector, mid-update
    for (std::size_t b = 0; b < B; ++b) carry[b] = x[lo * B + b];
    for (std::size_t i = lo; i < sweep->top; ++i) {
      cs -= 2;
      const double c = cs[0];
      const double s = cs[1];
      double* const xi = x + i * B;
      for (std::size_t b = 0; b < B; ++b) {
        const double next = xi[B + b];
        xi[b] = c * carry[b] + s * next;
        carry[b] = c * next - s * carry[b];
      }
    }
    for (std::size_t b = 0; b < B; ++b) x[sweep->top * B + b] = carry[b];
  }
}

/// Vectors replayed together: eight independent carries keep both
/// floating-point ports busy (a lone carry waits on a multiply and a
/// subtract per rotation) and still fit in registers.
constexpr std::size_t kReplayBlock = 8;
using ReplayFn = void (*)(const EigWorkspace&, double*);
constexpr ReplayFn kReplay[kReplayBlock + 1] = {
    nullptr,
    replay_rotations<1>, replay_rotations<2>, replay_rotations<3>,
    replay_rotations<4>, replay_rotations<5>, replay_rotations<6>,
    replay_rotations<7>, replay_rotations<8>};

}  // namespace

RSpan hermitian_eigenvalues(const CMatrix& a_in, EigWorkspace& ws) {
  load_upper(a_in, ws.a);
  const std::size_t n = ws.a.rows();
  tridiagonalize(ws);
  tridiagonal_ql(ws);

  // Descending order; ties broken by index so the permutation is a pure
  // function of the eigenvalues.
  ws.order.resize(n);
  std::iota(ws.order.begin(), ws.order.end(), std::size_t{0});
  const RVec& d = ws.diag;
  std::sort(ws.order.begin(), ws.order.end(), [&](std::size_t x, std::size_t y) {
    return d[x] > d[y] || (d[x] == d[y] && x < y);
  });
  ws.values.resize(n);
  for (std::size_t j = 0; j < n; ++j) ws.values[j] = d[ws.order[j]];
  return ws.values;
}

void leading_eigenvectors(EigWorkspace& ws, std::size_t k,
                          std::span<cdouble> out) {
  const std::size_t n = ws.values.size();
  WIVI_REQUIRE(k <= n, "more eigenvectors requested than the matrix has");
  WIVI_REQUIRE(out.size() >= k * n, "eigenvector buffer too small");
  ws.replay.resize(kReplayBlock * n);
  double* const x = ws.replay.data();
  for (std::size_t j0 = 0; j0 < k; j0 += kReplayBlock) {
    const std::size_t block = std::min(kReplayBlock, k - j0);
    std::fill(x, x + block * n, 0.0);
    for (std::size_t b = 0; b < block; ++b) x[ws.order[j0 + b] * block + b] = 1.0;
    kReplay[block](ws, x);
    for (std::size_t b = 0; b < block; ++b) {
      cdouble* const v = out.data() + (j0 + b) * n;
      for (std::size_t i = 0; i < n; ++i) v[i] = ws.phase[i] * x[i * block + b];
      // v = H_0 H_1 ... H_{n-2} D z: the last reflector applies first.
      for (std::size_t p = n - 1; p-- > 0;) {
        if (ws.h[p] == 0.0) continue;
        const std::size_t m = n - p - 1;
        const double* const u = ri(ws.a.row(p) + p + 1);
        double* const y = ri(v + p + 1);
        double s_re = 0.0;
        double s_im = 0.0;
        for (std::size_t i = 0; i < m; ++i) {  // s = u^H y
          s_re += u[2 * i] * y[2 * i] + u[2 * i + 1] * y[2 * i + 1];
          s_im += u[2 * i] * y[2 * i + 1] - u[2 * i + 1] * y[2 * i];
        }
        const double f_re = s_re / ws.h[p];
        const double f_im = s_im / ws.h[p];
        for (std::size_t i = 0; i < m; ++i) {  // y -= (s / h) u
          y[2 * i] -= f_re * u[2 * i] - f_im * u[2 * i + 1];
          y[2 * i + 1] -= f_re * u[2 * i + 1] + f_im * u[2 * i];
        }
      }
    }
  }
}

EigResult hermitian_eig(const CMatrix& a) {
  EigResult result;
  EigWorkspace ws;
  hermitian_eig_into(a, result, ws);
  return result;
}

void hermitian_eig_into(const CMatrix& a, EigResult& out, EigWorkspace& ws) {
  const RSpan values = hermitian_eigenvalues(a, ws);
  const std::size_t n = values.size();
  out.values.assign(values.begin(), values.end());
  out.vectors.reshape(n, n);
  // Row j of the back-transform is eigenvector j; transpose in place so
  // it becomes column j.
  leading_eigenvectors(ws, n, std::span<cdouble>(out.vectors.data(), n * n));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      std::swap(out.vectors(i, j), out.vectors(j, i));
}

}  // namespace wivi::linalg
