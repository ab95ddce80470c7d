#include "src/core/music.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/db.hpp"
#include "src/common/error.hpp"

namespace wivi::core {

namespace {

/// out[d..d+L) = sum_{s < S} h[s] h*[s+d+l] for l < L, each accumulated
/// in s order in registers (h and out as (re, im) pairs).
template <std::size_t L>
void lag_sums(const double* h, std::size_t S, std::size_t d, double* out) {
  double re[L] = {};
  double im[L] = {};
  for (std::size_t s = 0; s < S; ++s) {
    const double ar = h[2 * s];
    const double ai = h[2 * s + 1];
    const double* const b = h + 2 * (s + d);
    for (std::size_t l = 0; l < L; ++l) {
      re[l] += ar * b[2 * l] + ai * b[2 * l + 1];
      im[l] += ai * b[2 * l] - ar * b[2 * l + 1];
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    out[2 * (d + l)] = re[l];
    out[2 * (d + l) + 1] = im[l];
  }
}

/// The one kernel for Eq. 5.2's un-normalised sub-array sum of a window h
/// of w samples, upper triangle only:
///   sum[i][j] = sum_{s < S} h[s+i] h*[s+j],   S = w - w' + 1.
/// Shifting both indices by one drops sub-array 0's term and gains the
/// term of the sub-array one past the last, so the sum has displacement
/// structure (Kailath & Sayed, SIAM Review 1995):
///   sum[i+1][j+1] = sum[i][j] - h[i] h*[j] + h[S+i] h*[S+j].
/// Row 0 takes w' dot products of length S and the recurrence fills the
/// rest of the triangle: ~3.2k complex multiply-adds at w = 100, w' = 32.
/// The result is a function of the window's samples alone, which is what
/// makes every image path agree bit for bit. The lower triangle is left
/// as it was. Complex arithmetic is spelled out on (re, im) pairs, as in
/// the scan.
void subarray_sum(CSpan window, std::size_t wp, linalg::CMatrix& sum) {
  WIVI_REQUIRE(window.size() >= wp,
               "window shorter than the smoothing sub-array");
  const std::size_t S = window.size() - wp + 1;
  if (sum.rows() != wp || sum.cols() != wp) sum.reshape(wp, wp);
  const auto* const h = reinterpret_cast<const double*>(window.data());

  // Row 0: sum[0][d] = sum_s h[s] h*[s+d], four lags at a time.
  auto* const row0 = reinterpret_cast<double*>(sum.row(0));
  std::size_t d = 0;
  for (; d + 4 <= wp; d += 4) lag_sums<4>(h, S, d, row0);
  for (; d < wp; ++d) lag_sums<1>(h, S, d, row0);

  // Rows 1..w'-1 from the row above. The lost term goes first: at S = 1
  // it cancels the entry above exactly.
  for (std::size_t i = 1; i < wp; ++i) {
    const auto* const up = reinterpret_cast<const double*>(sum.row(i - 1));
    auto* const row = reinterpret_cast<double*>(sum.row(i));
    const double lr = h[2 * (i - 1)];          // lost: h[i-1]
    const double li = h[2 * (i - 1) + 1];
    const double gr = h[2 * (S + i - 1)];      // gained: h[S+i-1]
    const double gi = h[2 * (S + i - 1) + 1];
    const double* const l = h;                 // h*[j-1] at l[2(j-1)]
    const double* const g = h + 2 * S;         // h*[S+j-1] at g[2(j-1)]
    for (std::size_t j = i; j < wp; ++j) {
      const std::size_t x = 2 * (j - 1);
      row[2 * j] = (up[x] - (lr * l[x] + li * l[x + 1])) +
                   (gr * g[x] + gi * g[x + 1]);
      row[2 * j + 1] = (up[x + 1] - (li * l[x] - lr * l[x + 1])) +
                       (gi * g[x] - gr * g[x + 1]);
    }
  }
}

/// r = sum / S with the lower triangle mirrored from sum's upper one.
/// `sum` and `r` may be the same matrix.
void normalise_hermitian(const linalg::CMatrix& sum, std::size_t num_subarrays,
                         linalg::CMatrix& r) {
  const std::size_t wp = sum.rows();
  if (r.rows() != wp || r.cols() != wp) r.reshape(wp, wp);
  const double inv = 1.0 / static_cast<double>(num_subarrays);
  for (std::size_t i = 0; i < wp; ++i) {
    const cdouble* const src_i = sum.row(i);
    cdouble* const dst_i = r.row(i);
    dst_i[i] = src_i[i] * inv;
    for (std::size_t j = i + 1; j < wp; ++j) {
      const cdouble v = src_i[j] * inv;
      dst_i[j] = v;
      r(j, i) = std::conj(v);
    }
  }
}

}  // namespace

// --------------------------------------------------- SlidingCorrelation ---

SlidingCorrelation::SlidingCorrelation(int subarray, int window)
    : wp_(subarray), w_(window) {
  WIVI_REQUIRE(subarray >= 2, "sub-array must have at least 2 elements");
  WIVI_REQUIRE(window >= subarray, "window shorter than the smoothing sub-array");
  // sum_ stays empty until the first rebuild(), so an idle instance holds
  // no w'^2 buffer.
}

void SlidingCorrelation::rebuild(CSpan stream, std::size_t pos) {
  const auto w = static_cast<std::size_t>(w_);
  WIVI_REQUIRE(pos + w <= stream.size(),
               "window extends past the end of the stream");
  subarray_sum(stream.subspan(pos, w), static_cast<std::size_t>(wp_), sum_);
  valid_ = true;
}

void SlidingCorrelation::correlation_into(linalg::CMatrix& r) const {
  WIVI_REQUIRE(valid_, "SlidingCorrelation has no window yet");
  normalise_hermitian(sum_, static_cast<std::size_t>(w_ - wp_ + 1), r);
}

// -------------------------------------------------------- SmoothedMusic ---

MusicScratch& music_scratch() noexcept {
  thread_local MusicScratch scratch;
  return scratch;
}

SmoothedMusic::SmoothedMusic(MusicConfig cfg) : cfg_(cfg) {
  WIVI_REQUIRE(cfg_.subarray >= 2, "sub-array must have at least 2 elements");
  WIVI_REQUIRE(cfg_.max_sources >= 1, "max_sources must be >= 1");
  WIVI_REQUIRE(cfg_.max_sources < cfg_.subarray,
               "max_sources must leave room for noise eigenvectors");
  WIVI_REQUIRE(cfg_.signal_threshold_db > 0.0, "signal threshold must be positive");
}

linalg::CMatrix SmoothedMusic::smoothed_correlation(CSpan window) const {
  linalg::CMatrix r;
  smoothed_correlation_into(window, r);
  return r;
}

void SmoothedMusic::smoothed_correlation_into(CSpan window,
                                              linalg::CMatrix& r) const {
  const auto wp = static_cast<std::size_t>(cfg_.subarray);
  subarray_sum(window, wp, r);
  normalise_hermitian(r, window.size() - wp + 1, r);
}

int SmoothedMusic::estimate_model_order(RSpan eigenvalues) const {
  WIVI_REQUIRE(eigenvalues.size() >= 2, "need at least two eigenvalues");
  // Noise floor: median of the smallest half of the (descending)
  // eigenvalues — robust even when several strong sources leak into the
  // lower half. nth_element on a reused scratch buffer instead of a fresh
  // copy-and-sort per call.
  const std::size_t n = eigenvalues.size();
  const std::size_t half = n / 2;
  RVec& order_tail = music_scratch().order_tail;
  order_tail.assign(eigenvalues.begin() + static_cast<std::ptrdiff_t>(half),
                    eigenvalues.end());
  const auto mid = order_tail.begin() +
                   static_cast<std::ptrdiff_t>(order_tail.size() / 2);
  std::nth_element(order_tail.begin(), mid, order_tail.end());
  const double floor = std::max(*mid, 1e-300);
  const double threshold = floor * from_db(cfg_.signal_threshold_db);

  int order = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (eigenvalues[i] > threshold)
      ++order;
    else
      break;  // eigenvalues are sorted; the first miss ends the signal set
  }
  order = std::clamp(order, 1, cfg_.max_sources);
  // Keep at least one noise eigenvector for the null-space projection.
  order = std::min(order, static_cast<int>(n) - 1);
  return order;
}

RVec SmoothedMusic::pseudospectrum(CSpan window, RSpan angles_deg,
                                   int* model_order_out) const {
  RVec spectrum;
  pseudospectrum_into(window, angles_deg, spectrum, model_order_out);
  return spectrum;
}

void SmoothedMusic::pseudospectrum_into(CSpan window, RSpan angles_deg,
                                        RVec& out, int* model_order_out) const {
  linalg::CMatrix& r = music_scratch().r;
  smoothed_correlation_into(window, r);
  pseudospectrum_from_correlation_into(r, angles_deg, out, model_order_out);
}

void SmoothedMusic::pseudospectrum_from_correlation_into(
    const linalg::CMatrix& r, RSpan angles_deg, RVec& out,
    int* model_order_out) const {
  MusicScratch& ws = music_scratch();
  const RSpan values = linalg::hermitian_eigenvalues(r, ws.eig_ws);
  const int order = estimate_model_order(values);
  if (model_order_out != nullptr) *model_order_out = order;

  // Only the k signal eigenvectors are formed, as contiguous rows. Both
  // buffers reserve the max_sources worst case up front, so a model order
  // that grows between calls never reallocates.
  const std::size_t wp = r.rows();
  const auto k = static_cast<std::size_t>(order);
  const auto max_k = static_cast<std::size_t>(cfg_.max_sources);
  if (ws.signal.capacity() < max_k * wp) ws.signal.reserve(max_k * wp);
  if (ws.coef.capacity() < max_k) ws.coef.reserve(max_k);
  ws.signal.resize(k * wp);
  ws.coef.resize(k);
  linalg::leading_eigenvectors(ws.eig_ws, k, ws.signal);

  // Unit-norm steering so the pseudospectrum scale is grid-independent.
  steering_.ensure(cfg_.isar, angles_deg, wp, /*unit_norm=*/true);

  // Complex arithmetic spelled out on (re, im) pairs: the same IEEE
  // operations as std::complex without its per-multiply NaN branch.
  const auto* const sig = reinterpret_cast<const double*>(ws.signal.data());

  // The lag sums q_d = sum_i P[i][i+d] of the projector P = E_s E_s^H,
  // accumulated signal vector by vector, row by row.
  ws.lags.assign(2 * wp, 0.0);
  double* const q = ws.lags.data();
  for (std::size_t j = 0; j < k; ++j) {
    const double* const e = sig + 2 * j * wp;
    for (std::size_t i = 0; i < wp; ++i) {
      const double er = e[2 * i];
      const double ei = e[2 * i + 1];
      const double* const f = e + 2 * i;  // e[i + d] at f[2d]
      for (std::size_t d = 0; d < wp - i; ++d) {  // q_d += e[i] e*[i+d]
        q[2 * d] += er * f[2 * d] + ei * f[2 * d + 1];
        q[2 * d + 1] += ei * f[2 * d] - er * f[2 * d + 1];
      }
    }
  }
  // ||E_s^H a||^2 = (q_0 + 2 Re sum_{d>=1} q_d e^{jd phi}) / w' with
  // e^{jd phi} = sqrt(w') a_d, so proj = level - <t, a> over the real
  // (re, im) pairs d >= 1, with t_d = (2 / sqrt(w')) (Re q_d, -Im q_d).
  const double level = 1.0 - q[0] / static_cast<double>(wp);
  const double scale = 2.0 / std::sqrt(static_cast<double>(wp));
  for (std::size_t d = 1; d < wp; ++d) {
    q[2 * d] *= scale;
    q[2 * d + 1] *= -scale;
  }

  auto* const c = reinterpret_cast<double*>(ws.coef.data());
  out.resize(angles_deg.size());
  for (std::size_t ai = 0; ai < angles_deg.size(); ++ai) {
    const auto* const a = reinterpret_cast<const double*>(steering_.row(ai));
    // Four partial sums break the serial add chain (the operands sit in
    // L1; the chain latency is the bottleneck).
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t x = 2;
    for (; x + 4 <= 2 * wp; x += 4)
      for (std::size_t l = 0; l < 4; ++l) acc[l] += q[x + l] * a[x + l];
    for (; x < 2 * wp; ++x) acc[0] += q[x] * a[x];
    double proj = level - ((acc[0] + acc[1]) + (acc[2] + acc[3]));
    if (proj < kScanRecomputeBelow) {
      // Near a peak: c = E_s^H a, then the residual a - E_s c directly,
      // no cancellation.
      for (std::size_t j = 0; j < k; ++j) {
        const double* const e = sig + 2 * j * wp;
        double re[4] = {0.0, 0.0, 0.0, 0.0};
        double im[4] = {0.0, 0.0, 0.0, 0.0};
        std::size_t i = 0;
        for (; i + 4 <= wp; i += 4)
          for (std::size_t l = 0; l < 4; ++l) {
            const std::size_t y = 2 * (i + l);
            re[l] += e[y] * a[y] + e[y + 1] * a[y + 1];
            im[l] += e[y] * a[y + 1] - e[y + 1] * a[y];
          }
        for (; i < wp; ++i) {
          re[0] += e[2 * i] * a[2 * i] + e[2 * i + 1] * a[2 * i + 1];
          im[0] += e[2 * i] * a[2 * i + 1] - e[2 * i + 1] * a[2 * i];
        }
        c[2 * j] = (re[0] + re[1]) + (re[2] + re[3]);
        c[2 * j + 1] = (im[0] + im[1]) + (im[2] + im[3]);
      }
      proj = 0.0;
      for (std::size_t i = 0; i < wp; ++i) {
        double rr = a[2 * i];
        double ri = a[2 * i + 1];
        for (std::size_t j = 0; j < k; ++j) {
          const double* const e = sig + 2 * (j * wp + i);
          rr -= c[2 * j] * e[0] - c[2 * j + 1] * e[1];
          ri -= c[2 * j] * e[1] + c[2 * j + 1] * e[0];
        }
        proj += rr * rr + ri * ri;
      }
    }
    out[ai] = 1.0 / std::max(proj, 1e-12);
  }
}

void SmoothedMusic::prewarm(RSpan angles_deg) const {
  steering_.ensure(cfg_.isar, angles_deg,
                   static_cast<std::size_t>(cfg_.subarray),
                   /*unit_norm=*/true);
}

}  // namespace wivi::core
