#include "src/core/music.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/db.hpp"
#include "src/common/error.hpp"

namespace wivi::core {

// --------------------------------------------------- SlidingCorrelation ---

SlidingCorrelation::SlidingCorrelation(int subarray, int window)
    : wp_(subarray), w_(window), num_subarrays_(window - subarray + 1) {
  WIVI_REQUIRE(subarray >= 2, "sub-array must have at least 2 elements");
  WIVI_REQUIRE(window >= subarray, "window shorter than the smoothing sub-array");
  // sum_ stays empty until the first rebuild(): every use is gated on
  // valid_, and rebuild() reshapes (zero-fills) before accumulating, so an
  // idle instance holds no w'^2 buffer.
}

void SlidingCorrelation::accumulate_outer(const cdouble* x, double sign) {
  // Upper triangle of sign * x x^H; the lower triangle is implied.
  const auto wp = static_cast<std::size_t>(wp_);
  for (std::size_t i = 0; i < wp; ++i) {
    const cdouble xi = sign * x[i];
    cdouble* const row_i = sum_.row(i);
    for (std::size_t j = i; j < wp; ++j) row_i[j] += xi * std::conj(x[j]);
  }
}

void SlidingCorrelation::rebuild(CSpan stream, std::size_t pos) {
  WIVI_REQUIRE(pos + static_cast<std::size_t>(w_) <= stream.size(),
               "window extends past the end of the stream");
  sum_.reshape(static_cast<std::size_t>(wp_), static_cast<std::size_t>(wp_));
  for (int s = 0; s < num_subarrays_; ++s)
    accumulate_outer(stream.data() + pos + static_cast<std::size_t>(s), 1.0);
  pos_ = pos;
  valid_ = true;
  updates_since_rebuild_ = 0;
}

void SlidingCorrelation::advance_to(CSpan stream, std::size_t pos) {
  WIVI_REQUIRE(pos + static_cast<std::size_t>(w_) <= stream.size(),
               "window extends past the end of the stream");
  WIVI_REQUIRE(!valid_ || pos >= pos_, "SlidingCorrelation only slides forward");
  if (!valid_) {
    rebuild(stream, pos);
    return;
  }
  const std::size_t delta = pos - pos_;
  // Each slid sample costs one subtract + one add (2 rank-one updates); a
  // rebuild costs S of them. Also re-anchor periodically: the subtract/add
  // chain accumulates rounding at ~eps per update, so a cheap occasional
  // rebuild keeps the streaming path within ~1e-12 of the direct one.
  if (2 * delta >= static_cast<std::size_t>(num_subarrays_) ||
      updates_since_rebuild_ + 2 * static_cast<long>(delta) > kRebuildEvery) {
    rebuild(stream, pos);
    return;
  }
  const auto S = static_cast<std::size_t>(num_subarrays_);
  for (std::size_t p = pos_; p < pos; ++p) {
    accumulate_outer(stream.data() + p, -1.0);      // drop sub-array at p
    accumulate_outer(stream.data() + p + S, 1.0);   // gain sub-array at p + S
  }
  pos_ = pos;
  updates_since_rebuild_ += 2 * static_cast<long>(delta);
}

void SlidingCorrelation::rebase(std::size_t drop) {
  if (drop == 0) return;
  WIVI_REQUIRE(valid_, "rebase() before the first window");
  WIVI_REQUIRE(drop <= pos_, "cannot rebase past the current window start");
  pos_ -= drop;
}

void SlidingCorrelation::correlation_into(linalg::CMatrix& r) const {
  WIVI_REQUIRE(valid_, "SlidingCorrelation has no window yet");
  const auto wp = static_cast<std::size_t>(wp_);
  if (r.rows() != wp || r.cols() != wp) r.reshape(wp, wp);
  const double inv = 1.0 / static_cast<double>(num_subarrays_);
  for (std::size_t i = 0; i < wp; ++i) {
    const cdouble* const src_i = sum_.row(i);
    cdouble* const dst_i = r.row(i);
    dst_i[i] = src_i[i] * inv;
    for (std::size_t j = i + 1; j < wp; ++j) {
      const cdouble v = src_i[j] * inv;
      dst_i[j] = v;
      r(j, i) = std::conj(v);
    }
  }
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
  WIVI_REQUIRE(window.size() >= wp,
               "window shorter than the smoothing sub-array");
  const std::size_t num_subarrays = window.size() - wp + 1;
  r.reshape(wp, wp);
  for (std::size_t s = 0; s < num_subarrays; ++s) {
    // Accumulate the rank-one term sub * sub^H without materialising it;
    // only the upper triangle — the lower is its conjugate mirror.
    const cdouble* const sub = window.data() + s;
    for (std::size_t i = 0; i < wp; ++i) {
      const cdouble si = sub[i];
      cdouble* const row_i = r.row(i);
      for (std::size_t j = i; j < wp; ++j) row_i[j] += si * std::conj(sub[j]);
    }
  }
  const double inv = 1.0 / static_cast<double>(num_subarrays);
  for (std::size_t i = 0; i < wp; ++i) {
    cdouble* const row_i = r.row(i);
    row_i[i] *= inv;
    for (std::size_t j = i + 1; j < wp; ++j) {
      row_i[j] *= inv;
      r(j, i) = std::conj(row_i[j]);
    }
  }
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
  auto* const c = reinterpret_cast<double*>(ws.coef.data());
  out.resize(angles_deg.size());
  for (std::size_t ai = 0; ai < angles_deg.size(); ++ai) {
    const auto* const a = reinterpret_cast<const double*>(steering_.row(ai));
    // c = E_s^H a. Four partial sums per product break the serial add
    // chain (the operands sit in L1; the chain latency is the bottleneck).
    double c2 = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const double* const e = sig + 2 * j * wp;
      double re[4] = {0.0, 0.0, 0.0, 0.0};
      double im[4] = {0.0, 0.0, 0.0, 0.0};
      std::size_t i = 0;
      for (; i + 4 <= wp; i += 4)
        for (std::size_t l = 0; l < 4; ++l) {
          const std::size_t x = 2 * (i + l);
          re[l] += e[x] * a[x] + e[x + 1] * a[x + 1];
          im[l] += e[x] * a[x + 1] - e[x + 1] * a[x];
        }
      for (; i < wp; ++i) {
        re[0] += e[2 * i] * a[2 * i] + e[2 * i + 1] * a[2 * i + 1];
        im[0] += e[2 * i] * a[2 * i + 1] - e[2 * i + 1] * a[2 * i];
      }
      const double cr = (re[0] + re[1]) + (re[2] + re[3]);
      const double ci = (im[0] + im[1]) + (im[2] + im[3]);
      c[2 * j] = cr;
      c[2 * j + 1] = ci;
      c2 += cr * cr + ci * ci;
    }
    double proj = 1.0 - c2;
    if (proj < kScanRecomputeBelow) {
      // Near a peak: the residual a - E_s c directly, no cancellation.
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
