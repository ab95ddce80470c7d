/// @file
/// Smoothed MUSIC over the emulated ISAR array (paper §5.2, Eqs. 5.2-5.3).
///
/// Reflections from multiple humans are correlated (they all reflect the
/// same transmitted signal), which defeats plain MUSIC; spatial smoothing
/// (Shan, Wax & Kailath 1985) de-correlates them by averaging correlation
/// matrices over overlapping sub-arrays of size w' < w before the eigen
/// decomposition. The pseudospectrum
///   A'[theta] = 1 / sum_j |a(theta)^H u_j|^2        (noise eigenvectors u_j)
///             = 1 / (1 - ||E_s^H a(theta)||^2)       (signal eigenvectors E_s)
///             = 1 / (1 - (q_0 + 2 Re sum_{d>=1} q_d e^{jd phi}) / w')
/// spikes at the moving humans' spatial angles and at the DC (theta = 0)
/// residual from imperfect nulling. The first two forms agree because the
/// eigenvectors are orthonormal and the steering vectors unit-norm. The
/// third holds because the emulated array is uniform: a_i(theta) =
/// e^{j i phi} / sqrt(w') with phi the steering phase step, so
/// ||E_s^H a||^2 = a^H P a for the projector P = E_s E_s^H is a real trig
/// polynomial in phi whose coefficients are P's diagonal sums q_d =
/// sum_i P[i][i+d]. The implementation needs only the k ~ 2-4 signal
/// eigenvectors (not the w' - k ~ 28 noise ones), forms q once per
/// column (k w'^2 / 2 complex multiply-adds) and then evaluates each
/// angle as one real dot product of length 2(w' - 1) with its steering
/// row, since e^{jd phi} = sqrt(w') a_d.
///
/// The evaluation path runs one pseudospectrum per sliding-window position
/// over whole traces (§7.1: ~1 s of post-processing per 25 s trace), so the
/// implementation is built around reuse: a unit-norm steering-matrix cache
/// shared across calls, an eigensolver that forms only the signal
/// eigenvectors (QL's logged rotations replayed onto k unit vectors) as
/// contiguous rows, and per-thread workspaces.
/// The smoothed correlation itself has one kernel, which exploits the
/// sum's displacement structure and reads only the window it is given, so
/// batch, streaming and parallel image columns agree bit for bit.
#pragma once

#include "src/core/isar.hpp"
#include "src/linalg/cmatrix.hpp"
#include "src/linalg/eig.hpp"

namespace wivi::core {

/// Configuration of the smoothed-MUSIC estimator.
struct MusicConfig {
  /// ISAR emulated-array geometry (wavelength, speed, window, period).
  IsarConfig isar;
  /// Sub-array length w' used for spatial smoothing. Must be <= the window
  /// passed to pseudospectrum(); 32 trades angular resolution against
  /// de-correlation across the w = 100 window.
  int subarray = 32;
  /// Largest number of signal eigenvectors we will ever attribute to
  /// sources (humans + DC). A closed conference room holds at most a few.
  int max_sources = 16;
  /// An eigenvalue is "signal" if it exceeds the noise-floor estimate by
  /// this many dB (the floor is the median of the smallest half of the
  /// eigenvalues).
  double signal_threshold_db = 12.0;
};

/// The Eq. 5.2 smoothed correlation of a w-sample window at an offset
/// into a channel-estimate stream. Every position is computed from that
/// window alone by the displacement kernel that also serves
/// SmoothedMusic::smoothed_correlation_into(), so positions may be visited
/// in any order and the result never depends on which were visited
/// before: rebuild() and advance_to() are the same operation.
class SlidingCorrelation {
 public:
  /// Set up for sub-arrays of length `subarray` inside a sliding window of
  /// `window` samples (no stream attached yet).
  SlidingCorrelation(int subarray, int window);

  /// Compute the sub-array sum of the window at stream offset `pos`
  /// (covers stream[pos, pos + window)).
  void rebuild(CSpan stream, std::size_t pos);

  /// Move the window to offset `pos`, in either direction; the same
  /// computation as rebuild().
  void advance_to(CSpan stream, std::size_t pos) { rebuild(stream, pos); }

  /// Normalised smoothed correlation (w' x w', Hermitian) of the current
  /// window; reuses r's storage, no allocation on repeated calls.
  void correlation_into(linalg::CMatrix& r) const;

 private:
  int wp_;               // sub-array length w'
  int w_;                // window length
  bool valid_ = false;
  linalg::CMatrix sum_;  // upper triangle of the un-normalised sub-array sum
};

/// Per-thread mutable MUSIC workspace: eigensolver buffers, the
/// contiguous signal-subspace rows, and correlation/model-order scratch.
/// Every member is fully overwritten by each estimation call, so one
/// workspace per thread serves any number of SmoothedMusic instances —
/// this is what lets a thousand idle sessions share a handful of
/// workspaces instead of each holding ~20 KB of warm buffers.
struct MusicScratch {
  linalg::CMatrix r;            ///< Correlation scratch (w' x w').
  linalg::EigWorkspace eig_ws;  ///< Eigensolver scratch (incl. QL's log).
  CVec signal;                  ///< Signal eigenvectors, contiguous rows.
  /// The projector's lag sums q_d as (re, im) pairs, d < w'; entries
  /// d >= 1 then scaled into the scan's dot-product weights.
  RVec lags;
  CVec coef;                    ///< E_s^H a(theta), near peaks only.
  RVec order_tail;              ///< Model-order noise-floor scratch.
};

/// The calling thread's MUSIC workspace (lazily constructed, grows to the
/// largest sub-array used on the thread and then stays warm).
[[nodiscard]] MusicScratch& music_scratch() noexcept;

/// Not safe for concurrent use of one instance (including via the const
/// methods): estimation mutates the shared per-thread workspace and the
/// instance's steering handle. Instances themselves are cheap — the heavy
/// state lives in the per-thread MusicScratch and the registry-shared
/// steering table.
class SmoothedMusic {
 public:
  /// The scan evaluates the noise projection through the trig
  /// polynomial, proj = (1 - q_0 / w') - sum_{d>=1} <t_d, a_d> with the
  /// real pairs t_d = (2 / sqrt(w')) (Re q_d, -Im q_d) and a_d = (Re a_d,
  /// Im a_d). Its absolute rounding error is O(k^2 w' u) at worst (u = 2^-53): each q_d
  /// sums at most k w' products whose magnitudes add up to at most k
  /// (Cauchy-Schwarz on unit vectors), the dot product over 2(w' - 1)
  /// reals adds O(k w' u), and the steering table's rounding of
  /// e^{jd phi} / sqrt(w') and the orthonormality of E_s add O(k u) per
  /// lag. That bound is ~1e-13 at k = 4, w' = 32, so at proj >=
  /// kScanRecomputeBelow the relative error is at most ~1e-9 (over 388
  /// scenario columns the largest gap to the k-dot-product form was
  /// 2.8e-15 absolute, 2.2e-11 relative). Below it — within a few degrees
  /// of a peak, ~9% of the grid on typical columns — c = E_s^H a is
  /// formed and proj recomputed as ||a - E_s c||^2, whose absolute error
  /// is O(k u sqrt(proj)).
  static constexpr double kScanRecomputeBelow = 1e-4;

  /// Build an estimator (workspaces allocate lazily on first use).
  explicit SmoothedMusic(MusicConfig cfg = {});

  /// The estimator's configuration.
  [[nodiscard]] const MusicConfig& config() const noexcept { return cfg_; }

  /// Eq. 5.2 with spatial smoothing: average of sub-array correlation
  /// matrices (w' x w').
  [[nodiscard]] linalg::CMatrix smoothed_correlation(CSpan window) const;

  /// Same, into a caller-owned matrix (no allocation on repeated calls);
  /// bit-identical to SlidingCorrelation on the same window.
  void smoothed_correlation_into(CSpan window, linalg::CMatrix& r) const;

  /// Number of signal eigenvectors given descending eigenvalues.
  /// At least 1 (the DC always exists), at most cfg.max_sources, and always
  /// leaves at least one noise eigenvector.
  [[nodiscard]] int estimate_model_order(RSpan eigenvalues) const;

  /// Eq. 5.3: the MUSIC pseudospectrum of one window of channel estimates
  /// on the given angle grid. If `model_order_out` is non-null it receives
  /// the estimated number of signal eigenvectors.
  [[nodiscard]] RVec pseudospectrum(CSpan window, RSpan angles_deg,
                                    int* model_order_out = nullptr) const;

  /// Same, into a caller-owned spectrum buffer; reuses the per-thread
  /// eigensolver/signal workspaces and the steering table (zero heap
  /// allocation per call once they are warm). Not safe for concurrent
  /// calls on one instance.
  void pseudospectrum_into(CSpan window, RSpan angles_deg, RVec& out,
                           int* model_order_out = nullptr) const;

  /// Pseudospectrum from an externally maintained smoothed correlation
  /// (e.g. a SlidingCorrelation) — the streaming fast path.
  void pseudospectrum_from_correlation_into(const linalg::CMatrix& r,
                                            RSpan angles_deg, RVec& out,
                                            int* model_order_out = nullptr) const;

  /// Resolve the unit-norm steering table for `angles_deg` now (a registry
  /// acquire) instead of inside the first pseudospectrum call, so session
  /// construction pays the one shared build and the hot path starts warm.
  void prewarm(RSpan angles_deg) const;

 private:
  MusicConfig cfg_;
  // The only per-instance state beyond the config: a shared_ptr-sized
  // handle to the registry-owned unit-norm steering table. All bulk
  // scratch lives in the per-thread MusicScratch.
  mutable SteeringMatrix steering_;
};

}  // namespace wivi::core
