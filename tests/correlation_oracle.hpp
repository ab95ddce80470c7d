// Test-only reference for Eq. 5.2's smoothed correlation: the direct
// O(S w'^2) accumulation of every sub-array's outer product, in long
// double, then divided by S.
//
// Slow (O(S w'^2) long-double multiply-adds per window, against the
// production kernel's O(S w' + w'^2) in double) but obviously the
// definition, which is what an oracle needs. Its 64-bit mantissa puts its
// own rounding ~2000x below double's, so the distance between it and the
// production kernel is the kernel's error.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <vector>

#include "src/common/types.hpp"
#include "src/linalg/cmatrix.hpp"

namespace wivi::oracle {

/// A w' x w' long-double correlation, row-major.
struct LongCorrelation {
  std::size_t n = 0;
  std::vector<std::complex<long double>> a;

  [[nodiscard]] std::complex<long double> operator()(std::size_t i,
                                                     std::size_t j) const {
    return a[i * n + j];
  }

  /// Frobenius norm.
  [[nodiscard]] long double frobenius() const {
    long double acc = 0.0L;
    for (const auto& v : a) acc += std::norm(v);
    return std::sqrt(acc);
  }
};

/// (1/S) sum_s x_s x_s^H over the S = w - w' + 1 sub-arrays x_s =
/// window[s, s + w'), both triangles accumulated independently.
inline LongCorrelation smoothed_correlation(CSpan window, std::size_t wp) {
  const std::size_t num_subarrays = window.size() - wp + 1;
  LongCorrelation r;
  r.n = wp;
  r.a.assign(wp * wp, {0.0L, 0.0L});
  for (std::size_t s = 0; s < num_subarrays; ++s)
    for (std::size_t i = 0; i < wp; ++i) {
      const long double xr = window[s + i].real();
      const long double xi = window[s + i].imag();
      for (std::size_t j = 0; j < wp; ++j) {
        const long double yr = window[s + j].real();
        const long double yi = window[s + j].imag();
        // x_i conj(x_j)
        r.a[i * wp + j] +=
            std::complex<long double>(xr * yr + xi * yi, xi * yr - xr * yi);
      }
    }
  for (auto& v : r.a) v /= static_cast<long double>(num_subarrays);
  return r;
}

/// max_ij |got(i, j) - want(i, j)| / ||want||_F.
inline double max_error_over_frobenius(const linalg::CMatrix& got,
                                       const LongCorrelation& want) {
  long double worst = 0.0L;
  for (std::size_t i = 0; i < want.n; ++i)
    for (std::size_t j = 0; j < want.n; ++j) {
      const std::complex<long double> g{got(i, j).real(), got(i, j).imag()};
      worst = std::max(worst, std::abs(g - want(i, j)));
    }
  return static_cast<double>(worst / want.frobenius());
}

}  // namespace wivi::oracle
