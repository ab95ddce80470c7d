// Hermitian eigendecomposition: Householder tridiagonalisation plus
// implicit-shift QL (the classic zheev route).
//
// MUSIC (paper Eq. 5.3) needs every eigenvalue of the smoothed correlation
// matrix to estimate the model order, but only the few leading
// (signal-subspace) eigenvectors for its angle scan. The solver is split
// along that line:
//   1. hermitian_eigenvalues() reduces A = Q T_c Q^H with Householder
//      reflectors (T_c Hermitian tridiagonal), scales T_c = D T D^H with a
//      unitary diagonal D so that T is real symmetric with non-negative
//      off-diagonals, and runs implicit-shift QL on T for every eigenvalue
//      while accumulating T's (real) eigenvectors;
//   2. leading_eigenvectors() back-transforms v = Q D z only for the
//      eigenvectors asked for.
// hermitian_eig_into() is both steps with every vector. The reduction
// costs ~(16/3) n^3 real flops, QL with accumulation ~3 n^3 and each
// back-transformed vector ~8 n^2. All in plain double arithmetic; no
// external BLAS/LAPACK dependency.
#pragma once

#include <span>

#include "src/common/types.hpp"
#include "src/linalg/cmatrix.hpp"

namespace wivi::linalg {

struct EigResult {
  /// Eigenvalues sorted in descending order (real: the input is Hermitian).
  RVec values;
  /// Unitary matrix whose column j is the eigenvector for values[j].
  CMatrix vectors;
};

/// Reusable scratch for the solver. Holding one of these across calls
/// (MUSIC runs one decomposition per image column) makes repeated
/// same-size decompositions allocation-free. Every buffer is overwritten
/// by each hermitian_eigenvalues() call, so a result never depends on what
/// the workspace computed before.
struct EigWorkspace {
  CMatrix a;     ///< Working copy; row i then holds reflector u_i in (i, n).
  RVec h;        ///< Reflector scales u_i^H u_i / 2 (0 = no reflector).
  CVec phase;    ///< Diagonal of the scaling D (unit modulus).
  CVec work;     ///< Reduction scratch (B u / h, then the rank-2 vector).
  RVec diag;     ///< Tridiagonal diagonal, then its unsorted eigenvalues.
  RVec off;      ///< Tridiagonal off-diagonal (QL scratch).
  RVec zt;       ///< T's eigenvectors, transposed: row j = vector j.
  std::vector<std::size_t> order;  ///< Descending sort permutation.
  RVec values;   ///< Eigenvalues sorted in descending order.
};

/// Every eigenvalue of a Hermitian matrix, sorted descending, as a view
/// into `ws` (valid until the workspace is used again). Leaves `ws` ready
/// for leading_eigenvectors(). Throws InvalidArgument if the matrix is
/// empty, not square or measurably non-Hermitian, ComputeError if QL
/// exhausts its iteration cap (never observed for genuine Hermitian input).
RSpan hermitian_eigenvalues(const CMatrix& a, EigWorkspace& ws);

/// Back-transform the eigenvectors of the `k` largest eigenvalues of the
/// matrix last passed to hermitian_eigenvalues(ws): eigenvector j (for
/// values[j]) is written as the contiguous row out[j*n, (j+1)*n). `out`
/// must hold at least k*n elements and k <= n. The rows equal the first k
/// columns of hermitian_eig_into()'s vectors bit for bit.
void leading_eigenvectors(const EigWorkspace& ws, std::size_t k,
                          std::span<cdouble> out);

/// Full eigendecomposition (hermitian_eigenvalues + every eigenvector).
[[nodiscard]] EigResult hermitian_eig(const CMatrix& a);

/// Same decomposition writing into caller-owned result + workspace; no
/// heap allocation when both already hold matching-size buffers.
void hermitian_eig_into(const CMatrix& a, EigResult& out, EigWorkspace& ws);

}  // namespace wivi::linalg
