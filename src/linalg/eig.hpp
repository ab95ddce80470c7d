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
//      off-diagonals, and runs implicit-shift QL on T for every eigenvalue.
//      QL does not accumulate T's eigenvectors; it logs each Givens pair
//      it applies, so T = Z diag(lambda) Z^T with Z = G_1 G_2 ... G_N.
//   2. leading_eigenvectors() forms z_j = Z e_j only for the eigenvectors
//      asked for, by replaying the log backwards onto the unit vector e_j
//      (G_N first), and back-transforms v = Q D z.
// hermitian_eig_into() is both steps with every vector. The reduction
// costs ~(16/3) n^3 real flops; values-only QL ~20 flops, a square root
// and two divides per rotation (N rotations, ~n^2: ~1.1k on a MUSIC
// correlation at n = 32); each requested vector 6N flops of replay plus
// ~8 n^2 of back-transform. Forming all n vectors costs what accumulating
// Z would (~6 n N); MUSIC forms k ~ 4. All in plain double arithmetic; no
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

/// One QL sweep in the rotation log: it applied `count` Givens rotations
/// to the index pairs (top - 1, top), (top - 2, top - 1), ... in that
/// order. `count` is the bulge chase's length, or fewer when an underflow
/// split the matrix mid-sweep.
struct QlSweep {
  std::size_t top = 0;
  std::size_t count = 0;
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
  /// QL's Givens pairs (c, s), interleaved, in the order applied. Cleared
  /// per call; its capacity is reserved once per size for the iteration
  /// budget's worst case (30 n sweeps of n - 1 rotations: ~0.5 MB of
  /// address space at n = 32, of which a typical column writes ~18 KB),
  /// so no input makes a warm workspace allocate.
  RVec givens;
  std::vector<QlSweep> sweeps;     ///< QL's sweeps, in order (same budget).
  /// leading_eigenvectors() scratch: up to 8 vectors being replayed,
  /// interleaved (entry i of vector b at i * block + b).
  RVec replay;
  std::vector<std::size_t> order;  ///< Descending sort permutation.
  RVec values;   ///< Eigenvalues sorted in descending order.
};

/// Every eigenvalue of a Hermitian matrix, sorted descending, as a view
/// into `ws` (valid until the workspace is used again). Leaves `ws` ready
/// for leading_eigenvectors(). Throws InvalidArgument if the matrix is
/// empty, not square or measurably non-Hermitian, ComputeError if QL
/// exhausts its iteration cap (never observed for genuine Hermitian input).
RSpan hermitian_eigenvalues(const CMatrix& a, EigWorkspace& ws);

/// The eigenvectors of the `k` largest eigenvalues of the matrix last
/// passed to hermitian_eigenvalues(ws): eigenvector j (for values[j]) is
/// written as the contiguous row out[j*n, (j+1)*n). `out` must hold at
/// least k*n elements and k <= n. Only ws.replay is written (scratch),
/// so calls with different k on one decomposition agree. Each vector's
/// arithmetic does not depend on k, so the rows equal the first k columns
/// of hermitian_eig_into()'s vectors bit for bit.
void leading_eigenvectors(EigWorkspace& ws, std::size_t k,
                          std::span<cdouble> out);

/// Full eigendecomposition (hermitian_eigenvalues + every eigenvector).
[[nodiscard]] EigResult hermitian_eig(const CMatrix& a);

/// Same decomposition writing into caller-owned result + workspace; no
/// heap allocation when both already hold matching-size buffers.
void hermitian_eig_into(const CMatrix& a, EigResult& out, EigWorkspace& ws);

}  // namespace wivi::linalg
