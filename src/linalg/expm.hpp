// Matrix exponentials and Hermitian eigen-decomposition.
//
// expm_hermitian uses a cyclic Jacobi eigensolver (exact for the Hermitian
// matrices every Hamiltonian in this library is); expm handles the general
// case with scaling-and-squaring over a truncated Taylor series, adequate for
// the small verification matrices we feed it.
#pragma once

#include "linalg/matrix.hpp"

namespace gecos {

/// Eigen-decomposition H = V diag(w) V† of a Hermitian matrix.
struct EigenSystem {
  std::vector<double> eigenvalues;  // ascending
  Matrix eigenvectors;              // columns are eigenvectors
};

/// Cyclic Jacobi diagonalization; tol on the off-diagonal Frobenius mass.
EigenSystem eigh(const Matrix& h, double tol = 1e-13, int max_sweeps = 60);

/// exp(i * t * H) for Hermitian H via eigendecomposition (exact).
Matrix expm_hermitian(const Matrix& h, double t);

/// exp(A) for a general square matrix (scaling and squaring + Taylor).
Matrix expm(const Matrix& a);

/// A square root V of a 2x2 unitary (V*V = u), (u + sqrt(det u) I) /
/// sqrt(tr u + 2 sqrt(det u)); throws std::runtime_error when neither
/// branch of sqrt(det u) gives a nonzero denominator.
Matrix sqrt_unitary_2x2(const Matrix& u);

}  // namespace gecos
