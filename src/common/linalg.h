// Small dense linear algebra.
//
// Just enough for this library: rotating datasets into arbitrarily-oriented
// subspaces by composing Givens rotations (the generator's rotated group
// and Dataset::Transform). Dimensionalities are small (d <= ~50), so
// O(d^3) routines are fine.

#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace mrcc {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  static Matrix Identity(size_t n);

  Matrix Transpose() const;

  /// Matrix product this * other. Requires cols() == other.rows().
  Matrix Multiply(const Matrix& other) const;

  /// Matrix-vector product this * v. Requires cols() == v.size().
  std::vector<double> Apply(const std::vector<double>& v) const;

  /// Frobenius norm of (this - other).
  double DistanceFrom(const Matrix& other) const;

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

/// Dot product of equal-length vectors.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean norm.
double Norm(const std::vector<double>& v);

/// A Givens rotation in the plane of axes (i, j) by `theta` radians,
/// embedded in d dimensions. i != j, both < d.
Matrix GivensRotation(size_t d, size_t i, size_t j, double theta);

/// Composition of `num_planes` Givens rotations in random axis pairs with
/// random angles — the paper's "rotated ... in random planes and degrees".
Matrix RandomPlaneRotations(size_t d, size_t num_planes, Rng& rng);

}  // namespace mrcc

