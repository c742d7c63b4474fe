#include "common/linalg.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace mrcc {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r)
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      const double v = (*this)(r, k);
      if (v == 0.0) continue;
      for (size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += v * other(k, c);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::Apply(const std::vector<double>& v) const {
  assert(cols_ == v.size());
  std::vector<double> out(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

double Matrix::DistanceFrom(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  double acc = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    const double diff = data_[i] - other.data_[i];
    acc += diff * diff;
  }
  return std::sqrt(acc);
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm(const std::vector<double>& v) { return std::sqrt(Dot(v, v)); }

Matrix GivensRotation(size_t d, size_t i, size_t j, double theta) {
  assert(i < d && j < d && i != j);
  Matrix m = Matrix::Identity(d);
  const double c = std::cos(theta);
  const double s = std::sin(theta);
  m(i, i) = c;
  m(j, j) = c;
  m(i, j) = -s;
  m(j, i) = s;
  return m;
}

Matrix RandomPlaneRotations(size_t d, size_t num_planes, Rng& rng) {
  Matrix m = Matrix::Identity(d);
  for (size_t k = 0; k < num_planes; ++k) {
    size_t i = rng.UniformInt(d);
    size_t j = rng.UniformInt(d - 1);
    if (j >= i) ++j;
    const double theta = rng.Uniform(0.0, 2.0 * std::numbers::pi);
    m = GivensRotation(d, i, j, theta).Multiply(m);
  }
  return m;
}

}  // namespace mrcc
