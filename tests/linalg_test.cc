#include "common/linalg.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "common/rng.h"

namespace mrcc {
namespace {

void ExpectOrthonormal(const Matrix& q, double tol = 1e-9) {
  const Matrix qtq = q.Transpose().Multiply(q);
  const Matrix eye = Matrix::Identity(q.cols());
  EXPECT_LT(qtq.DistanceFrom(eye), tol);
}

TEST(MatrixTest, IdentityAndTranspose) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 2) = 5;
  m(1, 1) = -2;
  const Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 0), 5.0);
  EXPECT_EQ(t(1, 1), -2.0);
  const Matrix eye = Matrix::Identity(3);
  EXPECT_EQ(eye(1, 1), 1.0);
  EXPECT_EQ(eye(0, 1), 0.0);
}

TEST(MatrixTest, MultiplyKnownProduct) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  const Matrix c = a.Multiply(b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, ApplyMatchesMultiply) {
  Matrix m(3, 3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      m(r, c) = static_cast<double>(r * 3 + c + 1);
    }
  }
  const std::vector<double> v{1.0, -1.0, 2.0};
  const std::vector<double> out = m.Apply(v);
  EXPECT_DOUBLE_EQ(out[0], 1.0 - 2.0 + 6.0);
  EXPECT_DOUBLE_EQ(out[1], 4.0 - 5.0 + 12.0);
  EXPECT_DOUBLE_EQ(out[2], 7.0 - 8.0 + 18.0);
}

TEST(VectorTest, DotAndNorm) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Norm({3.0, 4.0}), 5.0);
}

TEST(GivensTest, RotationIsOrthonormalAndRotates) {
  const Matrix g = GivensRotation(3, 0, 2, std::numbers::pi / 2.0);
  ExpectOrthonormal(g);
  const std::vector<double> v = g.Apply({1.0, 0.0, 0.0});
  EXPECT_NEAR(v[0], 0.0, 1e-12);
  EXPECT_NEAR(v[1], 0.0, 1e-12);
  EXPECT_NEAR(std::fabs(v[2]), 1.0, 1e-12);
}

TEST(RandomPlaneRotationsTest, CompositionIsOrthonormal) {
  Rng rng(6);
  ExpectOrthonormal(RandomPlaneRotations(10, 4, rng));
}

TEST(RandomPlaneRotationsTest, PreservesVectorNorms) {
  Rng rng(8);
  const Matrix rot = RandomPlaneRotations(6, 4, rng);
  std::vector<double> v{0.3, -0.2, 0.9, 0.1, 0.0, 0.5};
  EXPECT_NEAR(Norm(rot.Apply(v)), Norm(v), 1e-12);
}

}  // namespace
}  // namespace mrcc
