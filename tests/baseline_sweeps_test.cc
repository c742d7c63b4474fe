// Parameterized property sweeps over every baseline's tuning knobs: for
// any sane parameter choice the algorithm must terminate, produce an
// internally consistent clustering, and (on an easy, well-separated
// dataset) keep a minimum recovery quality.

#include <gtest/gtest.h>

#include <tuple>

#include "baselines/doc.h"
#include "baselines/epch.h"
#include "baselines/harp.h"
#include "baselines/lac.h"
#include "baselines/p3c.h"
#include "eval/quality.h"
#include "test_util.h"

namespace mrcc {
namespace {

// One shared easy dataset: 3 well-separated, high-delta clusters.
const LabeledDataset& EasyData() {
  static const LabeledDataset* data =
      new LabeledDataset(testing::SmallClustered(4000, 8, 3, 12345, 0.1));
  return *data;
}

void ExpectConsistent(const Result<Clustering>& r, double min_quality,
                      const std::string& context) {
  ASSERT_TRUE(r.ok()) << context << ": " << r.status().ToString();
  ASSERT_TRUE(
      r->Validate(EasyData().data.NumPoints(), EasyData().data.NumDims()).ok())
      << context;
  const double q = EvaluateClustering(*r, EasyData().truth).quality;
  EXPECT_GE(q, min_quality) << context;
}

// ---------------------------------------------------------------- LAC --
class LacSweep : public ::testing::TestWithParam<int> {};

TEST_P(LacSweep, AnyBandwidthRecoversStructure) {
  LacParams p;
  p.num_clusters = 3;
  p.one_over_h = GetParam();
  ExpectConsistent(Lac(p).Cluster(EasyData().data), 0.5,
                   "1/h=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, LacSweep,
                         ::testing::Values(1, 3, 5, 7, 9, 11));

// ---------------------------------------------------------------- DOC --
class DocSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DocSweep, BoxWidthAndBetaRecoverStructure) {
  const auto [w, beta] = GetParam();
  DocParams p;
  p.num_clusters = 3;
  p.w = w;
  p.beta = beta;
  // Quality depends strongly on the box width (narrow boxes fragment,
  // wide boxes swallow neighboring clusters) — that is exactly why the
  // paper sweeps w per dataset. Only the default configuration carries a
  // quality floor; every configuration must stay consistent.
  const double floor = (w == 0.10 && beta == 0.25) ? 0.6 : 0.0;
  ExpectConsistent(Doc(p).Cluster(EasyData().data), floor, "CFPC sweep");
}

INSTANTIATE_TEST_SUITE_P(
    Boxes, DocSweep,
    ::testing::Combine(::testing::Values(0.05, 0.10, 0.15),
                       ::testing::Values(0.15, 0.25, 0.35)));

// --------------------------------------------------------------- EPCH --
class EpchSweep
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(EpchSweep, HistogramShapesRecoverStructure) {
  const auto [bins, sigmas] = GetParam();
  EpchParams p;
  p.max_clusters = 3;
  p.bins_per_axis = bins;
  p.threshold_sigmas = sigmas;
  ExpectConsistent(Epch(p).Cluster(EasyData().data), 0.3, "EPCH sweep");
}

INSTANTIATE_TEST_SUITE_P(
    Histograms, EpchSweep,
    ::testing::Combine(::testing::Values<size_t>(4, 8, 16),
                       ::testing::Values(1.0, 2.0, 3.0)));

// ---------------------------------------------------------------- P3C --
class P3cSweep : public ::testing::TestWithParam<double> {};

TEST_P(P3cSweep, PoissonThresholdsStayConsistent) {
  P3cParams p;
  p.poisson_threshold = GetParam();
  Result<Clustering> r = P3c(p).Cluster(EasyData().data);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(
      r->Validate(EasyData().data.NumPoints(), EasyData().data.NumDims())
          .ok());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, P3cSweep,
                         ::testing::Values(1e-1, 1e-3, 1e-5, 1e-10, 1e-15));

// --------------------------------------------------------------- HARP --
class HarpSweep : public ::testing::TestWithParam<int> {};

TEST_P(HarpSweep, LooseningSchedulesRecoverStructure) {
  HarpParams p;
  p.num_clusters = 3;
  p.loosening_steps = GetParam();
  p.max_base_clusters = 1000;
  ExpectConsistent(Harp(p).Cluster(EasyData().data), 0.5,
                   "steps=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Schedules, HarpSweep,
                         ::testing::Values(0, 4, 10, 20));

}  // namespace
}  // namespace mrcc
