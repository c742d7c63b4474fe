#include "baselines/tuning_grid.h"

#include <cstdio>

#include "baselines/doc.h"
#include "baselines/epch.h"
#include "baselines/harp.h"
#include "baselines/lac.h"
#include "baselines/p3c.h"
#include "core/mrcc.h"

namespace mrcc {
namespace {

std::string Label(const char* fmt, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

std::vector<TunedCandidate> TuningGrid(const std::string& name,
                                       const MethodTuning& tuning) {
  std::vector<TunedCandidate> grid;

  if (name == "MrCC") {
    // Fixed for all experiments (paper §IV-E): alpha = 1e-10, H = 4.
    grid.push_back({"a=1e-10,H=4",
                    std::unique_ptr<SubspaceClusterer>(new MrCC())});
    return grid;
  }

  if (name == "LAC") {
    // "LAC was tested with integer values from 1 to 11 for 1/h."
    for (int one_over_h = 1; one_over_h <= 11; ++one_over_h) {
      LacParams p;
      p.num_clusters = tuning.num_clusters;
      p.one_over_h = one_over_h;
      p.seed = tuning.seed;
      grid.push_back({Label("1/h=%.0f", one_over_h),
                      std::unique_ptr<SubspaceClusterer>(new Lac(p))});
    }
    return grid;
  }

  if (name == "EPCH") {
    // "EPCH was tuned with integer values from 1 to 5 for the
    // dimensionalities of its histograms and several real values ... for
    // the outliers threshold." Histograms beyond 2-d are impractical
    // (C(d, d0) * bins^d0 cells), as in the original evaluation.
    for (size_t d0 : {1u, 2u}) {
      for (double outlier : {0.3, 0.5, 0.7}) {
        EpchParams p;
        p.histogram_dims = d0;
        p.max_clusters = tuning.num_clusters;
        p.outlier_threshold = outlier;
        char label[48];
        std::snprintf(label, sizeof(label), "d0=%zu,out=%.1f", d0, outlier);
        grid.push_back({label,
                        std::unique_ptr<SubspaceClusterer>(new Epch(p))});
      }
    }
    return grid;
  }

  if (name == "CFPC") {
    // "CFPC was tuned with the values 5..35 for w, 0.05..0.25 for alpha,
    // 0.15..0.35 for beta and the value 50 for maxout." w is scaled to the
    // unit cube (the paper's data spans [-100, 100) for EPCH-style runs).
    for (double w : {0.05, 0.10, 0.15}) {
      for (double beta : {0.15, 0.25, 0.35}) {
        DocParams p;
        p.num_clusters = tuning.num_clusters;
        p.w = w;
        p.beta = beta;
        p.max_out = 10;
        p.seed = tuning.seed;
        char label[48];
        std::snprintf(label, sizeof(label), "w=%.2f,b=%.2f", w, beta);
        grid.push_back({label,
                        std::unique_ptr<SubspaceClusterer>(new Doc(p))});
      }
    }
    return grid;
  }

  if (name == "HARP") {
    // HARP takes only k and the noise percentile (its thresholds are
    // dynamic); the cache structure choice affects cost, not results.
    HarpParams p;
    p.num_clusters = tuning.num_clusters;
    p.max_noise_fraction = tuning.noise_fraction;
    grid.push_back({"conga-line",
                    std::unique_ptr<SubspaceClusterer>(new Harp(p))});
    return grid;
  }

  if (name == "P3C") {
    // "the values 1e-1 .. 1e-15 were tried for the Poisson threshold."
    for (double threshold :
         {1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-7, 1e-10, 1e-15}) {
      P3cParams p;
      p.poisson_threshold = threshold;
      grid.push_back({Label("poisson=%.0e", threshold),
                      std::unique_ptr<SubspaceClusterer>(new P3c(p))});
    }
    return grid;
  }

  return grid;
}

}  // namespace mrcc
