#include "baselines/clusterer.h"

#include "baselines/doc.h"
#include "baselines/epch.h"
#include "baselines/harp.h"
#include "baselines/lac.h"
#include "baselines/p3c.h"
#include "core/mrcc.h"

namespace mrcc {

std::vector<std::string> PaperMethodNames() {
  return {"MrCC", "LAC", "EPCH", "CFPC", "HARP", "P3C"};
}

Result<std::unique_ptr<SubspaceClusterer>> MakeClusterer(
    const std::string& name, const MethodTuning& tuning) {
  if (name == "MrCC") {
    return std::unique_ptr<SubspaceClusterer>(new MrCC());
  }
  if (name == "LAC") {
    LacParams p;
    p.num_clusters = tuning.num_clusters;
    p.seed = tuning.seed;
    return std::unique_ptr<SubspaceClusterer>(new Lac(p));
  }
  if (name == "EPCH") {
    EpchParams p;
    p.max_clusters = tuning.num_clusters;
    return std::unique_ptr<SubspaceClusterer>(new Epch(p));
  }
  if (name == "CFPC") {
    DocParams p;
    p.num_clusters = tuning.num_clusters;
    p.seed = tuning.seed;
    return std::unique_ptr<SubspaceClusterer>(new Doc(p));
  }
  if (name == "HARP") {
    HarpParams p;
    p.num_clusters = tuning.num_clusters;
    p.max_noise_fraction = tuning.noise_fraction;
    return std::unique_ptr<SubspaceClusterer>(new Harp(p));
  }
  if (name == "P3C") {
    return std::unique_ptr<SubspaceClusterer>(new P3c());
  }
  return Status::InvalidArgument("unknown clustering method: " + name);
}

}  // namespace mrcc
