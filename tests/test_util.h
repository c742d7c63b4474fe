// Shared helpers for the test suite.

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/generator.h"

namespace mrcc::testing {

/// A scratch directory private to the running test, as a path ending in
/// '/': ::testing::TempDir() + "mrcc_<suite>.<test>.<pid>/". ctest -j runs
/// every case as its own process, so a fixed name under TempDir() lets
/// sibling cases overwrite (or `rm -rf`) each other's files mid-test;
/// keying on suite, test name and pid keeps them apart. The directory is
/// created on first use and removed, with its contents, when the process
/// that created it exits.
inline std::string UniqueTempDir() {
  struct Registry {
    pid_t owner = ::getpid();
    std::set<std::string> dirs;
    ~Registry() {
      if (::getpid() != owner) return;  // A forked child must not clean up.
      std::error_code ec;
      for (const std::string& dir : dirs) std::filesystem::remove_all(dir, ec);
    }
  };
  static Registry registry;
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string key = info == nullptr ? std::string("global")
                                    : std::string(info->test_suite_name()) +
                                          "." + info->name();
  for (char& c : key) {
    if (c == '/') c = '_';  // Parameterized names contain '/'.
  }
  const std::string dir = ::testing::TempDir() + "mrcc_" + key + "." +
                          std::to_string(::getpid()) + "/";
  if (registry.dirs.insert(dir).second) {
    std::filesystem::create_directories(dir);
  }
  return dir;
}

/// A dataset from an explicit list of points (row-major initializer).
inline Dataset MakeDataset(const std::vector<std::vector<double>>& points) {
  Dataset d;
  for (const auto& p : points) d.AppendPoint(p);
  return d;
}

/// Uniform random dataset in [0,1)^dims.
inline Dataset UniformDataset(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  Dataset d(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dims; ++j) d(i, j) = rng.UniformDouble();
  }
  return d;
}

/// A quick planted-cluster dataset: `k` Gaussian subspace clusters plus
/// noise; small enough for unit tests. Cluster dimensionality is kept
/// near d (as in the paper's data) so the clusters are statistically
/// detectable at test-sized point counts.
inline LabeledDataset SmallClustered(size_t n = 4000, size_t dims = 8,
                                     size_t k = 3, uint64_t seed = 7,
                                     double noise = 0.15) {
  SyntheticConfig cfg;
  cfg.name = "test";
  cfg.num_points = n;
  cfg.num_dims = dims;
  cfg.num_clusters = k;
  cfg.noise_fraction = noise;
  cfg.min_cluster_dims = dims > 3 ? dims - 3 : 1;
  cfg.max_cluster_dims = dims > 1 ? dims - 1 : 1;
  cfg.seed = seed;
  Result<LabeledDataset> r = GenerateSynthetic(cfg);
  MRCC_CHECK(r.ok());  // Test fixture: a generator failure is a test bug.
  return std::move(r).value();
}

}  // namespace mrcc::testing
