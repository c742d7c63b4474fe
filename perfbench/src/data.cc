#include "data.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/rng.h"
#include "data/dataset_io.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/// Datasets kept in the cache directory; older ones are deleted. Two
/// families per seed, so this covers the last few seeds run.
constexpr size_t kCachedDatasets = 6;

/// Bumped whenever the cached file layout changes.
constexpr int kCacheVersion = 2;

void TrimCache(const std::string& dir) {
  std::vector<std::pair<fs::file_time_type, fs::path>> entries;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".bin") {
      entries.push_back({e.last_write_time(ec), e.path()});
    }
  }
  if (entries.size() <= kCachedDatasets) return;
  std::sort(entries.begin(), entries.end());
  for (size_t i = 0; i + kCachedDatasets < entries.size(); ++i) {
    fs::path p = entries[i].second;
    fs::remove(p, ec);
    fs::remove(p.replace_extension(".truth"), ec);
  }
}

mrcc::Status WriteTruth(const mrcc::Clustering& truth, size_t num_dims,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  const uint64_t header[3] = {truth.labels.size(), truth.clusters.size(),
                              num_dims};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(truth.labels.data()),
            static_cast<std::streamsize>(truth.labels.size() * sizeof(int)));
  for (const mrcc::ClusterInfo& c : truth.clusters) {
    for (size_t j = 0; j < num_dims; ++j) {
      const char bit = c.relevant_axes[j] ? 1 : 0;
      out.write(&bit, 1);
    }
  }
  out.close();
  if (!out) return mrcc::Status::IOError("cannot write " + path);
  return mrcc::Status::OK();
}

/// Fingerprint of every generator parameter and the order seed, so that a
/// change regenerates and an equal input reuses the cached file.
uint64_t ConfigFingerprint(const mrcc::SyntheticConfig& c,
                           uint64_t order_seed) {
  std::string key;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "v%d|%s|%zu|%zu|%zu|%.17g|%zu|%zu|%.17g|%.17g|%zu|%llu|%llu",
                kCacheVersion, c.name.c_str(), c.num_dims, c.num_points,
                c.num_clusters, c.noise_fraction, c.min_cluster_dims,
                c.max_cluster_dims, c.min_stddev, c.max_stddev,
                c.num_rotations, static_cast<unsigned long long>(c.seed),
                static_cast<unsigned long long>(order_seed));
  key = buf;
  for (double w : c.cluster_weights) {
    std::snprintf(buf, sizeof(buf), "|%.17g", w);
    key += buf;
  }
  return Fnv1a(key.data(), key.size());
}

}  // namespace

uint64_t Fnv1a(const void* data, size_t len, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

mrcc::Result<DatasetFiles> EnsureDataset(const mrcc::SyntheticConfig& config,
                                         uint64_t order_seed,
                                         const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  char name[128];
  std::snprintf(name, sizeof(name), "%s-%016llx", config.name.c_str(),
                static_cast<unsigned long long>(
                    ConfigFingerprint(config, order_seed)));
  DatasetFiles files;
  files.points = (fs::path(dir) / (std::string(name) + ".bin")).string();
  files.truth = (fs::path(dir) / (std::string(name) + ".truth")).string();
  if (fs::exists(files.points) && fs::exists(files.truth)) {
    // Touch, so the cache trim keeps recently used datasets.
    fs::last_write_time(files.points, fs::file_time_type::clock::now(), ec);
    return files;
  }
  mrcc::Result<mrcc::LabeledDataset> generated = mrcc::GenerateSynthetic(config);
  if (!generated.ok()) return generated.status();
  std::vector<size_t> order(config.num_points);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  mrcc::Rng(order_seed).Shuffle(order);
  const mrcc::Dataset& in = generated->data;
  mrcc::Dataset points(in.NumPoints(), in.NumDims());
  std::vector<int> labels(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    for (size_t j = 0; j < in.NumDims(); ++j) points(i, j) = in(order[i], j);
    labels[i] = generated->truth.labels[order[i]];
  }
  generated->truth.labels = std::move(labels);
  // Write under temporary names and rename, so an interrupted run never
  // leaves a half-written file that a later run would take as cached.
  const std::string tmp_points = files.points + ".tmp";
  const std::string tmp_truth = files.truth + ".tmp";
  MRCC_RETURN_IF_ERROR(mrcc::SaveBinary(points, tmp_points));
  MRCC_RETURN_IF_ERROR(WriteTruth(generated->truth, config.num_dims, tmp_truth));
  fs::rename(tmp_truth, files.truth, ec);
  if (!ec) fs::rename(tmp_points, files.points, ec);
  if (ec) return mrcc::Status::IOError("cannot publish " + files.points);
  files.generated = true;
  TrimCache(dir);
  return files;
}

mrcc::Result<mrcc::Clustering> LoadTruth(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t header[3] = {0, 0, 0};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  mrcc::Clustering truth;
  truth.labels.resize(header[0]);
  in.read(reinterpret_cast<char*>(truth.labels.data()),
          static_cast<std::streamsize>(header[0] * sizeof(int)));
  truth.clusters.resize(header[1]);
  for (mrcc::ClusterInfo& c : truth.clusters) {
    c.relevant_axes.resize(header[2]);
    for (size_t j = 0; j < header[2]; ++j) {
      char bit = 0;
      in.read(&bit, 1);
      c.relevant_axes[j] = bit != 0;
    }
  }
  if (!in) return mrcc::Status::IOError("truncated ground truth " + path);
  return truth;
}

mrcc::Dataset Slice(const mrcc::Dataset& data, size_t begin, size_t end) {
  mrcc::Dataset out(end - begin, data.NumDims());
  for (size_t i = begin; i < end; ++i) {
    for (size_t j = 0; j < data.NumDims(); ++j) out(i - begin, j) = data(i, j);
  }
  return out;
}

}  // namespace perfbench
