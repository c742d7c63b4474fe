// Out-of-core clustering: run MrCC over a binary dataset file that never
// has to fit in RAM (DESIGN.md §14).
//
//   ./examples/out_of_core --generate <file.bin> [points] [dims]
//   ./examples/out_of_core [--source=memory|chunked]
//                          [--budget-mb=N] [--read-ahead=N] <file.bin>
//
// --read-ahead sets the pipelined-scan depth (chunk buffers a background
// reader keeps ahead of the build; default 2 = double buffering, 0 =
// synchronous scans). Results are identical at every depth; the budget
// accounting covers the ring, so a capped run stays capped.
//
// --generate writes a synthetic clustered dataset to <file.bin> and
// exits; run it once, then cluster the file with any backend:
//
//   memory   LoadBinary() pulls the whole file into a Dataset first —
//            the baseline, and the mode that dies when the file is
//            bigger than the address-space budget.
//   chunked  bounded-buffer pread scans: at most one chunk of points is
//            resident per scan, independent of the file size.
//
// Both produce bit-identical results (tests/out_of_core_test.cc);
// the point of this example is the memory column, not the labels. CI's
// out-of-core job runs the chunked mode under `ulimit -v` smaller than
// the input file, where the memory mode provably cannot work.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "core/mrcc.h"
#include "data/data_source.h"
#include "data/dataset_io.h"
#include "data/generator.h"

namespace {

int Generate(const std::string& path, size_t points, size_t dims) {
  mrcc::SyntheticConfig config;
  config.name = "out_of_core";
  config.num_points = points;
  config.num_dims = dims;
  config.num_clusters = 6;
  config.noise_fraction = 0.05;  // Keep the tree small; the file is the
  config.min_cluster_dims = dims > 3 ? dims - 3 : 1;  // thing that's big.
  config.max_cluster_dims = dims > 1 ? dims - 1 : 1;
  config.seed = 20100625;

  std::printf("Generating %zu points x %zu dims into %s...\n", points, dims,
              path.c_str());
  mrcc::Result<mrcc::LabeledDataset> dataset =
      mrcc::GenerateSynthetic(config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  if (mrcc::Status s = mrcc::SaveBinary(dataset->data, path); !s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("Wrote ~%.1f MiB of raw points.\n",
              static_cast<double>(points * dims * sizeof(double)) /
                  (1024.0 * 1024.0));
  return 0;
}

int Cluster(const std::string& path, const std::string& source_name,
            size_t budget_mb, size_t read_ahead) {
  mrcc::MrCCParams params;
  params.budget.max_memory_bytes = budget_mb * 1024 * 1024;
  params.read_ahead_chunks = read_ahead;

  mrcc::Result<mrcc::MrCCResult> result(mrcc::Status::Internal("unset"));
  if (source_name == "memory") {
    // The whole-file load is the allocation that an address-space cap
    // kills; surface that as a clean failure, not an abort.
    try {
      std::vector<int> labels;
      mrcc::Result<mrcc::Dataset> data = mrcc::LoadBinary(path, &labels);
      if (!data.ok()) {
        std::fprintf(stderr, "load failed: %s\n",
                     data.status().ToString().c_str());
        return 1;
      }
      result = mrcc::MrCC(params).Run(*data);
    } catch (const std::bad_alloc&) {
      std::fprintf(stderr,
                   "load failed: out of memory — the file does not fit; "
                   "retry with --source=chunked\n");
      return 1;
    }
  } else if (source_name == "chunked") {
    mrcc::Result<mrcc::ChunkedBinaryDataSource> source =
        mrcc::ChunkedBinaryDataSource::Open(path);
    if (!source.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   source.status().ToString().c_str());
      return 1;
    }
    result = mrcc::MrCC(params).Run(*source);
  } else {
    std::fprintf(stderr, "unknown --source=%s (memory|chunked)\n",
                 source_name.c_str());
    return 2;
  }

  if (!result.ok()) {
    std::fprintf(stderr, "MrCC failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const mrcc::MrCCResult& r = *result;
  std::printf("source: %s\n", source_name.c_str());
  if (r.stats.chunks_scanned > 0) {
    std::printf("streaming: %llu chunks of up to %zu points "
                "(<= %zu points resident at once; read-ahead %zu, "
                "%llu stalls, %llu full-ring waits)\n",
                static_cast<unsigned long long>(r.stats.chunks_scanned),
                r.stats.chunk_points, r.stats.resident_point_bound,
                r.stats.read_ahead_chunks,
                static_cast<unsigned long long>(r.stats.prefetch_stalls),
                static_cast<unsigned long long>(
                    r.stats.prefetch_queue_full_waits));
  }
  std::printf("tree: %.3f s, %.1f KiB; total %.3f s\n",
              r.stats.tree_build_seconds,
              static_cast<double>(r.stats.tree_memory_bytes) / 1024.0,
              r.stats.total_seconds);
  std::printf("found %zu correlation clusters (%zu points noise)\n",
              r.clustering.NumClusters(), r.clustering.NumNoisePoints());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool generate = false;
  std::string source = "chunked";
  size_t budget_mb = 0;
  size_t read_ahead = 2;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--generate") {
      generate = true;
    } else if (arg.rfind("--source=", 0) == 0) {
      source = arg.substr(std::strlen("--source="));
    } else if (arg.rfind("--budget-mb=", 0) == 0) {
      budget_mb = std::strtoul(arg.c_str() + std::strlen("--budget-mb="),
                               nullptr, 10);
    } else if (arg.rfind("--read-ahead=", 0) == 0) {
      read_ahead = std::strtoul(arg.c_str() + std::strlen("--read-ahead="),
                                nullptr, 10);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) {
    std::fprintf(stderr,
                 "usage: %s --generate <file.bin> [points] [dims]\n"
                 "       %s [--source=memory|chunked] "
                 "[--budget-mb=N] [--read-ahead=N] <file.bin>\n",
                 argv[0], argv[0]);
    return 2;
  }
  const std::string path = positional[0];
  if (generate) {
    const size_t points = positional.size() > 1
                              ? std::strtoul(positional[1].c_str(), nullptr, 10)
                              : 2000000;
    const size_t dims = positional.size() > 2
                            ? std::strtoul(positional[2].c_str(), nullptr, 10)
                            : 12;
    return Generate(path, points, dims);
  }
  return Cluster(path, source, budget_mb, read_ahead);
}
