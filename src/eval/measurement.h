// Experiment harness: runs one clustering method on one labeled dataset
// and measures everything the paper's figures report — wall-clock time,
// peak heap memory, Quality and Subspaces Quality.

#pragma once

#include <string>
#include <vector>

#include "core/subspace_clusterer.h"
#include "data/dataset.h"
#include "eval/quality.h"

namespace mrcc {

struct MrCCStats;

/// Deterministic work counters of one MrCC run: the same input and
/// parameters give the same counts on any machine and at any thread
/// count, so a bench record can compare them exactly (noise-free, unlike
/// wall time). All zero for the other methods.
struct WorkCounters {
  uint64_t chunks_scanned = 0;   // Data chunks the tree build scanned.
  uint64_t cells = 0;            // Σ materialized cells over all levels.
  uint64_t cells_convolved = 0;  // Laplacian responses computed.
  uint64_t index_probes = 0;     // Level-table lookups of the convolution.
  uint64_t binomial_tests = 0;   // Per-axis binomial tests run.

  bool operator==(const WorkCounters&) const = default;
};

/// The work counters of an MrCC run.
WorkCounters CountersOf(const MrCCStats& stats);

/// Everything measured in one (method, dataset) run.
struct RunMeasurement {
  std::string method;
  std::string dataset;

  /// False when the method failed or timed out; `error` carries the cause.
  bool completed = false;
  std::string error;

  double seconds = 0.0;
  /// Peak extra heap while the method ran (what Fig. 5's KB column shows).
  int64_t peak_heap_bytes = 0;

  size_t clusters_found = 0;
  QualityReport quality;

  WorkCounters counters;
};

/// Runs `method` on `dataset` with an optional cooperative time budget
/// (0 = unlimited) and scores the result against the dataset's truth.
RunMeasurement MeasureRun(SubspaceClusterer& method,
                          const LabeledDataset& dataset,
                          double time_budget_seconds = 0.0);

/// Same, but scores against a flat class labeling (real-data experiment).
RunMeasurement MeasureRunAgainstClasses(SubspaceClusterer& method,
                                        const Dataset& data,
                                        const std::vector<int>& class_labels,
                                        const std::string& dataset_name,
                                        double time_budget_seconds = 0.0);

/// Renders a row like the paper's tables: method, quality, KB, seconds.
std::string FormatMeasurementRow(const RunMeasurement& m);

/// CSV helpers for the bench binaries.
std::string MeasurementCsvHeader();
std::string MeasurementCsvRow(const RunMeasurement& m);

}  // namespace mrcc

