#include "eval/measurement.h"

#include <cstdio>

#include "common/memory.h"
#include "common/timer.h"
#include "core/mrcc.h"

namespace mrcc {
namespace {

RunMeasurement RunAndScore(SubspaceClusterer& method, const Dataset& data,
                           const std::string& dataset_name,
                           double time_budget_seconds,
                           const Clustering* truth,
                           const std::vector<int>* class_labels) {
  RunMeasurement m;
  m.method = method.name();
  m.dataset = dataset_name;

  method.set_time_budget_seconds(time_budget_seconds);
  MemoryUsageScope memory;
  Timer timer;
  Result<Clustering> result = method.Cluster(data);
  m.seconds = timer.ElapsedSeconds();
  m.peak_heap_bytes = memory.PeakDeltaBytes();

  if (!result.ok()) {
    m.completed = false;
    m.error = result.status().ToString();
    return m;
  }
  m.completed = true;
  m.clusters_found = result->NumClusters();
  if (const auto* mrcc = dynamic_cast<const MrCC*>(&method)) {
    m.counters = CountersOf(mrcc->last_stats());
  }
  if (truth != nullptr) {
    m.quality = EvaluateClustering(*result, *truth);
  } else {
    m.quality = EvaluateAgainstClasses(*result, *class_labels);
  }
  return m;
}

}  // namespace

WorkCounters CountersOf(const MrCCStats& stats) {
  WorkCounters c;
  c.chunks_scanned = stats.chunks_scanned;
  for (size_t cells : stats.cells_per_level) c.cells += cells;
  c.cells_convolved = stats.beta_search.cells_convolved;
  c.index_probes = stats.beta_search.index_probes;
  c.binomial_tests = stats.beta_search.binomial_tests;
  return c;
}

RunMeasurement MeasureRun(SubspaceClusterer& method,
                          const LabeledDataset& dataset,
                          double time_budget_seconds) {
  return RunAndScore(method, dataset.data, dataset.name, time_budget_seconds,
                     &dataset.truth, nullptr);
}

RunMeasurement MeasureRunAgainstClasses(SubspaceClusterer& method,
                                        const Dataset& data,
                                        const std::vector<int>& class_labels,
                                        const std::string& dataset_name,
                                        double time_budget_seconds) {
  return RunAndScore(method, data, dataset_name, time_budget_seconds, nullptr,
                     &class_labels);
}

std::string FormatMeasurementRow(const RunMeasurement& m) {
  char buf[256];
  if (!m.completed) {
    std::snprintf(buf, sizeof(buf), "%-8s %-10s %10s %12s %10.2fs  [%s]",
                  m.method.c_str(), m.dataset.c_str(), "-", "-", m.seconds,
                  m.error.c_str());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%-8s %-10s  Q=%6.4f  SQ=%6.4f  %9.1fKB %9.3fs  k=%zu",
                  m.method.c_str(), m.dataset.c_str(), m.quality.quality,
                  m.quality.subspace_quality,
                  static_cast<double>(m.peak_heap_bytes) / 1024.0, m.seconds,
                  m.clusters_found);
  }
  return buf;
}

std::string MeasurementCsvHeader() {
  return "method,dataset,completed,seconds,peak_heap_kb,quality,"
         "subspace_quality,clusters_found,error";
}

std::string MeasurementCsvRow(const RunMeasurement& m) {
  char buf[320];
  std::snprintf(buf, sizeof(buf), "%s,%s,%d,%.6f,%.1f,%.6f,%.6f,%zu,%s",
                m.method.c_str(), m.dataset.c_str(), m.completed ? 1 : 0,
                m.seconds, static_cast<double>(m.peak_heap_bytes) / 1024.0,
                m.quality.quality, m.quality.subspace_quality,
                m.clusters_found, m.error.c_str());
  return buf;
}

}  // namespace mrcc
