#include "eval/bench_record.h"

#include <fstream>
#include <sstream>

#include "common/fs.h"
#include "common/json.h"

namespace mrcc {

BenchEntry ToBenchEntry(const RunMeasurement& m) {
  BenchEntry entry;
  entry.method = m.method;
  entry.dataset = m.dataset;
  entry.completed = m.completed;
  entry.error = m.error;
  entry.seconds = m.seconds;
  entry.peak_heap_bytes = m.peak_heap_bytes;
  entry.quality = m.quality.quality;
  entry.subspace_quality = m.quality.subspace_quality;
  entry.clusters_found = m.clusters_found;
  entry.counters = m.counters;
  return entry;
}

std::string BenchRecord::ToJson() const {
  std::string out = "{\"schema_version\":" + std::to_string(schema_version);
  out += ",\"bench\":";
  AppendJsonEscaped(bench, &out);
  out += ",\"scale\":";
  AppendJsonDouble(scale, &out);
  out += ",\"time_budget_seconds\":";
  AppendJsonDouble(time_budget_seconds, &out);
  out += ",\"num_threads_available\":" + std::to_string(num_threads_available);
  out += ",\"wall_seconds\":";
  AppendJsonDouble(wall_seconds, &out);
  out += ",\"peak_rss_bytes\":" + std::to_string(peak_rss_bytes);
  out += ",\"entries\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    if (i > 0) out += ',';
    out += "{\"method\":";
    AppendJsonEscaped(e.method, &out);
    out += ",\"dataset\":";
    AppendJsonEscaped(e.dataset, &out);
    out += ",\"completed\":";
    out += e.completed ? "true" : "false";
    out += ",\"seconds\":";
    AppendJsonDouble(e.seconds, &out);
    out += ",\"peak_heap_bytes\":" + std::to_string(e.peak_heap_bytes);
    out += ",\"quality\":";
    AppendJsonDouble(e.quality, &out);
    out += ",\"subspace_quality\":";
    AppendJsonDouble(e.subspace_quality, &out);
    out += ",\"clusters_found\":" + std::to_string(e.clusters_found);
    out += ",\"source\":";
    AppendJsonEscaped(e.source, &out);
    out += ",\"read_ahead\":" + std::to_string(e.read_ahead);
    out += ",\"chunks_scanned\":" + std::to_string(e.counters.chunks_scanned);
    out += ",\"cells\":" + std::to_string(e.counters.cells);
    out += ",\"cells_convolved\":" +
           std::to_string(e.counters.cells_convolved);
    out += ",\"index_probes\":" + std::to_string(e.counters.index_probes);
    out += ",\"binomial_tests\":" + std::to_string(e.counters.binomial_tests);
    out += ",\"error\":";
    AppendJsonEscaped(e.error, &out);
    out += '}';
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out += ',';
    AppendJsonEscaped(name, &out);
    out += ':' + std::to_string(value);
    first = false;
  }
  out += "}}";
  return out;
}

Result<BenchRecord> BenchRecord::FromJson(const std::string& json) {
  Result<JsonValue> parsed = ParseJson(json);
  MRCC_RETURN_IF_ERROR(parsed.status());
  const JsonValue& root = *parsed;
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("BenchRecord JSON must be an object");
  }

  const JsonValue* version = root.Find("schema_version");
  if (version == nullptr || version->kind != JsonValue::Kind::kNumber) {
    return Status::InvalidArgument("BenchRecord JSON lacks schema_version");
  }
  if (static_cast<int>(version->number_value) != kSchemaVersion) {
    return Status::InvalidArgument(
        "unsupported BenchRecord schema_version " +
        std::to_string(static_cast<int>(version->number_value)) +
        " (reader supports " + std::to_string(kSchemaVersion) + ")");
  }

  BenchRecord record;
  record.bench = JsonStringOr(root.Find("bench"), "");
  record.scale = JsonNumberOr(root.Find("scale"), 0.0);
  record.time_budget_seconds = JsonNumberOr(root.Find("time_budget_seconds"), 0.0);
  record.num_threads_available =
      static_cast<int>(JsonNumberOr(root.Find("num_threads_available"), 0.0));
  record.wall_seconds = JsonNumberOr(root.Find("wall_seconds"), 0.0);
  record.peak_rss_bytes =
      static_cast<int64_t>(JsonNumberOr(root.Find("peak_rss_bytes"), 0.0));

  if (const JsonValue* entries = root.Find("entries");
      entries != nullptr && entries->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& element : entries->array) {
      if (element.kind != JsonValue::Kind::kObject) {
        return Status::InvalidArgument("BenchRecord entry is not an object");
      }
      BenchEntry entry;
      entry.method = JsonStringOr(element.Find("method"), "");
      entry.dataset = JsonStringOr(element.Find("dataset"), "");
      entry.completed = JsonBoolOr(element.Find("completed"), false);
      entry.error = JsonStringOr(element.Find("error"), "");
      entry.seconds = JsonNumberOr(element.Find("seconds"), 0.0);
      entry.peak_heap_bytes =
          static_cast<int64_t>(JsonNumberOr(element.Find("peak_heap_bytes"), 0.0));
      entry.quality = JsonNumberOr(element.Find("quality"), 0.0);
      entry.subspace_quality = JsonNumberOr(element.Find("subspace_quality"), 0.0);
      entry.clusters_found = static_cast<uint64_t>(
          JsonNumberOr(element.Find("clusters_found"), 0.0));
      // Records written before the source axis existed are memory runs.
      entry.source = JsonStringOr(element.Find("source"), "memory");
      // Records written before the read-ahead axis existed ran the
      // synchronous scans.
      entry.read_ahead =
          static_cast<int64_t>(JsonNumberOr(element.Find("read_ahead"), 0.0));
      // Records written before the counters existed read as zero.
      const auto counter = [&element](const char* key) {
        return static_cast<uint64_t>(JsonNumberOr(element.Find(key), 0.0));
      };
      entry.counters.chunks_scanned = counter("chunks_scanned");
      entry.counters.cells = counter("cells");
      entry.counters.cells_convolved = counter("cells_convolved");
      entry.counters.index_probes = counter("index_probes");
      entry.counters.binomial_tests = counter("binomial_tests");
      record.entries.push_back(std::move(entry));
    }
  }

  if (const JsonValue* metrics = root.Find("metrics");
      metrics != nullptr && metrics->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, value] : metrics->object) {
      if (value.kind == JsonValue::Kind::kNumber) {
        record.metrics[name] = static_cast<int64_t>(value.number_value);
      }
    }
  }
  return record;
}

Status BenchRecord::Save(const std::string& path) const {
  // Atomic publish: bench sweeps overwrite their record repeatedly, and
  // a crash mid-save must keep the previous complete record readable.
  return WriteFileAtomic(path, ToJson() + "\n");
}

Result<BenchRecord> BenchRecord::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read failed: " + path);
  return FromJson(buffer.str());
}

}  // namespace mrcc
