#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <utility>

namespace perfbench {

int SpanLog::Begin(const std::string& name, const std::string& layer,
                   int parent, int run) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, layer, now, now, id, parent, run});
  return id;
}

void SpanLog::End(int id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int SpanLog::Record(const std::string& name, const std::string& layer,
                    int parent, int run, int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, layer, start_ns, end_ns, id, parent, run});
  return id;
}

int SpanLog::NewRun() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++runs_;
}

double SpanLog::Seconds(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[static_cast<size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << "[\n";
    char line[512];
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      // Names and layers are identifiers chosen in this benchmark; none
      // needs JSON escaping.
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"%s\", \"layer\": \"%s\", \"run\": %d, "
                    "\"id\": %d, \"parent\": %d, \"start_ns\": %lld, "
                    "\"end_ns\": %lld}%s\n",
                    s.name.c_str(), s.layer.c_str(), s.run, s.id, s.parent,
                    static_cast<long long>(s.start_ns),
                    static_cast<long long>(s.end_ns),
                    i + 1 < spans.size() ? "," : "");
      out << line;
    }
    out << "]\n";
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

namespace {

/// Length of the union of [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (!open || s > cur_end) {
      if (open) covered += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) covered += cur_end - cur_start;
  return covered;
}

}  // namespace

std::map<std::string, LayerTime> LayerBreakdown(const std::vector<Span>& spans,
                                                int root) {
  const Span& top = spans[static_cast<size_t>(root)];
  std::vector<const Span*> run;
  for (const Span& s : spans) {
    if (s.run == top.run && s.end_ns > s.start_ns) run.push_back(&s);
  }
  auto layer_of = [&](const Span& s) {
    return s.id == root ? std::string(kUnattributed) : s.layer;
  };

  std::map<std::string, LayerTime> out;
  // Self time: duration minus the union of the children's intervals,
  // each clipped to the parent.
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span* s : run) {
    if (s->parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s->parent)];
    const int64_t a = std::max(s->start_ns, p.start_ns);
    const int64_t b = std::min(s->end_ns, p.end_ns);
    if (a < b) children[s->parent].push_back({a, b});
  }
  for (const Span* s : run) {
    auto it = children.find(s->id);
    const int64_t covered = it == children.end() ? 0 : UnionLength(it->second);
    out[layer_of(*s)].self_s +=
        static_cast<double>(s->end_ns - s->start_ns - covered) * 1e-9;
  }

  // Wall attribution: sweep the span boundaries; between two consecutive
  // boundaries split the interval between the active spans that have no
  // active child (the leaves of what is running at that instant).
  std::vector<std::pair<int64_t, int>> events;  // (time, +id+1 / -(id+1))
  for (const Span* s : run) {
    events.push_back({s->start_ns, s->id + 1});
    events.push_back({s->end_ns, -(s->id + 1)});
  }
  // At equal times, close before opening.
  std::sort(events.begin(), events.end());
  std::set<int> active;
  std::map<int, int> active_children;
  int64_t prev = events.empty() ? 0 : events.front().first;
  for (const auto& [t, code] : events) {
    if (t > prev) {
      std::vector<int> leaves;
      for (int id : active) {
        if (active_children[id] == 0) leaves.push_back(id);
      }
      const double share =
          leaves.empty() ? 0.0
                         : static_cast<double>(t - prev) * 1e-9 /
                               static_cast<double>(leaves.size());
      for (int id : leaves) {
        out[layer_of(spans[static_cast<size_t>(id)])].wall_s += share;
      }
      prev = t;
    }
    const int id = code > 0 ? code - 1 : -code - 1;
    const int parent = spans[static_cast<size_t>(id)].parent;
    if (code > 0) {
      active.insert(id);
      if (parent >= 0) ++active_children[parent];
    } else {
      active.erase(id);
      if (parent >= 0) --active_children[parent];
    }
  }
  return out;
}

}  // namespace perfbench
