#include "common/failpoint.h"

#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace mrcc {
namespace fp {
namespace {

/// The closed site list: every fault-injection seam in the pipeline, with
/// the status code an injected failure surfaces as. Order is the sweep
/// order of tests/fault_injection_test.cc.
struct SiteInfo {
  const char* name;
  StatusCode code;
};

constexpr SiteInfo kSites[] = {
    // DataSource seams (boolean sites corrupt behavior; Status sites fail
    // outright). All I/O-shaped, so they fire as IOError.
    {"source.open", StatusCode::kIOError},
    {"source.scan", StatusCode::kIOError},
    {"source.read.transient", StatusCode::kIOError},
    {"source.read.truncate", StatusCode::kIOError},
    {"source.read.corrupt", StatusCode::kInternal},
    // Streaming seam: a chunk that cannot be delivered.
    {"source.chunk.read", StatusCode::kIOError},
    // Allocation seams of the tree pipeline.
    {"tree.build.alloc", StatusCode::kResourceExhausted},
    {"tree.merge.alloc", StatusCode::kResourceExhausted},
    {"beta.search.alloc", StatusCode::kResourceExhausted},
    // Thread-pool worker spawn (boolean: the pool degrades, it does not
    // fail — see ThreadPool's constructor).
    {"pool.spawn", StatusCode::kInternal},
    // Output seams.
    {"result.write", StatusCode::kIOError},
    {"report.write", StatusCode::kIOError},
    // Budget seams: force the graceful-degradation paths without actually
    // exhausting the machine.
    {"budget.memory", StatusCode::kResourceExhausted},
    {"budget.deadline", StatusCode::kDeadlineExceeded},
    // Distributed-build seams (src/dist/): artifact publication, checksum
    // verification (boolean — simulates bit rot the trailer must catch),
    // a shard that fails to load in the merger (absorbed by rebuild
    // recovery), and manifest publication.
    {"shard.write", StatusCode::kIOError},
    {"shard.checksum", StatusCode::kIOError},
    {"merge.shard_load", StatusCode::kIOError},
    {"manifest.write", StatusCode::kIOError},
};
constexpr size_t kNumSites = sizeof(kSites) / sizeof(kSites[0]);

enum class TriggerKind {
  kDisarmed,
  kAlways,
  kNthOnly,     // Fire on hit `n` exactly.
  kFromNth,     // Fire on every hit >= `n`.
  kProbability  // Fire when Hash(seed, hit) < probability.
};

struct SiteState {
  TriggerKind kind = TriggerKind::kDisarmed;
  uint64_t n = 0;
  double probability = 0.0;
  uint64_t seed = 0;
  uint64_t hits = 0;
};

struct Registry {
  Mutex mu;
  SiteState sites[kNumSites] MRCC_GUARDED_BY(mu);
  int num_armed MRCC_GUARDED_BY(mu) = 0;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // Never destroyed.
  return *registry;
}

int64_t FindSite(const char* name) {
  for (size_t i = 0; i < kNumSites; ++i) {
    if (std::string(kSites[i].name) == name) return static_cast<int64_t>(i);
  }
  return -1;
}

/// splitmix64: the decision for hit k is a pure function of (seed, k).
uint64_t Hash(uint64_t seed, uint64_t k) {
  uint64_t z = seed + k * 0x9E3779B97F4A7C15ULL + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Parses one trigger spec (see header grammar) into `state`.
Status ParseTrigger(const std::string& trigger, SiteState* state) {
  if (trigger.empty()) {
    state->kind = TriggerKind::kAlways;
    return Status::OK();
  }
  if (trigger[0] == 'p') {
    const size_t at = trigger.find('@');
    if (at == std::string::npos || at < 2) {
      return Status::InvalidArgument("probability trigger needs pP@S: " +
                                     trigger);
    }
    char* end = nullptr;
    state->probability = std::strtod(trigger.c_str() + 1, &end);
    if (end != trigger.c_str() + at || state->probability < 0.0 ||
        state->probability > 1.0) {
      return Status::InvalidArgument("bad probability in trigger: " + trigger);
    }
    state->seed = std::strtoull(trigger.c_str() + at + 1, &end, 10);
    if (*end != '\0') {
      return Status::InvalidArgument("bad seed in trigger: " + trigger);
    }
    state->kind = TriggerKind::kProbability;
    return Status::OK();
  }
  char* end = nullptr;
  state->n = std::strtoull(trigger.c_str(), &end, 10);
  if (end == trigger.c_str() || state->n == 0) {
    return Status::InvalidArgument("bad hit count in trigger: " + trigger);
  }
  if (*end == '+' && *(end + 1) == '\0') {
    state->kind = TriggerKind::kFromNth;
    return Status::OK();
  }
  if (*end != '\0') {
    return Status::InvalidArgument("trailing garbage in trigger: " + trigger);
  }
  state->kind = TriggerKind::kNthOnly;
  return Status::OK();
}

/// Records a hit and decides whether the site fires. Caller holds the
/// registry mutex.
bool Fire(SiteState* state) {
  const uint64_t hit = ++state->hits;
  switch (state->kind) {
    case TriggerKind::kDisarmed:
      return false;
    case TriggerKind::kAlways:
      return true;
    case TriggerKind::kNthOnly:
      return hit == state->n;
    case TriggerKind::kFromNth:
      return hit >= state->n;
    case TriggerKind::kProbability:
      return static_cast<double>(Hash(state->seed, hit)) <
             state->probability * 18446744073709551616.0;  // 2^64.
  }
  return false;
}

}  // namespace

namespace detail {

std::atomic<bool> g_any_armed{false};

Status MaybeSlow(const char* site) {
  const int64_t idx = FindSite(site);
  MRCC_DCHECK_GE(idx, 0);  // Unregistered site name: add it to kSites.
  if (idx < 0) return Status::OK();
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  SiteState& state = registry.sites[static_cast<size_t>(idx)];
  if (state.kind == TriggerKind::kDisarmed || !Fire(&state)) {
    return Status::OK();
  }
  return Status::FromCode(
      kSites[static_cast<size_t>(idx)].code,
      std::string("injected fault at failpoint ") + site);
}

bool MaybeTrueSlow(const char* site) {
  const int64_t idx = FindSite(site);
  MRCC_DCHECK_GE(idx, 0);
  if (idx < 0) return false;
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  SiteState& state = registry.sites[static_cast<size_t>(idx)];
  return state.kind != TriggerKind::kDisarmed && Fire(&state);
}

}  // namespace detail

Status Arm(const std::string& spec) {
  // Parse fully before mutating so a bad spec arms nothing.
  std::vector<std::pair<size_t, SiteState>> parsed;
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t end = spec.find_first_of(",;", begin);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(begin, end - begin);
    begin = end + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    const std::string name = item.substr(0, eq);
    const int64_t idx = FindSite(name.c_str());
    if (idx < 0) {
      return Status::InvalidArgument("unknown failpoint site: " + name);
    }
    SiteState state;
    MRCC_RETURN_IF_ERROR(ParseTrigger(
        eq == std::string::npos ? "" : item.substr(eq + 1), &state));
    parsed.emplace_back(static_cast<size_t>(idx), state);
  }

  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  for (const auto& [idx, state] : parsed) {
    if (registry.sites[idx].kind == TriggerKind::kDisarmed) {
      ++registry.num_armed;
    }
    registry.sites[idx] = state;  // hits reset to 0.
  }
  detail::g_any_armed.store(registry.num_armed > 0,
                            std::memory_order_relaxed);
  return Status::OK();
}

void DisarmAll() {
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  for (SiteState& state : registry.sites) state = SiteState();
  registry.num_armed = 0;
  detail::g_any_armed.store(false, std::memory_order_relaxed);
}

uint64_t HitCount(const char* site) {
  const int64_t idx = FindSite(site);
  MRCC_DCHECK_GE(idx, 0);
  if (idx < 0) return 0;
  Registry& registry = GetRegistry();
  MutexLock lock(registry.mu);
  return registry.sites[static_cast<size_t>(idx)].hits;
}

std::vector<std::string> AllSites() {
  std::vector<std::string> names;
  names.reserve(kNumSites);
  for (const SiteInfo& site : kSites) names.emplace_back(site.name);
  return names;
}

StatusCode SiteCode(const char* site) {
  const int64_t idx = FindSite(site);
  MRCC_DCHECK_GE(idx, 0);
  return idx >= 0 ? kSites[static_cast<size_t>(idx)].code
                  : StatusCode::kInternal;
}

ScopedArm::ScopedArm(const std::string& spec) {
  const Status status = Arm(spec);
  MRCC_CHECK(status.ok());
}

namespace {

/// Arms from MRCC_FAILPOINTS at startup so any binary — tests, benches,
/// examples — honors the env contract without code. A bad spec is a loud
/// warning, not an abort: a typo in the env must not take production down.
/// (g_any_armed is constant-initialized, so this dynamic initializer runs
/// strictly after it exists.)
[[maybe_unused]] const bool g_env_armed = [] {
  const char* spec = std::getenv("MRCC_FAILPOINTS");
  if (spec != nullptr && *spec != '\0') {
    const Status status = Arm(spec);
    if (!status.ok()) {
      std::fprintf(stderr, "warning: ignoring MRCC_FAILPOINTS: %s\n",
                   status.ToString().c_str());
    }
  }
  return true;
}();

}  // namespace

}  // namespace fp
}  // namespace mrcc

