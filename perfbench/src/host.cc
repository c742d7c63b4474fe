#include "host.h"

#include <sched.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "common/simd.h"
#include "common/timer.h"

namespace perfbench {

namespace {

/// Seconds of a fixed chain of dependent multiply-adds. It does the same
/// work on every run, so it moves only with the host's single-core speed
/// and with contention from other tenants.
double CalibrationSpinSeconds() {
  mrcc::Timer timer;
  uint64_t x = 1;
  for (uint64_t i = 0; i < 100'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  const double seconds = timer.ElapsedSeconds();
  // Keep the chain live.
  volatile uint64_t sink = x;
  (void)sink;
  return seconds;
}

/// cgroup v2 CPU quota ("max 100000" = unlimited), or "none".
std::string CgroupCpuMax() {
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string quota;
  std::string period;
  if (!(in >> quota >> period)) return "none";
  return quota + "/" + period;
}

}  // namespace

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::string HostRecord() {
  char line[512];
  std::snprintf(line, sizeof(line),
                "host: nproc=%ld affinity_cpus=%d cgroup_cpu_max=%s "
                "build=%s simd=%s(MRCC_SIMD=%s) calibration_spin_s=%.4f",
                sysconf(_SC_NPROCESSORS_ONLN), AffinityCpus(),
                CgroupCpuMax().c_str(), PERFBENCH_BUILD_TYPE,
                mrcc::simd::kBackendName, PERFBENCH_SIMD ? "ON" : "OFF",
                CalibrationSpinSeconds());
  return line;
}

}  // namespace perfbench
