// The host record printed with every run, so that a reader can tell a slow
// host from a slow change.

#pragma once

#include <string>

namespace perfbench {

/// CPUs this process may run on (its affinity mask).
int AffinityCpus();

/// One line: nproc, affinity CPUs, cgroup cpu.max, build type, SIMD
/// backend and the seconds of a fixed calibration spin.
std::string HostRecord();

}  // namespace perfbench
