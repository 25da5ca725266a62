// Per-thread CPU clock, and the process's peak resident set size. The
// oracle's step{1,2,3}CpuSeconds sum this clock over the class and cluster
// nodes that ran each step (they can exceed the flow's wallSeconds under
// --threads N); see OracleResult in src/pao/oracle.hpp.
#pragma once

#include <cstdint>

namespace pao::util {

/// CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
/// Falls back to 0.0 where the clock is unavailable.
double threadCpuSeconds();

/// Peak resident set size of the process in bytes (VmHWM from
/// /proc/self/status, falling back to getrusage ru_maxrss). 0 where
/// neither source is available. This is a high-water mark: it only grows,
/// so scale benches sample it once after the phase under test.
std::uint64_t peakRssBytes();

}  // namespace pao::util
