// Deterministic fault injection for robustness testing.
//
// Code under test declares named injection points:
//
//   if (PAO_FAULT_POINT("cache.read")) return fail("injected fault");
//   PAO_FAULT_INJECT("oracle.class_access");  // throws util::FaultInjected
//
// Nothing fires unless the registry is armed via
// FaultRegistry::instance().configure(spec) — pao_cli wires this to
// --faults <spec> and the PAO_FAULTS environment variable. The spec is a
// comma-separated list of entries:
//
//   point            fire on every hit of `point`
//   point:N          fire on the Nth hit only (1-based)
//   point:N+         fire on the Nth hit and every later one
//   point:pP[:sS]    fire pseudo-randomly with probability P (0..1),
//                    deterministic in seed S (default 1) and hit index
//
// e.g. PAO_FAULTS="cache.read,oracle.class_access:3+,lef.io:p0.5:s7".
// All triggering is a pure function of (spec, per-point hit index), so a
// faulted run is exactly reproducible at any thread count for points hit
// a deterministic number of times in a deterministic order.
//
// Like the observability macros (PAO_OBS), the call sites compile to
// nothing under -DPAO_FAULTS=OFF: PAO_FAULT_POINT becomes constant false
// and PAO_FAULT_INJECT an empty statement, so production builds carry no
// registry references (checked by the ci.sh nm gate). The default build
// compiles the hooks in but they cost one relaxed atomic load while
// disarmed.
//
// The fault-point catalog lives in DESIGN.md "Robustness & failure
// semantics".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#ifndef PAO_FAULTS
#define PAO_FAULTS 1
#endif

namespace pao::util {

/// Thrown by PAO_FAULT_INJECT sites (and by any code that wants an
/// unambiguous "this failure was injected" type).
struct FaultInjected : std::runtime_error {
  explicit FaultInjected(std::string_view pointName)
      : std::runtime_error("injected fault at '" + std::string(pointName) +
                           "'"),
        point(pointName) {}
  std::string point;
};

class FaultRegistry {
 public:
  /// Process-wide registry (leaked singleton, never destroyed).
  static FaultRegistry& instance();

  /// Parses `spec` (grammar above) and arms the registry. On a malformed
  /// spec returns false, sets *error, and leaves the registry disarmed.
  /// An empty spec disarms. Replaces any previous configuration.
  bool configure(std::string_view spec, std::string* error = nullptr);

  /// Disarms and forgets all points and counters.
  void reset();

  /// Cheap fast-path gate: true when at least one point is configured.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Called by PAO_FAULT_POINT at every instrumented site. Counts the hit
  /// and returns true when the point's trigger says to fire.
  bool shouldFire(std::string_view point);

  /// Observability for tests: how often `point` was reached / fired.
  std::size_t hits(std::string_view point) const;
  std::size_t fired(std::string_view point) const;

 private:
  FaultRegistry() = default;

  enum class Mode { kAlways, kNth, kFromNth, kProb };
  struct Point {
    Mode mode = Mode::kAlways;
    std::uint64_t n = 0;        ///< kNth / kFromNth threshold (1-based)
    double prob = 0.0;          ///< kProb probability
    std::uint64_t seed = 1;     ///< kProb seed
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
  };

  static bool parseEntry(std::string_view entry, std::string& name,
                         Point& point, std::string* error);

  mutable std::mutex mu_;
  std::map<std::string, Point, std::less<>> points_;
  std::atomic<bool> armed_{false};
};

}  // namespace pao::util

#if PAO_FAULTS
/// Evaluates to true when the named fault point should fire this hit.
#define PAO_FAULT_POINT(name)                        \
  (::pao::util::FaultRegistry::instance().armed() && \
   ::pao::util::FaultRegistry::instance().shouldFire(name))
/// Throws util::FaultInjected when the named point fires.
#define PAO_FAULT_INJECT(name)                                 \
  do {                                                         \
    if (PAO_FAULT_POINT(name)) {                               \
      throw ::pao::util::FaultInjected(name);                  \
    }                                                          \
  } while (0)
#else
// The name is mentioned unevaluated: no code or symbol, no unused warning.
#define PAO_FAULT_POINT(name) ((void)sizeof(name), false)
#define PAO_FAULT_INJECT(name) \
  do {                         \
    (void)sizeof(name);        \
  } while (0)
#endif
