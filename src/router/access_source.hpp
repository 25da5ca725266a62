// Pin-access sources for the detailed router: where each net-attached
// instance pin will be contacted. Experiment 3 compares three sources —
// the TrRte-style first point, a Dr. CU-style greedy per-pin nearest point
// (no pattern compatibility), and the PAAF pattern-selected point.
#pragma once

#include <map>
#include <optional>

#include "pao/oracle.hpp"
#include "pao/session.hpp"

namespace pao::router {

/// One pin contact: drop `via` at `loc` (the access point, design coords).
struct PinContact {
  const db::ViaDef* via = nullptr;
  geom::Point loc;
};

enum class AccessMode {
  kFirstAp,       ///< TrRte baseline: first generated AP per pin
  kGreedyNearest, ///< Dr. CU proxy: per-pin AP nearest the net centroid
  kPattern,       ///< PAAF: the cluster-selected pattern's AP
};

class AccessSource {
 public:
  /// `result` must come from a PinAccessOracle run on `design` (legacy
  /// config for kFirstAp, full config for the others).
  AccessSource(const db::Design& design, const core::OracleResult& result,
               AccessMode mode);
  /// Live view over an incremental session: contacts reflect the session's
  /// current state, so the same source stays valid across session mutations
  /// (net centroids for kGreedyNearest are captured at construction).
  /// `session.design()` must be `design`.
  AccessSource(const db::Design& design, const core::OracleSession& session,
               AccessMode mode);

  /// Contact for instance `instIdx`'s signal-pin position `sigPinPos`;
  /// nullopt when the pin has no usable access point.
  std::optional<PinContact> contact(int instIdx, int sigPinPos) const;

  AccessMode mode() const { return mode_; }

 private:
  /// Both public constructors fill the same view: the classes, their
  /// origin-relative access and the chosen patterns, read live.
  AccessSource(const db::Design& design, const db::UniqueInstances& unique,
               const std::vector<core::ClassAccess>& classes,
               const std::vector<int>& chosen, AccessMode mode);
  void buildCentroids();
  std::optional<PinContact> fromAp(int instIdx, const core::AccessPoint& ap)
      const;

  const db::Design* design_;
  const db::UniqueInstances* unique_;
  const std::vector<core::ClassAccess>* classes_;
  const std::vector<int>* chosen_;
  AccessMode mode_;
  /// Net centroid per (inst, sigPinPos) for the greedy mode.
  std::map<std::pair<int, int>, geom::Point> centroid_;
};

}  // namespace pao::router
