// Pin-access sources for the detailed router: where each net-attached
// instance pin will be contacted. Experiment 3 compares three sources —
// the TrRte-style first point, a Dr. CU-style greedy per-pin nearest point
// (no pattern compatibility), and the PAAF pattern-selected point.
#pragma once

#include <map>
#include <optional>

#include "pao/oracle.hpp"

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
  /// `access` must view an analysis of `design`: an OracleResult's view()
  /// (legacy config for kFirstAp, full config for the others), or an
  /// OracleSession's, whose contacts then follow the session's mutations
  /// (net centroids for kGreedyNearest are captured at construction).
  AccessSource(const db::Design& design, core::AccessView access,
               AccessMode mode);

  /// Contact for instance `instIdx`'s signal-pin position `sigPinPos`;
  /// nullopt when the pin has no usable access point.
  std::optional<PinContact> contact(int instIdx, int sigPinPos) const;

  AccessMode mode() const { return mode_; }

 private:
  void buildCentroids();
  std::optional<PinContact> fromAp(int instIdx, const core::AccessPoint& ap)
      const;

  const db::Design* design_;
  core::AccessView access_;
  AccessMode mode_;
  /// Net centroid per (inst, sigPinPos) for the greedy mode.
  std::map<std::pair<int, int>, geom::Point> centroid_;
};

}  // namespace pao::router
