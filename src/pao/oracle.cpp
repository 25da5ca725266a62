#include "pao/oracle.hpp"

#include "pao/session.hpp"

namespace pao::core {

OracleConfig withoutBcaConfig() {
  OracleConfig cfg;
  cfg.patternGen.numPatterns = 1;
  cfg.patternGen.boundaryAware = false;
  return cfg;
}

OracleConfig withBcaConfig() {
  OracleConfig cfg;
  cfg.patternGen.numPatterns = 3;
  cfg.patternGen.boundaryAware = true;
  return cfg;
}

OracleConfig legacyConfig() {
  OracleConfig cfg;
  cfg.legacyMode = true;
  return cfg;
}

std::size_t OracleResult::totalAps() const {
  std::size_t n = 0;
  for (const ClassAccess& ca : classes) {
    for (const std::vector<AccessPoint>& aps : ca.pinAps) n += aps.size();
  }
  return n;
}

std::optional<ChosenAp> placeChosenAp(const ClassAccess& ca, int pattern,
                                      int sigPinPos, geom::Point origin) {
  if (pattern < 0 || pattern >= static_cast<int>(ca.patterns.size())) {
    return std::nullopt;
  }
  const std::vector<int>& apIdx = ca.patterns[pattern].apIdx;
  if (sigPinPos >= static_cast<int>(apIdx.size()) || apIdx[sigPinPos] < 0) {
    return std::nullopt;
  }
  const AccessPoint& ap = ca.pinAps[sigPinPos][apIdx[sigPinPos]];
  return ChosenAp{&ap, ap.loc + origin};
}

std::optional<ChosenAp> AccessView::chosenAp(const db::Design& design,
                                             int instIdx,
                                             int sigPinPos) const {
  const int cls = classOf(instIdx);
  if (cls < 0) return std::nullopt;
  return placeChosenAp(access(cls), pattern(instIdx), sigPinPos,
                       design.instances[instIdx].origin);
}

PinAccessOracle::PinAccessOracle(const db::Design& design, OracleConfig cfg)
    : design_(&design), cfg_(cfg) {}

OracleResult PinAccessOracle::run() {
  // The batch oracle is a thin wrapper these days: a read-only OracleSession
  // does the full Steps 1-3 build, and its snapshot is the batch result.
  const OracleSession session(*design_, cfg_);
#if PAO_OBS_ENABLED
  graphProfile_ = session.lastGraphProfile();
#endif
  return session.snapshot();
}

}  // namespace pao::core
