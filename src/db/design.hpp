// Design (DEF-side) model: die area, placement rows, routing track patterns,
// placed instances, and nets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "db/lib.hpp"
#include "db/tech.hpp"
#include "geom/orient.hpp"

namespace pao::db {

/// DEF TRACKS statement: `count` tracks on `layer` at `start + i*step`.
/// `axis` is the coordinate the tracks fix: kHorizontal tracks fix y
/// (wires run horizontally along them), kVertical tracks fix x.
struct TrackPattern {
  int layer = -1;
  Dir axis = Dir::kHorizontal;
  Coord start = 0;
  Coord step = 0;
  int count = 0;

  /// Coordinate of track i.
  Coord coord(int i) const { return start + static_cast<Coord>(i) * step; }
  /// True when `v` lies exactly on a track of this pattern.
  bool onTrack(Coord v) const;
  /// All track coordinates within [lo, hi].
  std::vector<Coord> coordsIn(Coord lo, Coord hi) const;
};

struct Row {
  std::string name;
  std::string site;
  geom::Point origin;
  geom::Orient orient = geom::Orient::R0;
  int numSites = 0;
  Coord siteWidth = 0;
  Coord height = 0;
};

class Instance {
 public:
  std::string name;
  const Master* master = nullptr;
  geom::Point origin;
  geom::Orient orient = geom::Orient::R0;

  geom::Transform transform() const {
    return geom::Transform(origin, orient, master->size());
  }
  geom::Rect bbox() const {
    const geom::Point sz = geom::swapsAxes(orient)
                               ? geom::Point{master->height, master->width}
                               : geom::Point{master->width, master->height};
    return {origin.x, origin.y, origin.x + sz.x, origin.y + sz.y};
  }
};

/// Places `inst`'s master geometry in design coordinates: calls
/// f(placedRect, layer, masterPinIdx) for every pin shape in pin and shape
/// order, then f(placedRect, layer, -1) for every obstruction. The one
/// implementation of the per-instance shape transform; callers keep only
/// their own net-id rule. The order is part of the contract (region-query
/// insertion order feeds the order of reported details).
template <typename F>
void forEachPlacedShape(const Instance& inst, F&& f) {
  const geom::Transform xf = inst.transform();
  const Master& master = *inst.master;
  for (int p = 0; p < static_cast<int>(master.pins.size()); ++p) {
    for (const PinShape& s : master.pins[p].shapes) {
      f(xf.apply(s.rect), s.layer, p);
    }
  }
  for (const Obstruction& o : master.obstructions) {
    f(xf.apply(o.rect), o.layer, -1);
  }
}

/// One connection of a net: instance pin (instIdx >= 0) or an IO pin
/// (instIdx == -1, ioPinIdx into Design::ioPins()).
struct NetTerm {
  int instIdx = -1;
  int pinIdx = -1;   ///< pin index within the instance's master
  int ioPinIdx = -1; ///< index into Design::ioPins when instIdx == -1

  bool isIo() const { return instIdx < 0; }
};

struct IoPin {
  std::string name;
  int layer = -1;
  geom::Rect rect;  ///< absolute design coordinates
};

struct Net {
  std::string name;
  std::vector<NetTerm> terms;
};

class Design {
 public:
  std::string name;
  const Tech* tech = nullptr;
  const Library* lib = nullptr;
  geom::Rect dieArea;

  std::vector<Instance> instances;
  std::vector<Net> nets;
  std::vector<IoPin> ioPins;
  std::vector<TrackPattern> trackPatterns;
  std::vector<Row> rows;

  int findInstance(std::string_view instName) const;
  /// Track patterns on `layer` whose axis matches `axis`.
  std::vector<const TrackPattern*> tracks(int layer, Dir axis) const;
  /// Total number of net-attached instance pin terms across all nets.
  std::size_t numNetInstTerms() const;

  void buildInstanceIndex();

  // --- Mutation API (incremental sessions) ---------------------------------
  // Long-lived consumers (pao::core::OracleSession) track revision() to
  // detect edits made behind their back: every mutator below bumps it,
  // while direct writes to the public fields do not. Parsers and generators
  // that populate the fields wholesale keep working unchanged; only code
  // that mutates a design mid-session must go through these.

  /// Monotonic counter of mutations applied through the mutation API.
  std::uint64_t revision() const { return revision_; }
  /// Places instance `idx` at `newOrigin`.
  void moveInstance(int idx, geom::Point newOrigin);
  /// Re-orients instance `idx`.
  void setInstanceOrient(int idx, geom::Orient orient);
  /// Appends `inst`, indexes its name, and returns the new instance index.
  int addInstance(Instance inst);
  /// Erases instance `idx`. Net terms referencing it are dropped, terms
  /// referencing later instances are renumbered (indices above `idx` shift
  /// down by one), and the name index is rebuilt.
  void removeInstance(int idx);

 private:
  std::unordered_map<std::string, int> instByName_;
  std::uint64_t revision_ = 0;
};

}  // namespace pao::db
