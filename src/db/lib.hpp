// Cell library model: masters with pins (rectilinear shapes on routing
// layers) and obstructions. This is the LEF MACRO half of the database.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "geom/geom.hpp"

namespace pao::db {

enum class PinUse : std::uint8_t { kSignal, kPower, kGround, kClock };
enum class MasterClass : std::uint8_t { kCore, kBlock, kFiller, kEndcap };

struct PinShape {
  int layer = -1;  ///< routing layer index into Tech::layers()
  geom::Rect rect; ///< in master coordinates (bbox lower-left at origin)
};

struct Pin {
  std::string name;
  PinUse use = PinUse::kSignal;
  std::vector<PinShape> shapes;

  /// Signal and clock pins are the ones pin access serves.
  bool isSignal() const {
    return use == PinUse::kSignal || use == PinUse::kClock;
  }
  /// Power and ground pins: foreign metal to every signal pin.
  bool isSupply() const {
    return use == PinUse::kPower || use == PinUse::kGround;
  }
  /// Bounding box over all shapes (any layer).
  geom::Rect bbox() const;
  /// Shapes restricted to one layer.
  std::vector<geom::Rect> shapesOnLayer(int layer) const;
};

struct Obstruction {
  int layer = -1;
  geom::Rect rect;
};

class Master {
 public:
  std::string name;
  MasterClass cls = MasterClass::kCore;
  geom::Coord width = 0;
  geom::Coord height = 0;
  std::vector<Pin> pins;
  std::vector<Obstruction> obstructions;

  geom::Point size() const { return {width, height}; }
  geom::Rect bbox() const { return {0, 0, width, height}; }
  const Pin* findPin(std::string_view pinName) const;
  /// Signal/clock pins only — the ones detailed routing must access.
  std::vector<int> signalPinIndices() const;
};

class Library {
 public:
  Master& addMaster(std::string name);
  const Master* findMaster(std::string_view name) const;
  const std::vector<std::unique_ptr<Master>>& masters() const {
    return masters_;
  }

 private:
  std::vector<std::unique_ptr<Master>> masters_;
  std::unordered_map<std::string, Master*> byName_;
};

}  // namespace pao::db
