#include "lefdef/lef_parser.hpp"

#include <cmath>

#include "lefdef/lexer.hpp"

namespace pao::lefdef {

namespace {

using db::Layer;
using db::LayerType;
using db::Library;
using db::Master;
using db::Pin;
using db::Tech;
using db::ViaDef;
using geom::Coord;
using geom::Rect;

class LefParser {
 public:
  LefParser(std::string_view text, Tech& tech, Library& lib,
            const ParseOptions& opts)
      : lines_(text),
        lex_(text, lines_, opts.file),
        opts_(opts),
        tech_(tech),
        lib_(lib) {}

  ParseResult run() {
    ParseResult res;
    while (!lex_.done()) {
      const std::size_t before = lex_.pos();
      try {
        step();
      } catch (const ParseError& e) {
        if (!opts_.recover) throw;
        res.diags.push_back(e.diag);
        if (res.errorCount() >= opts_.maxErrors) {
          res.diags.push_back(tooManyErrors(opts_.file));
          break;
        }
        // Progress guard + resync. An error inside a MACRO resyncs at the
        // top level, so the rest of that macro's statements are dropped —
        // the partially-built entity stays (documented in DESIGN.md).
        if (lex_.pos() == before && !lex_.done()) lex_.next();
        lex_.syncTo({"UNITS", "LAYER", "VIA", "MACRO", "END"});
      }
    }
    return res;
  }

 private:
  void step() {
    const std::string_view tok = lex_.peek();
    if (tok == "UNITS") {
      parseUnits();
    } else if (tok == "LAYER") {
      parseLayer();
    } else if (tok == "VIA") {
      parseVia();
    } else if (tok == "MACRO") {
      parseMacro();
    } else if (tok == "END") {
      lex_.next();
      if (!lex_.done()) lex_.next();  // END LIBRARY / END <name>
    } else {
      lex_.skipStatement();
    }
  }

  Coord dbu() { return lex_.nextDbu(tech_.dbuPerMicron); }

  void parseUnits() {
    lex_.expect("UNITS");
    while (!lex_.accept("END")) {
      if (lex_.accept("DATABASE")) {
        lex_.expect("MICRONS");
        tech_.dbuPerMicron = static_cast<int>(lex_.nextInt());
        lex_.expect(";");
      } else {
        lex_.skipStatement();
      }
    }
    lex_.expect("UNITS");
  }

  void parseLayer() {
    lex_.expect("LAYER");
    const std::string name(lex_.next());
    // TYPE must come first to know the layer kind; default to masterslice.
    Layer& layer = tech_.addLayer(name, LayerType::kMasterslice);
    while (!lex_.done()) {
      const std::string_view tok = lex_.peek();
      if (tok == "END") {
        lex_.next();
        lex_.expect(name);
        break;
      }
      if (lex_.accept("TYPE")) {
        const std::string_view t = lex_.next();
        if (t == "ROUTING") {
          layer.type = LayerType::kRouting;
        } else if (t == "CUT") {
          layer.type = LayerType::kCut;
        }
        lex_.expect(";");
      } else if (lex_.accept("DIRECTION")) {
        layer.dir = lex_.next() == "VERTICAL" ? db::Dir::kVertical
                                              : db::Dir::kHorizontal;
        lex_.expect(";");
      } else if (lex_.accept("PITCH")) {
        layer.pitch = dbu();
        lex_.expect(";");
      } else if (lex_.accept("WIDTH")) {
        layer.width = dbu();
        lex_.expect(";");
      } else if (lex_.accept("AREA")) {
        // LEF AREA is in square microns. roundClamped instead of a raw
        // cast: a fuzzer-supplied "AREA 1e300" must saturate, not hit the
        // UB of an out-of-range double->int64 conversion (and rounding
        // keeps write->parse->write byte-stable where truncation would
        // drift).
        const double um2 = lex_.nextDouble();
        layer.minArea = static_cast<Coord>(
            roundClamped(um2 * tech_.dbuPerMicron * tech_.dbuPerMicron));
        lex_.expect(";");
      } else if (lex_.accept("SPACING")) {
        const Coord space = dbu();
        if (lex_.accept("ENDOFLINE")) {
          db::EolRule eol;
          eol.space = space;
          eol.eolWidth = dbu();
          lex_.expect("WITHIN");
          eol.within = dbu();
          layer.eol = eol;
        } else if (layer.type == LayerType::kCut) {
          layer.cutSpacing = space;
        } else {
          layer.spacingTable.push_back({0, 0, space});
        }
        lex_.expect(";");
      } else if (lex_.accept("SPACINGTABLE")) {
        parseSpacingTable(layer);
      } else if (lex_.accept("MINSTEP")) {
        db::MinStepRule ms;
        ms.minStepLength = dbu();
        if (lex_.accept("MAXEDGES")) ms.maxEdges = static_cast<int>(lex_.nextInt());
        layer.minStep = ms;
        lex_.expect(";");
      } else {
        lex_.skipStatement();
      }
    }
  }

  // SPACINGTABLE PARALLELRUNLENGTH prl1 prl2 ...
  //   WIDTH w1 s11 s12 ...
  //   WIDTH w2 s21 s22 ... ;
  void parseSpacingTable(Layer& layer) {
    lex_.expect("PARALLELRUNLENGTH");
    std::vector<Coord> prls;
    while (lex_.peek() != "WIDTH" && lex_.peek() != ";") prls.push_back(dbu());
    while (lex_.accept("WIDTH")) {
      const Coord w = dbu();
      for (const Coord prl : prls) {
        const Coord s = dbu();
        layer.spacingTable.push_back({w, prl, s});
      }
    }
    lex_.expect(";");
  }

  void parseVia() {
    lex_.expect("VIA");
    ViaDef& via = tech_.addViaDef(std::string(lex_.next()));
    via.isDefault = lex_.accept("DEFAULT");
    int curLayer = -1;
    while (!lex_.done()) {
      if (lex_.peek() == "END") {
        lex_.next();
        lex_.expect(via.name);
        break;
      }
      if (lex_.accept("LAYER")) {
        const Layer* l = tech_.findLayer(lex_.next());
        curLayer = l ? l->index : -1;
        lex_.expect(";");
      } else if (lex_.accept("RECT")) {
        const Coord x1 = dbu();
        const Coord y1 = dbu();
        const Coord x2 = dbu();
        const Coord y2 = dbu();
        lex_.expect(";");
        if (curLayer < 0) continue;
        const Rect r{x1, y1, x2, y2};
        const Layer& l = tech_.layer(curLayer);
        if (l.type == LayerType::kCut) {
          via.cutLayer = curLayer;
          via.cut = r;
        } else if (via.botLayer < 0) {
          via.botLayer = curLayer;
          via.botEnc = r;
        } else {
          // Lower routing layer index is the bottom.
          if (curLayer < via.botLayer) {
            via.topLayer = via.botLayer;
            via.topEnc = via.botEnc;
            via.botLayer = curLayer;
            via.botEnc = r;
          } else {
            via.topLayer = curLayer;
            via.topEnc = r;
          }
        }
      } else {
        lex_.skipStatement();
      }
    }
  }

  void parseMacro() {
    lex_.expect("MACRO");
    Master& m = lib_.addMaster(std::string(lex_.next()));
    while (!lex_.done()) {
      if (lex_.peek() == "END") {
        lex_.next();
        lex_.expect(m.name);
        break;
      }
      if (lex_.accept("CLASS")) {
        const std::string_view c = lex_.next();
        if (c == "CORE") {
          m.cls = db::MasterClass::kCore;
          // CORE subtypes (SPACER etc.) may follow.
          if (lex_.peek() != ";") {
            if (lex_.next() == "SPACER") m.cls = db::MasterClass::kFiller;
          }
        } else if (c == "BLOCK") {
          m.cls = db::MasterClass::kBlock;
        } else if (c == "ENDCAP") {
          m.cls = db::MasterClass::kEndcap;
        }
        while (!lex_.accept(";")) lex_.next();
      } else if (lex_.accept("SIZE")) {
        m.width = dbu();
        lex_.expect("BY");
        m.height = dbu();
        lex_.expect(";");
      } else if (lex_.accept("PIN")) {
        parsePin(m);
      } else if (lex_.accept("OBS")) {
        parseObs(m);
      } else {
        lex_.skipStatement();
      }
    }
  }

  void parsePin(Master& m) {
    Pin& pin = m.pins.emplace_back();
    pin.name = std::string(lex_.next());
    while (!lex_.done()) {
      if (lex_.peek() == "END") {
        lex_.next();
        lex_.expect(pin.name);
        break;
      }
      if (lex_.accept("USE")) {
        const std::string_view u = lex_.next();
        if (u == "POWER") {
          pin.use = db::PinUse::kPower;
        } else if (u == "GROUND") {
          pin.use = db::PinUse::kGround;
        } else if (u == "CLOCK") {
          pin.use = db::PinUse::kClock;
        } else {
          pin.use = db::PinUse::kSignal;
        }
        lex_.expect(";");
      } else if (lex_.accept("PORT")) {
        int curLayer = -1;
        while (!lex_.accept("END")) {
          if (lex_.accept("LAYER")) {
            const Layer* l = tech_.findLayer(lex_.next());
            curLayer = l ? l->index : -1;
            lex_.expect(";");
          } else if (lex_.accept("RECT")) {
            const Coord x1 = dbu();
            const Coord y1 = dbu();
            const Coord x2 = dbu();
            const Coord y2 = dbu();
            lex_.expect(";");
            if (curLayer >= 0) pin.shapes.push_back({curLayer, {x1, y1, x2, y2}});
          } else {
            lex_.skipStatement();
          }
        }
      } else {
        lex_.skipStatement();
      }
    }
  }

  void parseObs(Master& m) {
    int curLayer = -1;
    while (!lex_.accept("END")) {
      if (lex_.accept("LAYER")) {
        const Layer* l = tech_.findLayer(lex_.next());
        curLayer = l ? l->index : -1;
        lex_.expect(";");
      } else if (lex_.accept("RECT")) {
        const Coord x1 = dbu();
        const Coord y1 = dbu();
        const Coord x2 = dbu();
        const Coord y2 = dbu();
        lex_.expect(";");
        if (curLayer >= 0) m.obstructions.push_back({curLayer, {x1, y1, x2, y2}});
      } else {
        lex_.skipStatement();
      }
    }
  }

  LineIndex lines_;  ///< declared before lex_, which points into it
  Lexer lex_;
  ParseOptions opts_;
  Tech& tech_;
  Library& lib_;
};

}  // namespace

void parseLef(std::string_view text, db::Tech& tech, db::Library& lib) {
  LefParser(text, tech, lib, ParseOptions{}).run();
}

ParseResult parseLef(std::string_view text, db::Tech& tech, db::Library& lib,
                     const ParseOptions& opts) {
  return LefParser(text, tech, lib, opts).run();
}

}  // namespace pao::lefdef
