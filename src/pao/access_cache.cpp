#include "pao/access_cache.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <utility>

#include "geom/orient.hpp"
#include "util/fault.hpp"

namespace pao::core {

const ClassAccess* AccessCache::find(const Key& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

void AccessCache::store(const Key& key, ClassAccess originRelative) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Insert-if-absent: a published entry is never replaced, so concurrent
  // readers may hold a find() pointer without the lock. Two sessions racing
  // to store the same signature compute identical values anyway.
  entries_.try_emplace(key, std::move(originRelative));
}

void AccessCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

ClassAccess AccessCache::translate(const ClassAccess& ca,
                                   geom::Point origin) {
  ClassAccess out = ca;
  for (std::vector<AccessPoint>& pinAps : out.pinAps) {
    for (AccessPoint& ap : pinAps) ap.loc = ap.loc + origin;
  }
  return out;
}


namespace {

/// One line per record; fields are space-separated. Format:
///   FINGERPRINT <hex>
///   ENTRY <master> <orient> <numOffsets> <offsets...>
///   PIN <numAps>
///   AP <x> <y> <layer> <prefType> <nonPrefType> <dirs> <numVias> <names...>
///   ORDER <numPins> <positions...>
///   PATTERN <cost> <validated> <numIdx> <apIdx...>
constexpr const char* kHeaderV2 = "PAO_ACCESS_CACHE v2";

/// FNV-1a, 64-bit: tiny, well-distributed, and identical everywhere (no
/// dependence on std::hash's unspecified per-platform behavior).
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void str(std::string_view s) {
    bytes(s.data(), s.size());
    bytes("\0", 1);  // delimit so ("ab","c") != ("a","bc")
  }
  void num(long long v) { bytes(&v, sizeof v); }
  void rect(const geom::Rect& r) {
    num(r.xlo);
    num(r.ylo);
    num(r.xhi);
    num(r.yhi);
  }
};

}  // namespace

std::string AccessCache::fingerprint(const db::Tech& tech,
                                     const db::Library& lib) {
  Fnv1a f;
  f.num(tech.dbuPerMicron);
  for (const db::Layer& l : tech.layers()) {
    f.str(l.name);
    f.num(static_cast<int>(l.type));
    f.num(static_cast<int>(l.dir));
    f.num(l.width);
    f.num(l.pitch);
    f.num(l.minArea);
    f.num(l.cutSpacing);
  }
  for (const db::ViaDef& v : tech.viaDefs()) {
    f.str(v.name);
    f.num(v.botLayer);
    f.num(v.cutLayer);
    f.num(v.topLayer);
    f.rect(v.botEnc);
    f.rect(v.cut);
    f.rect(v.topEnc);
  }
  // Masters sorted by name: library insertion order is a parse artifact,
  // not part of the identity the cache depends on.
  std::vector<const db::Master*> masters;
  for (const auto& m : lib.masters()) masters.push_back(m.get());
  std::sort(masters.begin(), masters.end(),
            [](const db::Master* a, const db::Master* b) {
              return a->name < b->name;
            });
  for (const db::Master* m : masters) {
    f.str(m->name);
    f.num(static_cast<int>(m->cls));
    f.num(m->width);
    f.num(m->height);
    for (const db::Pin& pin : m->pins) {
      f.str(pin.name);
      f.num(static_cast<int>(pin.use));
      for (const db::PinShape& s : pin.shapes) {
        f.num(s.layer);
        f.rect(s.rect);
      }
    }
    for (const db::Obstruction& o : m->obstructions) {
      f.num(o.layer);
      f.rect(o.rect);
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(f.h));
  return buf;
}

std::string AccessCache::save(const db::Tech& tech,
                              const db::Library& lib) const {
  const std::lock_guard<std::mutex> lock(mu_);
  // entries_ is keyed by Master pointer, so its iteration order follows
  // heap addresses; serialize sorted by (master name, orient, offsets)
  // instead so the file is byte-stable across processes.
  std::vector<const std::pair<const Key, ClassAccess>*> ordered;
  ordered.reserve(entries_.size());
  for (const auto& entry : entries_) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(), [](const auto* a, const auto* b) {
    const auto& [ma, oa, offa] = a->first;
    const auto& [mb, ob, offb] = b->first;
    return std::tie(ma->name, oa, offa) < std::tie(mb->name, ob, offb);
  });

  std::ostringstream os;
  os << kHeaderV2 << "\n";
  os << "FINGERPRINT " << fingerprint(tech, lib) << "\n";
  for (const auto* entry : ordered) {
    const auto& [key, ca] = *entry;
    const auto& [master, orient, offsets] = key;
    os << "ENTRY " << master->name << " "
       << geom::toString(orient) << " " << offsets.size();
    for (const geom::Coord o : offsets) os << " " << o;
    os << "\n";
    os << "PINS " << ca.pinAps.size() << "\n";
    for (const std::vector<AccessPoint>& pinAps : ca.pinAps) {
      os << "PIN " << pinAps.size() << "\n";
      for (const AccessPoint& ap : pinAps) {
        os << "AP " << ap.loc.x << " " << ap.loc.y << " " << ap.layer << " "
           << static_cast<int>(ap.prefType) << " "
           << static_cast<int>(ap.nonPrefType) << " "
           << static_cast<int>(ap.dirs) << " " << ap.viaIdx.size();
        for (const std::int32_t v : ap.viaIdx) os << " " << tech.viaDef(v).name;
        os << "\n";
      }
    }
    os << "ORDER " << ca.pinOrder.size();
    for (const int p : ca.pinOrder) os << " " << p;
    os << "\n";
    os << "PATTERNS " << ca.patterns.size() << "\n";
    for (const AccessPattern& pat : ca.patterns) {
      os << "PATTERN " << pat.cost << " " << (pat.validated ? 1 : 0) << " "
         << pat.apIdx.size();
      for (const int i : pat.apIdx) os << " " << i;
      os << "\n";
    }
  }
  // Trailer: load() requires it for v2 files, so a file truncated on an
  // entry boundary (every record intact, later entries simply missing) is
  // still detected and rejected instead of silently loading short.
  os << "END " << ordered.size() << "\n";
  return os.str();
}

std::size_t AccessCache::load(const std::string& text, const db::Tech& tech,
                              const db::Library& lib,
                              std::string* errorOut) {
  const auto fail = [&](std::string why) {
    if (errorOut != nullptr) *errorOut = std::move(why);
    return std::size_t{0};
  };
  if (errorOut != nullptr) errorOut->clear();
  if (PAO_FAULT_POINT("cache.read")) {
    return fail("access cache: injected fault 'cache.read'");
  }
  const std::lock_guard<std::mutex> lock(mu_);
  std::istringstream is(text);
  std::string line;
  std::getline(is, line);
  if (line != kHeaderV2) {
    return fail("access cache: unrecognized header '" + line + "'");
  }

  std::string tag, fp;
  if (!(is >> tag >> fp) || tag != "FINGERPRINT") {
    return fail("access cache: malformed v2 header (missing FINGERPRINT)");
  }
  const std::string expected = fingerprint(tech, lib);
  if (fp != expected) {
    return fail("access cache: fingerprint mismatch (cache " + fp +
                ", tech/library " + expected +
                ") — the cache was built against a different library");
  }

  // v2 is all-or-nothing: parse into `pending` and commit only when the
  // whole file (through the END trailer) is consistent. A truncated or
  // bit-flipped file must never install partial entries — and must never
  // read out of bounds, so every record count is checked against the bytes
  // actually remaining before anything is resized to it.
  const auto corrupt = [&](const std::string& what) {
    return fail("access cache: corrupt or truncated file: " + what);
  };
  const auto remaining = [&]() -> std::size_t {
    const auto pos = is.tellg();
    if (pos < 0) return 0;
    const auto upos = static_cast<std::size_t>(pos);
    return upos >= text.size() ? 0 : text.size() - upos;
  };
  // Reads a count whose elements each occupy at least two bytes (" x").
  const auto readCount = [&](std::size_t& n, const char* what) {
    long long v = 0;
    if (!(is >> v) || v < 0) return false;
    if (static_cast<unsigned long long>(v) > remaining() / 2) return false;
    n = static_cast<std::size_t>(v);
    (void)what;
    return true;
  };
  const auto expectTag = [&](const char* t) {
    std::string got;
    return (is >> got) && got == t;
  };

  std::vector<std::pair<Key, ClassAccess>> pending;
  std::string tok;
  bool sawEnd = false;
  while (is >> tok) {
    if (tok == "END") {
      long long count = -1;
      if (!(is >> count) ||
          count != static_cast<long long>(pending.size())) {
        return corrupt("END count does not match entries present");
      }
      if (is >> tok) return corrupt("data after END trailer");
      sawEnd = true;
      break;
    }
    if (tok != "ENTRY") return corrupt("expected ENTRY, got '" + tok + "'");
    std::string masterName, orientStr;
    std::size_t numOffsets = 0;
    if (!(is >> masterName >> orientStr) ||
        !readCount(numOffsets, "offsets")) {
      return corrupt("bad ENTRY record");
    }
    std::vector<geom::Coord> offsets(numOffsets);
    for (geom::Coord& o : offsets) {
      if (!(is >> o)) return corrupt("bad ENTRY offsets");
    }
    // The fingerprint matched, so every master and via the file references
    // must exist; a miss here means the body was tampered with.
    const db::Master* master = lib.findMaster(masterName);
    if (master == nullptr) {
      return corrupt("unknown master '" + masterName + "'");
    }

    ClassAccess ca;
    std::size_t numPins = 0;
    if (!expectTag("PINS") || !readCount(numPins, "pins")) {
      return corrupt("bad PINS record");
    }
    ca.pinAps.resize(numPins);
    for (std::vector<AccessPoint>& pinAps : ca.pinAps) {
      std::size_t numAps = 0;
      if (!expectTag("PIN") || !readCount(numAps, "aps")) {
        return corrupt("bad PIN record");
      }
      pinAps.resize(numAps);
      for (AccessPoint& ap : pinAps) {
        int pref = 0, nonPref = 0, dirs = 0;
        std::size_t numVias = 0;
        if (!expectTag("AP") ||
            !(is >> ap.loc.x >> ap.loc.y >> ap.layer >> pref >> nonPref >>
              dirs) ||
            !readCount(numVias, "vias")) {
          return corrupt("bad AP record");
        }
        ap.prefType = static_cast<CoordType>(pref);
        ap.nonPrefType = static_cast<CoordType>(nonPref);
        ap.dirs = static_cast<std::uint8_t>(dirs);
        for (std::size_t v = 0; v < numVias; ++v) {
          std::string viaName;
          if (!(is >> viaName)) return corrupt("bad AP via list");
          const db::ViaDef* via = tech.findViaDef(viaName);
          if (via == nullptr) {
            return corrupt("unknown via '" + viaName + "'");
          }
          ap.viaIdx.push_back(via->index);
        }
      }
    }
    std::size_t numOrder = 0;
    if (!expectTag("ORDER") || !readCount(numOrder, "order")) {
      return corrupt("bad ORDER record");
    }
    ca.pinOrder.resize(numOrder);
    for (int& p : ca.pinOrder) {
      if (!(is >> p)) return corrupt("bad ORDER positions");
    }
    std::size_t numPatterns = 0;
    if (!expectTag("PATTERNS") || !readCount(numPatterns, "patterns")) {
      return corrupt("bad PATTERNS record");
    }
    ca.patterns.resize(numPatterns);
    for (AccessPattern& pat : ca.patterns) {
      int validated = 0;
      std::size_t numIdx = 0;
      if (!expectTag("PATTERN") || !(is >> pat.cost >> validated) ||
          !readCount(numIdx, "ap indices")) {
        return corrupt("bad PATTERN record");
      }
      pat.validated = validated != 0;
      pat.apIdx.resize(numIdx);
      for (int& i : pat.apIdx) {
        if (!(is >> i)) return corrupt("bad PATTERN indices");
      }
    }
    pending.emplace_back(
        Key{master, geom::orientFromString(orientStr), std::move(offsets)},
        std::move(ca));
  }
  if (!sawEnd) return corrupt("missing END trailer");

  for (auto& [key, ca] : pending) {
    entries_.insert_or_assign(std::move(key), std::move(ca));
  }
  return pending.size();
}

}  // namespace pao::core
