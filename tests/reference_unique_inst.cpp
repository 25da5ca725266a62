// Reference unique-instance extraction (see reference.hpp): the serial
// first-appearance loop db::UniqueInstanceIndex's sharded build replaced.
#include <map>
#include <tuple>

#include "reference.hpp"

namespace pao::reference {

db::UniqueInstances extractUniqueInstances(const db::Design& design) {
  using db::Coord;
  using db::Instance;
  using db::Master;
  using db::UniqueInstance;
  db::UniqueInstances out;
  out.classOf.assign(design.instances.size(), -1);

  using Key = std::tuple<const Master*, geom::Orient, std::vector<Coord>>;
  std::map<Key, int> classIdx;

  for (int i = 0; i < static_cast<int>(design.instances.size()); ++i) {
    const Instance& inst = design.instances[i];
    Key key{inst.master, inst.orient, db::trackOffsets(design, inst)};
    const auto it = classIdx.find(key);
    if (it == classIdx.end()) {
      UniqueInstance ui;
      ui.master = inst.master;
      ui.orient = inst.orient;
      ui.offsets = std::get<2>(key);
      ui.representative = i;
      ui.members.push_back(i);
      classIdx.emplace(std::move(key), static_cast<int>(out.classes.size()));
      out.classOf[i] = static_cast<int>(out.classes.size());
      out.classes.push_back(std::move(ui));
    } else {
      out.classes[it->second].members.push_back(i);
      out.classOf[i] = it->second;
    }
  }
  return out;
}

}  // namespace pao::reference
