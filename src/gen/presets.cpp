#include "gen/presets.hpp"

#include "scenarios/embedded.hpp"
#include "util/error.hpp"

namespace adpm::gen {

namespace {

ZooPreset preset(const std::string& name, std::string description) {
  return {name, std::string(scenarios::embeddedFile("zoo/" + name + ".json")),
          std::move(description)};
}

}  // namespace

const std::vector<ZooPreset>& zooPresets() {
  static const std::vector<ZooPreset> presets = {
      preset("zoo-toy", "2 flat subsystems, ~11 constraints"),
      preset("zoo-small", "5 flat subsystems, ~60 constraints"),
      preset("zoo-medium", "6 subsystems, 1 zoom level, ~300 constraints"),
      preset("zoo-large", "10 subsystems, 2 zoom levels, ~1500 constraints"),
      preset("zoo-xl", "20 subsystems, 2 zoom levels, >5000 constraints"),
  };
  return presets;
}

GenParams zooPreset(const std::string& name) {
  for (const ZooPreset& preset : zooPresets()) {
    if (preset.name == name) return parseParams(preset.paramfile);
  }
  std::string known;
  for (const ZooPreset& preset : zooPresets()) {
    if (!known.empty()) known += ", ";
    known += preset.name;
  }
  throw InvalidArgumentError("unknown zoo preset '" + name + "' (expected " +
                             known + ")");
}

}  // namespace adpm::gen
