#include "gen/registry.hpp"

#include "gen/generator.hpp"
#include "gen/presets.hpp"
#include "scenarios/accelerometer.hpp"
#include "scenarios/receiver.hpp"
#include "scenarios/sensing.hpp"
#include "scenarios/walkthrough.hpp"
#include "util/error.hpp"

namespace adpm::gen {

const std::vector<RegistryEntry>& scenarioRegistry() {
  static const std::vector<RegistryEntry> entries = [] {
    std::vector<RegistryEntry> out = {
        {"sensing", "builtin",
         "MEMS pressure-sensing case (paper §3.2 case 1)"},
        {"receiver", "builtin",
         "MEMS receiver case (paper §3.2 case 2), 3 designers"},
        {"receiver4", "builtin", "MEMS receiver case, 4-designer team"},
        {"accelerometer", "builtin", "MEMS accelerometer case (extension)"},
        {"walkthrough", "builtin",
         "receiver walkthrough, 11 properties (paper §2.4, Figs. 2-4)"},
    };
    for (const ZooPreset& preset : zooPresets()) {
      out.push_back({preset.name, "generated", preset.description});
    }
    return out;
  }();
  return entries;
}

dpm::ScenarioSpec scenarioByName(const std::string& name) {
  if (name == "sensing") return scenarios::sensingSystemScenario();
  if (name == "receiver") return scenarios::receiverScenario();
  if (name == "receiver4") return scenarios::receiverLargeTeamScenario();
  if (name == "accelerometer") return scenarios::accelerometerScenario();
  if (name == "walkthrough") return scenarios::walkthroughScenario();
  for (const ZooPreset& preset : zooPresets()) {
    if (preset.name == name) {
      return generate(parseParams(preset.paramfile)).spec;
    }
  }
  throw InvalidArgumentError("unknown scenario '" + name + "' (expected " +
                             registeredScenarioNames() + ")");
}

bool isRegisteredScenario(const std::string& name) {
  for (const RegistryEntry& entry : scenarioRegistry()) {
    if (entry.name == name) return true;
  }
  return false;
}

std::string registeredScenarioNames() {
  std::string out;
  for (const RegistryEntry& entry : scenarioRegistry()) {
    if (!out.empty()) out += ", ";
    out += entry.name;
  }
  return out;
}

}  // namespace adpm::gen
