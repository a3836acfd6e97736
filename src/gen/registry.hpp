// One scenario registry for every front-end.
//
// teamsim_cli, session_service_cli, session_server_cli and dddl_tool each
// used to carry their own name -> ScenarioSpec table; this registry is the
// single source, covering both the paper cases (scenarios/*.dddl) and the
// generated zoo presets (src/gen/presets.hpp).  Both are compiled in from
// the files under scenarios/; generated entries are produced on demand from
// their paramfile and are byte-deterministic.
#pragma once

#include <string>
#include <vector>

#include "dpm/scenario.hpp"
#include "gen/params.hpp"

namespace adpm::gen {

struct RegistryEntry {
  std::string name;
  /// "builtin" (a paper case, scenarios/<name>.dddl) or "generated" (zoo
  /// preset, scenarios/zoo/<name>.json).
  std::string kind;
  std::string description;
};

/// All registered scenarios: the five paper cases followed by the zoo
/// presets, in registration order.
const std::vector<RegistryEntry>& scenarioRegistry();

/// Builds the named scenario (parsed paper case or preset generation).
/// Throws InvalidArgumentError for unknown names, listing what exists.
dpm::ScenarioSpec scenarioByName(const std::string& name);

/// True when `name` is registered.
bool isRegisteredScenario(const std::string& name);

/// Comma-separated registered names (for usage strings).
std::string registeredScenarioNames();

}  // namespace adpm::gen
