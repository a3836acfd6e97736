// The paper cases are parsed from their embedded DDDL once per process and
// handed out as copies; a copy shares the immutable expression nodes.
#include "dddl/parser.hpp"
#include "scenarios/accelerometer.hpp"
#include "scenarios/embedded.hpp"
#include "scenarios/receiver.hpp"
#include "scenarios/sensing.hpp"
#include "scenarios/walkthrough.hpp"
#include "util/error.hpp"

namespace adpm::scenarios {

namespace {

dpm::ScenarioSpec parseEmbedded(std::string_view file) {
  return dddl::parse(embeddedFile(file));
}

}  // namespace

dpm::ScenarioSpec sensingSystemScenario() {
  static const dpm::ScenarioSpec spec = parseEmbedded("sensing.dddl");
  return spec;
}

dpm::ScenarioSpec receiverScenario() {
  static const dpm::ScenarioSpec spec = parseEmbedded("receiver.dddl");
  return spec;
}

dpm::ScenarioSpec receiverLargeTeamScenario() {
  static const dpm::ScenarioSpec spec = parseEmbedded("receiver4.dddl");
  return spec;
}

dpm::ScenarioSpec accelerometerScenario() {
  static const dpm::ScenarioSpec spec = parseEmbedded("accelerometer.dddl");
  return spec;
}

dpm::ScenarioSpec walkthroughScenario() {
  static const dpm::ScenarioSpec spec = parseEmbedded("walkthrough.dddl");
  return spec;
}

WalkthroughIds walkthroughIds(const dpm::ScenarioSpec& spec) {
  auto prop = [&](const char* name) {
    const auto i = spec.propertyIndex(name);
    if (!i) throw adpm::InvalidArgumentError(std::string("missing ") + name);
    return *i;
  };
  auto prob = [&](const char* name) {
    const auto i = spec.problemIndex(name);
    if (!i) throw adpm::InvalidArgumentError(std::string("missing ") + name);
    return *i;
  };
  WalkthroughIds ids{};
  ids.minGain = prop("Min-gain");
  ids.maxPower = prop("Max-power");
  ids.maxZin = prop("Max-Zin");
  ids.diffPairW = prop("Diff-pair-W");
  ids.freqInd = prop("Freq-ind");
  ids.lnaGain = prop("LNA-gain");
  ids.lnaPower = prop("LNA-power");
  ids.lnaZin = prop("LNA-Zin");
  ids.beamLength = prop("Beam-length");
  ids.centerFreq = prop("Center-freq");
  ids.insertionLoss = prop("Insertion-loss");
  ids.topProblem = prob("Transceiver");
  ids.lnaProblem = prob("LNA+Mixer-design");
  ids.filterProblem = prob("Filter-design");
  return ids;
}

}  // namespace adpm::scenarios
