// Pins the paper cases' simulation numbers.  For every registered paper
// case, both process flows (λ = ADPM / conventional) and seeds 0-9, plus the
// receiver at three Fig. 10 gain tightnesses, the golden file records
// whether the run completed and its operation, charged-evaluation and spin
// counts.  Any change to a scenario file, the DDDL parser or the simulation
// semantics that moves one of these numbers fails here.
//
// On a mismatch the test writes the numbers it computed next to the gtest
// temp dir and names the file in the failure message; copy it over
// tests/scenarios/golden/paper_runs.txt only when a change of semantics is
// intended.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenarios/accelerometer.hpp"
#include "scenarios/receiver.hpp"
#include "scenarios/sensing.hpp"
#include "scenarios/walkthrough.hpp"
#include "teamsim/engine.hpp"

namespace adpm {
namespace {

constexpr std::uint64_t kSeeds = 10;

std::string goldenPath() {
  return std::string(ADPM_SOURCE_DIR) +
         "/tests/scenarios/golden/paper_runs.txt";
}

void appendRows(std::ostringstream& out, const std::string& label,
                const dpm::ScenarioSpec& spec) {
  for (const bool adpm : {true, false}) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      teamsim::SimulationOptions options;
      options.adpm = adpm;
      options.seed = seed;
      const teamsim::SimulationResult r =
          teamsim::SimulationEngine(spec, options).run();
      out << label << ' ' << (adpm ? "adpm" : "conventional") << " seed="
          << seed << " completed=" << r.completed
          << " operations=" << r.operations
          << " evaluations=" << r.evaluations << " spins=" << r.spins
          << '\n';
    }
  }
}

std::string computeRows() {
  std::ostringstream out;
  appendRows(out, "sensing", scenarios::sensingSystemScenario());
  appendRows(out, "receiver", scenarios::receiverScenario());
  appendRows(out, "receiver4", scenarios::receiverLargeTeamScenario());
  appendRows(out, "accelerometer", scenarios::accelerometerScenario());
  appendRows(out, "walkthrough", scenarios::walkthroughScenario());
  for (const double gain : {22.0, 27.0, 31.0}) {
    dpm::ScenarioSpec spec = scenarios::receiverScenario();
    spec.setRequirement("Gain-min", gain);
    std::ostringstream label;
    label << "receiver/Gain-min=" << gain;
    appendRows(out, label.str(), spec);
  }
  return out.str();
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') out.push_back(line);
  }
  return out;
}

TEST(PaperGolden, RunsMatchRecordedNumbers) {
  std::ifstream in(goldenPath());
  ASSERT_TRUE(in) << "missing " << goldenPath();
  std::ostringstream golden;
  golden << in.rdbuf();

  const std::string actual = computeRows();
  const std::vector<std::string> want = lines(golden.str());
  const std::vector<std::string> got = lines(actual);
  if (want == got) return;

  const std::string dump = ::testing::TempDir() + "paper_runs.actual.txt";
  std::ofstream(dump) << actual;
  ASSERT_EQ(want.size(), got.size()) << "computed rows written to " << dump;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "row " << i;
  }
  ADD_FAILURE() << "computed rows written to " << dump;
}

}  // namespace
}  // namespace adpm
