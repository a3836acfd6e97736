// The Section 2.4 walkthrough: team-based design of a MEMS-based wireless
// receiver front-end (LNA+mixer concurrently with a MEMS filtering device),
// reduced to the handful of properties the paper's Figs. 2-4 display.
//
// The models are tuned so the paper's storyline reproduces quantitatively:
//  * the device engineer sets the beam length to ~13 um to hit the channel
//    frequency (Fc-target admits beam lengths in ≈[12.8, 13.2] um),
//  * the circuit designer sees a small feasible window for the load inductor
//    and a wider one for the differential-pair width (Fig. 2),
//  * Diff-pair-W appears in 3 constraints, β = 3 (Fig. 3),
//  * choosing W = 2.5 um violates the total-gain requirement; the leader
//    tightening the Zin requirement to 40 Ω adds an impedance violation
//    (α(Diff-pair-W) = 2, Fig. 4),
//  * widening the differential pair to 3.5 um fixes both violations in a
//    single operation (Section 2.4.3).
#pragma once

#include "dpm/scenario.hpp"

namespace adpm::scenarios {

/// The walkthrough scenario, parsed from scenarios/walkthrough.dddl:
/// 11 properties, 3 designers (team-leader, circuit-designer,
/// device-engineer).
dpm::ScenarioSpec walkthroughScenario();

/// Property indices within the walkthrough spec, for scripted drivers.
struct WalkthroughIds {
  std::size_t minGain, maxPower, maxZin;            // system requirements
  std::size_t diffPairW, freqInd, lnaGain, lnaPower, lnaZin;  // LNA+Mixer
  std::size_t beamLength, centerFreq, insertionLoss;          // MEMS filter
  std::size_t topProblem, lnaProblem, filterProblem;          // problems
};
WalkthroughIds walkthroughIds(const dpm::ScenarioSpec& spec);

}  // namespace adpm::scenarios
