// Design case 3 (extension): a capacitive MEMS accelerometer with a readout
// ASIC, designed concurrently by a proof-mass engineer and a circuit
// designer.
//
// The paper's conclusion calls for evaluating "other types of problems and
// heuristics"; this case differs from the two shipped with the paper in
// kind: a min() bandwidth coupling (system bandwidth is limited by whichever
// of the mechanical resonance and the readout bandwidth is smaller), an
// electro-mechanical cross constraint (the readout bias voltage must stay
// under the proof-mass pull-in limit), and a noise budget mixing mechanical
// Brownian noise with electrical noise referred through the sense
// capacitance.
#pragma once

#include "dpm/scenario.hpp"

namespace adpm::scenarios {

/// The accelerometer scenario, parsed from scenarios/accelerometer.dddl:
/// 20 properties, 14 constraints, 3 designers (team-leader, mems-engineer,
/// asic-designer).
dpm::ScenarioSpec accelerometerScenario();

}  // namespace adpm::scenarios
