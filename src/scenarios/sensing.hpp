// Design case 1: the MEMS-based pressure sensing system.
//
// "The first case is the design of a MEMS-based pressure sensing system,
// composed of a capacitive pressure sensor and a mixed-signal interface
// circuit that are designed concurrently.  This case includes top-level
// constraints on sensing resolution, estimated yield, and achievable
// pressure range.  During simulations, the entire network contains up to 26
// properties and 21 constraints, most of them linear and monotonic."
// (paper, Section 3.2)
//
// The sensor models are standard first-order capacitive-sensor equations
// (parallel-plate capacitance, sensitivity, touch pressure, membrane
// stress); the interface models are first-order amplifier/ADC budgets.
// Coefficients are chosen so that a comfortable feasible region exists with
// the default requirements while leaving plenty of room for conventional
// designers to guess wrong.
#pragma once

#include "dpm/scenario.hpp"

namespace adpm::scenarios {

/// The sensing-system scenario, parsed from scenarios/sensing.dddl:
/// 26 properties, 21 constraints, 3 designers (team-leader,
/// device-engineer, circuit-designer).
dpm::ScenarioSpec sensingSystemScenario();

}  // namespace adpm::scenarios
