// Design case 2: the MEMS-based wireless receiver front-end.
//
// "The second case is the design of a MEMS-based wireless receiver
// front-end, composed of mixed-signal circuitry and a MEMS-based
// channel-selection filter that are designed concurrently.  This case
// includes constraints on channel bandwidth, system gain, input impedance,
// frequency selection precision, and power consumption.  During simulations,
// up to 35 properties and 30 constraints exist, most of which are
// non-linear.  Thus this case can be viewed as 'harder' than the sensing
// system case." (paper, Section 3.2)
//
// Circuit models are the usual first-order RF sizing equations (square-law
// transconductance, 1/gm input matching, log-compressed tuned-load gain);
// the MEMS filter uses clamped-clamped-beam resonator relations (f ∝ t/L²,
// Q ∝ L/w, insertion loss falling with √Q — the DDDL monotonicity example in
// the paper: loss decreasing in resonator length, increasing in beam width).
#pragma once

#include "dpm/scenario.hpp"

namespace adpm::scenarios {

/// The receiver scenario, parsed from scenarios/receiver.dddl:
/// 35 properties, 30 constraints, 3 designers (team-leader,
/// circuit-designer, device-engineer).  Fig. 10 sweeps the tightness of its
/// "Gain-min" requirement (ScenarioSpec::setRequirement).
dpm::ScenarioSpec receiverScenario();

/// The same receiver with a larger team (scenarios/receiver4.dddl), as the
/// paper envisions ("although ADPM is envisioned for use by larger teams,
/// this example is large enough ..."): the analog side splits into an LNA
/// designer and a mixer/deserializer designer, giving 4 designers,
/// 4 objects and 4 problems.
/// The LNA-vs-mixer couplings (shared gain and power budgets) become
/// cross-subsystem, so late conflicts multiply in the conventional flow.
dpm::ScenarioSpec receiverLargeTeamScenario();

}  // namespace adpm::scenarios
