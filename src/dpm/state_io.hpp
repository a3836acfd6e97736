// JSON codec for ManagerState — the payload of a durable checkpoint.
//
// Builds/consumes util::json Values only; serialization to bytes stays in
// the WAL layer (the canonical-JSON discipline lives there).  All doubles
// are encoded as *strings* by the shared double codec (util/number.hpp, 17
// significant digits), not as JSON numbers: Interval and Domain bounds can
// be ±inf, which the canonical serializer (correctly) refuses as JSON
// numbers, and the string form round-trips every IEEE-754 double
// bit-exactly through util::parseDouble.
#pragma once

#include "dpm/manager.hpp"
#include "util/json.hpp"

namespace adpm::dpm {

util::json::Value managerStateToJson(const ManagerState& state);

/// Inverse of managerStateToJson.  Any structural problem (missing field,
/// wrong kind, out-of-range enum, unparseable number) throws
/// InvalidArgumentError — recovery treats the checkpoint as damaged and
/// falls back.
ManagerState managerStateFromJson(const util::json::Value& v);

}  // namespace adpm::dpm
