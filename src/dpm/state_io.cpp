#include "dpm/state_io.hpp"

#include <optional>
#include <utility>

#include "util/error.hpp"
#include "util/number.hpp"

namespace adpm::dpm {
namespace {

using util::json::Array;
using util::json::Object;
using util::json::Value;

// 17 digits round-trip every double; unlike json::formatNumber this accepts
// ±inf (Interval bounds are often infinite) because the result lands in a
// JSON *string*, never a JSON number.
std::string encodeDouble(double v) { return util::formatDouble(v); }

double decodeDouble(const Value& v) {
  const std::string& s = v.asString();
  const std::optional<double> parsed = util::parseDouble(s);
  if (!parsed) {
    throw adpm::InvalidArgumentError("state: bad double '" + s + "'");
  }
  return *parsed;
}

std::size_t decodeSize(const Value& v) {
  const double n = v.asNumber();
  if (n < 0 || n != static_cast<double>(static_cast<std::size_t>(n))) {
    throw adpm::InvalidArgumentError("state: bad non-negative integer");
  }
  return static_cast<std::size_t>(n);
}

int decodeInt(const Value& v) {
  const double n = v.asNumber();
  if (n != static_cast<double>(static_cast<int>(n))) {
    throw adpm::InvalidArgumentError("state: bad integer");
  }
  return static_cast<int>(n);
}

std::uint32_t decodeId(const Value& v) {
  const double n = v.asNumber();
  if (n < 0 || n != static_cast<double>(static_cast<std::uint32_t>(n))) {
    throw adpm::InvalidArgumentError("state: bad id");
  }
  return static_cast<std::uint32_t>(n);
}

Value domainToJson(const interval::Domain& d) {
  Value out{Object{}};
  if (d.isDiscrete()) {
    out.set("k", "d");
    Array vals;
    vals.reserve(d.values().size());
    for (double v : d.values()) vals.emplace_back(encodeDouble(v));
    out.set("vals", Value(std::move(vals)));
  } else {
    out.set("k", "c");
    const interval::Interval hull = d.hull();
    out.set("lo", encodeDouble(hull.lo()));
    out.set("hi", encodeDouble(hull.hi()));
  }
  return out;
}

interval::Domain domainFromJson(const Value& v) {
  const std::string& kind = v.at("k").asString();
  if (kind == "d") {
    std::vector<double> vals;
    for (const Value& e : v.at("vals").asArray()) vals.push_back(decodeDouble(e));
    return interval::Domain::discrete(std::move(vals));
  }
  if (kind == "c") {
    // Interval(lo, hi) with lo > hi canonicalizes to the empty set, so an
    // empty continuous domain round-trips through its (inverted) hull.
    return interval::Domain::continuous(decodeDouble(v.at("lo")),
                                        decodeDouble(v.at("hi")));
  }
  throw adpm::InvalidArgumentError("state: bad domain kind '" + kind + "'");
}

Value idArrayToJson(const std::vector<constraint::ConstraintId>& ids) {
  Array out;
  out.reserve(ids.size());
  for (constraint::ConstraintId id : ids) {
    out.emplace_back(static_cast<std::size_t>(id.value));
  }
  return Value(std::move(out));
}

std::vector<constraint::ConstraintId> idArrayFromJson(const Value& v) {
  std::vector<constraint::ConstraintId> out;
  for (const Value& e : v.asArray()) {
    out.push_back(constraint::ConstraintId{decodeId(e)});
  }
  return out;
}

Value guidanceToJson(const constraint::GuidanceReport& g) {
  Value out{Object{}};
  Array props;
  props.reserve(g.properties.size());
  for (const constraint::PropertyGuidance& p : g.properties) {
    Value pj{Object{}};
    pj.set("id", Value(static_cast<std::size_t>(p.id.value)));
    pj.set("feasible", domainToJson(p.feasible));
    pj.set("rel", encodeDouble(p.relativeFeasibleSize));
    pj.set("alpha", Value(p.alpha));
    pj.set("beta", Value(p.beta));
    pj.set("inc", idArrayToJson(p.increasing));
    pj.set("dec", idArrayToJson(p.decreasing));
    pj.set("up", Value(p.repairVotesUp));
    pj.set("down", Value(p.repairVotesDown));
    props.push_back(std::move(pj));
  }
  out.set("props", Value(std::move(props)));
  out.set("violated", idArrayToJson(g.violated));
  out.set("extra", Value(g.extraEvaluations));
  return out;
}

constraint::GuidanceReport guidanceFromJson(const Value& v) {
  constraint::GuidanceReport g;
  for (const Value& pj : v.at("props").asArray()) {
    constraint::PropertyGuidance p;
    p.id = constraint::PropertyId{decodeId(pj.at("id"))};
    p.feasible = domainFromJson(pj.at("feasible"));
    p.relativeFeasibleSize = decodeDouble(pj.at("rel"));
    p.alpha = decodeInt(pj.at("alpha"));
    p.beta = decodeInt(pj.at("beta"));
    p.increasing = idArrayFromJson(pj.at("inc"));
    p.decreasing = idArrayFromJson(pj.at("dec"));
    p.repairVotesUp = decodeInt(pj.at("up"));
    p.repairVotesDown = decodeInt(pj.at("down"));
    g.properties.push_back(std::move(p));
  }
  g.violated = idArrayFromJson(v.at("violated"));
  g.extraEvaluations = decodeSize(v.at("extra"));
  return g;
}

constraint::Status statusFromInt(std::uint32_t n) {
  switch (n) {
    case 0: return constraint::Status::Satisfied;
    case 1: return constraint::Status::Violated;
    case 2: return constraint::Status::Consistent;
  }
  throw adpm::InvalidArgumentError("state: bad constraint status");
}

ProblemStatus problemStatusFromInt(std::uint32_t n) {
  switch (n) {
    case 0: return ProblemStatus::Unassigned;
    case 1: return ProblemStatus::Ready;
    case 2: return ProblemStatus::InProgress;
    case 3: return ProblemStatus::Waiting;
    case 4: return ProblemStatus::Solved;
  }
  throw adpm::InvalidArgumentError("state: bad problem status");
}

}  // namespace

Value managerStateToJson(const ManagerState& state) {
  Value out{Object{}};
  out.set("stage", Value(state.stage));
  out.set("evals", Value(state.evaluations));

  Array bindings;
  bindings.reserve(state.bindings.size());
  for (const auto& [pid, value] : state.bindings) {
    bindings.emplace_back(Array{Value(static_cast<std::size_t>(pid.value)),
                                Value(encodeDouble(value))});
  }
  out.set("bindings", Value(std::move(bindings)));
  out.set("active", idArrayToJson(state.activeConstraints));

  Array versions;
  versions.reserve(state.objectVersions.size());
  for (const std::string& v : state.objectVersions) versions.emplace_back(v);
  out.set("versions", Value(std::move(versions)));

  Array problems;
  problems.reserve(state.problemStatuses.size());
  for (ProblemStatus s : state.problemStatuses) {
    problems.emplace_back(static_cast<std::size_t>(s));
  }
  out.set("problems", Value(std::move(problems)));

  Array known;
  known.reserve(state.knownStatuses.size());
  for (constraint::Status s : state.knownStatuses) {
    known.emplace_back(static_cast<std::size_t>(s));
  }
  out.set("known", Value(std::move(known)));

  Array stale;
  stale.reserve(state.stale.size());
  for (bool b : state.stale) stale.emplace_back(b);
  out.set("stale", Value(std::move(stale)));

  out.set("guidance", state.guidanceValid ? guidanceToJson(state.guidance)
                                          : Value(nullptr));
  out.set("prevGuidance", state.previousGuidanceValid
                              ? guidanceToJson(state.previousGuidance)
                              : Value(nullptr));

  Array staged;
  staged.reserve(state.staged.size());
  for (const auto& [cid, pid] : state.staged) {
    staged.emplace_back(Array{Value(static_cast<std::size_t>(cid.value)),
                              Value(static_cast<std::size_t>(pid.value))});
  }
  out.set("staged", Value(std::move(staged)));

  Array failed;
  failed.reserve(state.failedAssignments.size());
  for (const auto& [pid, values] : state.failedAssignments) {
    Array vals;
    vals.reserve(values.size());
    for (double v : values) vals.emplace_back(encodeDouble(v));
    failed.emplace_back(Array{Value(static_cast<std::size_t>(pid.value)),
                              Value(std::move(vals))});
  }
  out.set("failed", Value(std::move(failed)));
  return out;
}

ManagerState managerStateFromJson(const Value& v) {
  ManagerState state;
  state.stage = decodeSize(v.at("stage"));
  state.evaluations = decodeSize(v.at("evals"));

  for (const Value& e : v.at("bindings").asArray()) {
    const Array& pair = e.asArray();
    if (pair.size() != 2) {
      throw adpm::InvalidArgumentError("state: bad binding pair");
    }
    state.bindings.emplace_back(constraint::PropertyId{decodeId(pair[0])},
                                decodeDouble(pair[1]));
  }
  state.activeConstraints = idArrayFromJson(v.at("active"));

  for (const Value& e : v.at("versions").asArray()) {
    state.objectVersions.push_back(e.asString());
  }
  for (const Value& e : v.at("problems").asArray()) {
    state.problemStatuses.push_back(problemStatusFromInt(decodeId(e)));
  }
  for (const Value& e : v.at("known").asArray()) {
    state.knownStatuses.push_back(statusFromInt(decodeId(e)));
  }
  for (const Value& e : v.at("stale").asArray()) {
    state.stale.push_back(e.asBool());
  }

  const Value& guidance = v.at("guidance");
  state.guidanceValid = !guidance.isNull();
  if (state.guidanceValid) state.guidance = guidanceFromJson(guidance);
  const Value& prev = v.at("prevGuidance");
  state.previousGuidanceValid = !prev.isNull();
  if (state.previousGuidanceValid) {
    state.previousGuidance = guidanceFromJson(prev);
  }

  for (const Value& e : v.at("staged").asArray()) {
    const Array& pair = e.asArray();
    if (pair.size() != 2) {
      throw adpm::InvalidArgumentError("state: bad staged pair");
    }
    state.staged.emplace_back(constraint::ConstraintId{decodeId(pair[0])},
                              ProblemId{decodeId(pair[1])});
  }
  for (const Value& e : v.at("failed").asArray()) {
    const Array& pair = e.asArray();
    if (pair.size() != 2) {
      throw adpm::InvalidArgumentError("state: bad failed-assignment pair");
    }
    std::vector<double> values;
    for (const Value& fe : pair[1].asArray()) values.push_back(decodeDouble(fe));
    state.failedAssignments.emplace(constraint::PropertyId{decodeId(pair[0])},
                                    std::move(values));
  }
  return state;
}

}  // namespace adpm::dpm
