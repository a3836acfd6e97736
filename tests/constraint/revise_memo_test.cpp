// Exactness of the revise memo (constraint::ReviseMemo).
//
// The what-if runs replay revises the main run recorded, and the main run
// replays those of the previous generation's main run, instead of
// recomputing them.  That is only sound because a revise is a pure function
// of its constraint and the bits of its argument intervals; these tests hold
// the memoized hot path to the memo-less referenceMode oracle operation by
// operation — bit-identical propagation results, guidance reports and
// charged evaluation counts — and pin the memo's own contract: hits on
// infeasible revises, signed zeros, the size cap, the two generations it
// keeps and what-if runs that never record.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "constraint/miner.hpp"
#include "constraint/propagate.hpp"
#include "dpm/dcm.hpp"
#include "gen/registry.hpp"
#include "teamsim/engine.hpp"

#include "expect_same.hpp"

namespace adpm::constraint {
namespace {

// -- operation-by-operation differential over TeamSim runs ---------------------

dpm::DesignConstraintManager::Options referenceDcm() {
  dpm::DesignConstraintManager::Options o;
  o.propagation.referenceMode = true;
  o.miner.propagation.referenceMode = true;
  return o;
}

/// Makes `to` hold `from`'s bindings and active constraints: the state a
/// DCM pass reads.  Values compare bit for bit, so a -0.0 rebinds a +0.0.
void follow(Network& to, const Network& from) {
  for (const PropertyId p : from.propertyIds()) {
    const std::optional<double>& want = from.property(p).value;
    const std::optional<double>& have = to.property(p).value;
    if (want.has_value() == have.has_value() &&
        (!want || std::bit_cast<std::uint64_t>(*want) ==
                      std::bit_cast<std::uint64_t>(*have))) {
      continue;
    }
    if (want) {
      to.bind(p, *want);
    } else {
      to.unbind(p);
    }
  }
  for (const ConstraintId c : from.constraintIds()) {
    if (from.isActive(c) && !to.isActive(c)) to.activate(c);
  }
}

/// Runs the same TeamSim session on a default manager and on a referenceMode
/// one, one operation at a time, and compares them after every operation.
/// `hits` receives how many revises the default side replayed.  When
/// `mainHits` is set, a network that follows the default side runs one
/// main propagation per operation, checked against the oracle, and
/// `mainHits` receives how many of its revises were replayed from the
/// previous operation's run.
void runLockstep(const std::string& scenario, bool adpm, std::uint64_t seed,
                 std::size_t maxOps, std::uint64_t* hits = nullptr,
                 std::uint64_t* mainHits = nullptr) {
  SCOPED_TRACE(scenario + (adpm ? " adpm" : " conventional") + " seed " +
               std::to_string(seed));
  const dpm::ScenarioSpec spec = gen::scenarioByName(scenario);
  teamsim::SimulationOptions options;
  options.adpm = adpm;
  options.seed = seed;
  teamsim::SimulationEngine fast(spec, options);
  options.dcm = referenceDcm();
  teamsim::SimulationEngine reference(spec, options);

  const dpm::DesignConstraintManager fastDcm;
  const dpm::DesignConstraintManager referenceDcmPass(referenceDcm());

  // The follower has no DCM pass of its own: only the main runs below
  // touch its memo, as the manager's main run touches the default side's.
  dpm::DesignProcessManager follower(
      dpm::DesignProcessManager::Options{.adpm = false});
  if (mainHits != nullptr) {
    dpm::instantiate(spec, follower);
    *mainHits = 0;
  }
  const Propagator mainRun;
  const Propagator oracleRun{Propagator::Options{.referenceMode = true}};

  for (std::size_t op = 0; op < maxOps; ++op) {
    const bool moved = fast.step();
    ASSERT_EQ(moved, reference.step()) << "op " << op;
    if (!moved) break;
    SCOPED_TRACE(::testing::Message() << "op " << op + 1);

    dpm::DesignProcessManager& f = fast.manager();
    dpm::DesignProcessManager& r = reference.manager();
    ASSERT_EQ(f.network().evaluationCount(), r.network().evaluationCount());
    ASSERT_EQ(f.knownStatuses(), r.knownStatuses());
    ASSERT_EQ(f.latestGuidance() == nullptr, r.latestGuidance() == nullptr);
    if (f.latestGuidance() == nullptr) continue;
    expectSameGuidance(*f.latestGuidance(), *r.latestGuidance());

    if (mainHits != nullptr) {
      // The operation's main run on the follower, over the default side's
      // new state: it replays hits from the previous operation's run.
      Network& net = follower.network();
      follow(net, f.network());
      const std::uint64_t before = net.reviseMemo().hits();
      const PropagationResult main = mainRun.run(net);
      *mainHits += net.reviseMemo().hits() - before;
      const std::size_t referenceEvaluations = r.network().evaluationCount();
      expectSamePropagation(main, oracleRun.run(r.network()));
      r.network().resetEvaluationCount();
      r.network().chargeEvaluations(referenceEvaluations);
      ASSERT_FALSE(::testing::Test::HasFailure());
    }

    // The manager keeps no PropagationResult, so re-run one DCM pass on each
    // side over the unchanged state.  The default side's run is not the
    // first at this generation: it records nothing, and it and its what-ifs
    // hit the entries the manager's own pass recorded.
    const std::size_t evaluations = f.network().evaluationCount();
    const auto fe = fastDcm.evaluate(f.network());
    const auto re = referenceDcmPass.evaluate(r.network());
    expectSamePropagation(fe.propagation, re.propagation);
    expectSameGuidance(fe.guidance, re.guidance);
    ASSERT_EQ(fe.evaluations, re.evaluations);
    ASSERT_FALSE(::testing::Test::HasFailure());
    for (auto* net : {&f.network(), &r.network()}) {
      net->resetEvaluationCount();
      net->chargeEvaluations(evaluations);
    }
  }
  // The reference side never touches its memo.
  EXPECT_EQ(reference.manager().network().reviseMemo().hits(), 0u);
  EXPECT_TRUE(reference.manager().network().reviseMemo().empty());
  if (hits != nullptr) *hits = fast.manager().network().reviseMemo().hits();
}

class PaperCases
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(PaperCases, MatchesReferenceEveryOperation) {
  const auto& [scenario, adpm] = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    runLockstep(scenario, adpm, seed, 20000);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ReviseMemo, PaperCases,
    ::testing::Combine(::testing::Values("sensing", "receiver", "receiver4",
                                         "accelerometer", "walkthrough"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_adpm" : "_conventional");
    });

TEST(ReviseMemo, ZooToyAndSmallMatchReference) {
  for (const std::string scenario : {"zoo-toy", "zoo-small"}) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      runLockstep(scenario, true, seed, 20000);
    }
  }
}

TEST(ReviseMemo, ZooMediumMatchesReferenceAndReplays) {
  for (const std::uint64_t seed : {1u, 2u}) {
    std::uint64_t hits = 0;
    std::uint64_t mainHits = 0;
    runLockstep("zoo-medium", true, seed, 30, &hits, &mainHits);
    // zoo-medium's what-ifs and main runs must actually be served from the
    // memo, or the run proved nothing about replay.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(mainHits, 0u);
  }
}

// -- unit cases on hand-built networks -----------------------------------------

PropertySpec range(const std::string& name, double lo, double hi) {
  PropertySpec spec;
  spec.name = name;
  spec.object = "o";
  spec.initial = interval::Domain::continuous(lo, hi);
  return spec;
}

/// The same network built twice: one side runs the memoized fast path, the
/// other the referenceMode oracle.
template <typename Build>
struct Twins {
  Network fast;
  Network reference;
  explicit Twins(Build build) {
    build(fast);
    build(reference);
  }
  void bind(PropertyId p, double v) {
    fast.bind(p, v);
    reference.bind(p, v);
  }
  /// Main run on both sides, then the what-if for `p`; the two what-ifs
  /// must agree and charge alike.
  PropagationResult runThenRelax(PropertyId p) {
    Propagator prop;
    Propagator oracle{Propagator::Options{.referenceMode = true}};
    expectSamePropagation(prop.run(fast), oracle.run(reference));
    return relax(p);
  }
  PropagationResult relax(PropertyId p) {
    Propagator prop;
    Propagator oracle{Propagator::Options{.referenceMode = true}};
    PropagationResult mine = prop.runRelaxed(fast, p);
    expectSamePropagation(mine, oracle.runRelaxed(reference, p));
    EXPECT_EQ(fast.evaluationCount(), reference.evaluationCount());
    return mine;
  }
};

TEST(ReviseMemo, InfeasibleHitLeavesTheBoxUntouched) {
  Twins twins([](Network& net) {
    const PropertyId x = net.addProperty(range("x", 0, 10));
    const PropertyId y = net.addProperty(range("y", 0, 10));
    const PropertyId z = net.addProperty(range("z", 0, 10));
    net.addConstraint("sum", net.var(x) + net.var(y), Relation::Le,
                      expr::Expr::constant(3));
    net.addConstraint("cap", net.var(z), Relation::Le,
                      expr::Expr::constant(5));
  });
  twins.bind(PropertyId{0}, 5);
  twins.bind(PropertyId{1}, 5);

  const PropagationResult relaxed = twins.runThenRelax(PropertyId{2});
  // Both revises were replayed, the infeasible "sum" included.
  EXPECT_EQ(twins.fast.reviseMemo().hits(), 2u);
  EXPECT_TRUE(relaxed.isViolated(ConstraintId{0}));
  EXPECT_TRUE(sameBits(relaxed.hulls[0], interval::Interval(5)));
  EXPECT_TRUE(sameBits(relaxed.hulls[1], interval::Interval(5)));
  EXPECT_NEAR(relaxed.hulls[2].hi(), 5.0, 1e-6);
}

TEST(ReviseMemo, SignedZeroArgumentIsAMiss) {
  Twins twins([](Network& net) {
    const PropertyId x = net.addProperty(range("x", -1, 1));
    const PropertyId y = net.addProperty(range("y", -1, 1));
    const PropertyId z = net.addProperty(range("z", 0, 10));
    // Narrows y, so a (wrong) hit would write the recorded x back too.
    net.addConstraint("sum", net.var(x) + net.var(y), Relation::Le,
                      expr::Expr::constant(0.5));
    net.addConstraint("cap", net.var(z), Relation::Le,
                      expr::Expr::constant(5));
  });
  twins.bind(PropertyId{0}, 0.0);
  Propagator prop;
  Propagator oracle{Propagator::Options{.referenceMode = true}};
  expectSamePropagation(prop.run(twins.fast), oracle.run(twins.reference));
  ASSERT_EQ(twins.fast.reviseMemo().size(), 2u);

  // Rebinding x to -0.0 bumps the generation but no main run clears the
  // memo; "sum" over (-0.0, y) must not match the entry for (+0.0, y).
  twins.bind(PropertyId{0}, -0.0);
  const PropagationResult relaxed = twins.relax(PropertyId{2});
  EXPECT_EQ(twins.fast.reviseMemo().hits(), 1u);  // "cap" only
  EXPECT_TRUE(std::signbit(relaxed.hulls[0].lo()));
  EXPECT_TRUE(std::signbit(relaxed.hulls[0].hi()));
}

TEST(ReviseMemo, NeverHoldsMoreThanItsCap) {
  // 105 pairs a > b + 1e-3, b > a + 1e-3: each revise shaves a sliver and
  // requeues its partner, so the main run only stops at its revise cap,
  // 40 × 210 = 8400 revises, past the memo's 8192.
  constexpr std::uint32_t kPairs = 105;
  Twins twins([](Network& net) {
    for (std::uint32_t k = 0; k < kPairs; ++k) {
      const std::string n = std::to_string(k);
      const PropertyId a = net.addProperty(range(n + "a", 0, 100));
      const PropertyId b = net.addProperty(range(n + "b", 0, 100));
      net.addConstraint(n + "ab", net.var(a) - net.var(b), Relation::Ge,
                        expr::Expr::constant(1e-3));
      net.addConstraint(n + "ba", net.var(b) - net.var(a), Relation::Ge,
                        expr::Expr::constant(1e-3));
    }
  });
  Propagator prop;
  Propagator oracle{Propagator::Options{.referenceMode = true}};
  const PropagationResult main = prop.run(twins.fast);
  expectSamePropagation(main, oracle.run(twins.reference));
  ASSERT_GT(main.evaluations, ReviseMemo::kMaxEntries);
  // Every revise here narrows both arguments, so the value array may fill
  // a little before the entry array does; either way recording stops.
  EXPECT_LE(twins.fast.reviseMemo().size(), ReviseMemo::kMaxEntries);
  EXPECT_GT(twins.fast.reviseMemo().size(), ReviseMemo::kMaxEntries * 9 / 10);

  // A what-if over the capped memo (hits for the recorded prefix, misses
  // after it) still matches the oracle.
  twins.relax(PropertyId{0});
  EXPECT_GT(twins.fast.reviseMemo().hits(), 0u);
}

TEST(ReviseMemo, GenerationBumpClearsAndKeepsCapacity) {
  Twins twins([](Network& net) {
    const PropertyId x = net.addProperty(range("x", 0, 10));
    const PropertyId y = net.addProperty(range("y", 0, 10));
    net.addProperty(range("free", 0, 10));
    net.addConstraint("sum", net.var(x) + net.var(y), Relation::Le,
                      expr::Expr::constant(4));
    net.addConstraint("diff", net.var(x) - net.var(y), Relation::Ge,
                      expr::Expr::constant(1));
  });
  Propagator prop;
  ReviseMemo& memo = twins.fast.reviseMemo();
  EXPECT_EQ(memo.mappedBytes(), 0u);
  const PropagationResult first = prop.run(twins.fast);
  const std::size_t recorded = memo.size();
  ASSERT_EQ(recorded, first.evaluations);
  const std::size_t mapped = memo.mappedBytes();
  EXPECT_GT(mapped, 0u);

  // A second main run at the same generation records nothing more.
  prop.run(twins.fast);
  EXPECT_EQ(memo.size(), recorded);

  // Binding x bumps the generation: the next main run starts over, in the
  // storage the previous generation used.
  twins.fast.bind(PropertyId{0}, 3);
  const PropagationResult again = prop.run(twins.fast);
  EXPECT_NE(again.evaluations, first.evaluations);
  EXPECT_EQ(memo.size(), again.evaluations);
  EXPECT_EQ(memo.mappedBytes(), mapped);
}

TEST(ReviseMemo, RunRelaxedNeverRecords) {
  Twins twins([](Network& net) {
    const PropertyId x = net.addProperty(range("x", 0, 10));
    const PropertyId y = net.addProperty(range("y", 0, 10));
    const PropertyId z = net.addProperty(range("z", 0, 10));
    net.addConstraint("xy", net.var(x) + net.var(y), Relation::Le,
                      expr::Expr::constant(6));
    net.addConstraint("yz", net.var(y) * net.var(z), Relation::Ge,
                      expr::Expr::constant(8));
  });
  twins.bind(PropertyId{0}, 4);
  twins.bind(PropertyId{1}, 3);
  twins.runThenRelax(PropertyId{0});
  const std::size_t recorded = twins.fast.reviseMemo().size();
  ASSERT_GT(recorded, 0u);
  for (std::uint32_t p = 0; p < 3; ++p) twins.relax(PropertyId{p});
  EXPECT_EQ(twins.fast.reviseMemo().size(), recorded);

  // Nor does a what-if at a later generation with no main run before it.
  twins.bind(PropertyId{1}, 2);
  twins.relax(PropertyId{1});
  EXPECT_EQ(twins.fast.reviseMemo().size(), recorded);
}

// -- the two generations --------------------------------------------------------

TEST(ReviseMemo, MainRunReplaysThePreviousGeneration) {
  Twins twins([](Network& net) {
    const PropertyId x = net.addProperty(range("x", 0, 10));
    const PropertyId y = net.addProperty(range("y", 0, 10));
    const PropertyId z = net.addProperty(range("z", 0, 10));
    net.addConstraint("sum", net.var(x) + net.var(y), Relation::Le,
                      expr::Expr::constant(4));
    net.addConstraint("cap", net.var(z), Relation::Le,
                      expr::Expr::constant(5));
  });
  Propagator prop;
  Propagator oracle{Propagator::Options{.referenceMode = true}};
  expectSamePropagation(prop.run(twins.fast), oracle.run(twins.reference));
  ASSERT_EQ(twins.fast.reviseMemo().hits(), 0u);

  // Binding x leaves "cap"'s argument as generation 1 saw it: generation
  // 2's main run replays that revise, narrowing included, and computes
  // "sum".
  twins.bind(PropertyId{0}, 1);
  const PropagationResult second = prop.run(twins.fast);
  expectSamePropagation(second, oracle.run(twins.reference));
  EXPECT_EQ(twins.fast.evaluationCount(), twins.reference.evaluationCount());
  EXPECT_EQ(twins.fast.reviseMemo().hits(), 1u);
  EXPECT_NEAR(second.hulls[2].hi(), 5.0, 1e-6);
  // The replayed revise is recorded too: the generation holds the whole run.
  EXPECT_EQ(twins.fast.reviseMemo().size(), second.evaluations);
}

TEST(ReviseMemo, KeepsOnlyTheTwoLatestGenerations) {
  Twins twins([](Network& net) {
    const PropertyId x = net.addProperty(range("x", 0, 10));
    const PropertyId y = net.addProperty(range("y", 0, 10));
    net.addConstraint("sum", net.var(x) + net.var(y), Relation::Le,
                      expr::Expr::constant(4));
    net.addConstraint("diff", net.var(x) - net.var(y), Relation::Ge,
                      expr::Expr::constant(1));
  });
  Propagator prop;
  Propagator oracle{Propagator::Options{.referenceMode = true}};
  const auto mainRun = [&] {
    expectSamePropagation(prop.run(twins.fast), oracle.run(twins.reference));
  };
  ReviseMemo& memo = twins.fast.reviseMemo();
  mainRun();  // generation 1, x free
  twins.bind(PropertyId{0}, 3);
  mainRun();  // generation 2

  // Relaxing x gives back generation 1's box, and every revise of that
  // what-if involves x: its hits can only come from generation 1.
  std::uint64_t before = memo.hits();
  twins.relax(PropertyId{0});
  EXPECT_GT(memo.hits(), before);

  // Generation 3 drops generation 1: the same what-if finds nothing.
  twins.bind(PropertyId{0}, 2);
  mainRun();
  before = memo.hits();
  twins.relax(PropertyId{0});
  EXPECT_EQ(memo.hits(), before);
}

TEST(ReviseMemo, SignedZeroMissesAcrossGenerations) {
  Twins twins([](Network& net) {
    const PropertyId x = net.addProperty(range("x", -1, 1));
    const PropertyId y = net.addProperty(range("y", -1, 1));
    const PropertyId z = net.addProperty(range("z", 0, 10));
    net.addConstraint("sum", net.var(x) + net.var(y), Relation::Le,
                      expr::Expr::constant(0.5));
    net.addConstraint("cap", net.var(z), Relation::Le,
                      expr::Expr::constant(5));
  });
  Propagator prop;
  Propagator oracle{Propagator::Options{.referenceMode = true}};
  twins.bind(PropertyId{0}, 0.0);
  expectSamePropagation(prop.run(twins.fast), oracle.run(twins.reference));

  // Generation 2's main run looks "sum" over (-0.0, y) up in generation 1,
  // which holds it over (+0.0, y) only.
  twins.bind(PropertyId{0}, -0.0);
  const PropagationResult second = prop.run(twins.fast);
  expectSamePropagation(second, oracle.run(twins.reference));
  EXPECT_EQ(twins.fast.reviseMemo().hits(), 1u);  // "cap" only
  EXPECT_TRUE(std::signbit(second.hulls[0].lo()));
  EXPECT_TRUE(std::signbit(second.hulls[0].hi()));
}

TEST(ReviseMemo, CapHoldsPerGenerationInOneFixedBlock) {
  // The network of NeverHoldsMoreThanItsCap: each main run stops at its
  // revise cap, past the memo's.
  constexpr std::uint32_t kPairs = 105;
  Twins twins([](Network& net) {
    for (std::uint32_t k = 0; k < kPairs; ++k) {
      const std::string n = std::to_string(k);
      const PropertyId a = net.addProperty(range(n + "a", 0, 100));
      const PropertyId b = net.addProperty(range(n + "b", 0, 100));
      net.addConstraint(n + "ab", net.var(a) - net.var(b), Relation::Ge,
                        expr::Expr::constant(1e-3));
      net.addConstraint(n + "ba", net.var(b) - net.var(a), Relation::Ge,
                        expr::Expr::constant(1e-3));
    }
  });
  Propagator prop;
  Propagator oracle{Propagator::Options{.referenceMode = true}};
  ReviseMemo& memo = twins.fast.reviseMemo();
  expectSamePropagation(prop.run(twins.fast), oracle.run(twins.reference));
  const std::size_t mapped = memo.mappedBytes();
  ASSERT_GT(mapped, 0u);
  std::size_t recorded = memo.size();
  for (int generation = 2; generation <= 4; ++generation) {
    SCOPED_TRACE(::testing::Message() << "generation " << generation);
    // Unbinding an unbound property bumps the generation and leaves the
    // box as it was: the main run replays the whole recorded prefix.
    twins.fast.unbind(PropertyId{0});
    twins.reference.unbind(PropertyId{0});
    const std::uint64_t before = memo.hits();
    const PropagationResult main = prop.run(twins.fast);
    expectSamePropagation(main, oracle.run(twins.reference));
    EXPECT_EQ(twins.fast.evaluationCount(), twins.reference.evaluationCount());
    EXPECT_GE(memo.hits() - before, recorded);
    recorded = memo.size();
    EXPECT_LE(recorded, ReviseMemo::kMaxEntries);
    EXPECT_GT(recorded, ReviseMemo::kMaxEntries * 9 / 10);
    EXPECT_EQ(memo.mappedBytes(), mapped);
  }
}

}  // namespace
}  // namespace adpm::constraint
