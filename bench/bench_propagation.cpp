// Micro-benchmarks for the constraint substrate (google-benchmark).
//
// Not a paper figure: these quantify the cost of the primitives behind
// ADPM's "computational penalty" — one HC4 revise, one full propagation
// fixpoint, the single-pass ablation, and a what-if (relaxed) propagation —
// on both evaluation networks.  DESIGN.md lists the fixpoint-vs-single-pass
// choice as an ablation; the speed side of that trade-off lives here.
#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>

#include "constraint/miner.hpp"
#include "constraint/propagate.hpp"
#include "dpm/scenario.hpp"
#include "expr/sweep.hpp"
#include "gen/generator.hpp"
#include "gen/presets.hpp"
#include "gen/registry.hpp"
#include "scenarios/receiver.hpp"
#include "scenarios/sensing.hpp"
#include "teamsim/engine.hpp"

using namespace adpm;

namespace {

std::unique_ptr<dpm::DesignProcessManager> makeManager(bool receiver) {
  auto mgr = std::make_unique<dpm::DesignProcessManager>(
      dpm::DesignProcessManager::Options{.adpm = true});
  dpm::instantiate(receiver ? scenarios::receiverScenario()
                            : scenarios::sensingSystemScenario(),
                   *mgr);
  return mgr;
}

void BM_Hc4Revise(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  auto& net = mgr->network();
  auto box = net.currentBox();
  std::size_t i = 0;
  const auto ids = net.constraintIds();
  for (auto _ : state) {
    auto& c = net.constraint(ids[i % ids.size()]);
    auto working = box;
    benchmark::DoNotOptimize(
        c.compiled().revise(c.target(), {working.data(), working.size()}));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Hc4Revise)->Arg(0)->Arg(1)->ArgNames({"receiver"});

void BM_PropagationFixpoint(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  constraint::Propagator prop;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.run(mgr->network()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PropagationFixpoint)->Arg(0)->Arg(1)->ArgNames({"receiver"});

void BM_PropagationSinglePass(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  constraint::Propagator prop{
      constraint::Propagator::Options{.fixpoint = false}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.run(mgr->network()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PropagationSinglePass)->Arg(0)->Arg(1)->ArgNames({"receiver"});

void BM_WhatIfRelaxed(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  auto& net = mgr->network();
  // Bind a representative free variable so the relaxed run has work to do.
  const auto pid = net.propertyIds().at(7);
  net.bind(pid, net.property(pid).initial.hull().mid());
  constraint::Propagator prop;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.runRelaxed(net, pid));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WhatIfRelaxed)->Arg(0)->Arg(1)->ArgNames({"receiver"});

void BM_MinerFullPass(benchmark::State& state) {
  auto mgr = makeManager(state.range(0) != 0);
  constraint::Propagator prop;
  constraint::HeuristicMiner miner;
  for (auto _ : state) {
    const auto r = prop.run(mgr->network());
    benchmark::DoNotOptimize(miner.mine(mgr->network(), r));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MinerFullPass)->Arg(0)->Arg(1)->ArgNames({"receiver"});

// The DCM's per-operation mining pass, isolated.  Three engines:
//   mode 0 — Reference: evaluate + symbolic monotonicity walk per
//            (property, constraint) incidence, Θ(Σβᵢ) expression sweeps;
//   mode 1 — Fast/cold: one fused compiled-AD sweep per constraint, the
//            box generation bumped every iteration so the cache never hits,
//            Θ(nc) sweeps — this isolates the AD-sweep win;
//   mode 2 — Fast/cached: unchanged box (what-if reporting / repeated
//            browser refreshes), Θ(0) sweeps after the first mine.
// The `sweeps_per_mine` counter is the Θ-claim made observable; wall time
// is the actual win.  Charged evaluations are identical in all modes (the
// differential tests enforce it).
void BM_MineGuidance(benchmark::State& state) {
  const bool receiver = state.range(0) != 0;
  const int mode = static_cast<int>(state.range(1));
  auto mgr = makeManager(receiver);
  auto& net = mgr->network();
  constraint::Propagator prop;
  const auto propagation = prop.run(net);

  constraint::HeuristicMiner::Options options;
  options.engine = mode == 0 ? constraint::MinerEngine::Reference
                             : constraint::MinerEngine::Fast;
  const constraint::HeuristicMiner miner{options};

  // An unbound property whose no-op unbind bumps the box generation without
  // changing the box — the cache-invalidation knob for the cold mode.
  const auto unboundPid = [&]() {
    for (const auto pid : net.propertyIds()) {
      if (!net.property(pid).bound()) return pid;
    }
    return net.propertyIds().front();
  }();

  expr::resetSweepCount();
  std::uint64_t mines = 0;
  for (auto _ : state) {
    if (mode == 1) net.unbind(unboundPid);
    benchmark::DoNotOptimize(miner.mine(net, propagation));
    ++mines;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["sweeps_per_mine"] = benchmark::Counter(
      mines == 0 ? 0.0
                 : static_cast<double>(expr::sweepCount()) /
                       static_cast<double>(mines));
}
BENCHMARK(BM_MineGuidance)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2})
    ->ArgNames({"receiver", "mode"});

// One ADPM DCM pass — Propagator::run, then HeuristicMiner::mine with its
// what-if re-propagations — on the zoo-medium state a TeamSim session
// reaches after 15 operations (seed 1).  A no-op unbind bumps the network
// generation every iteration but leaves the box as it was, so each pass's
// main run replays every revise the previous iteration's main run recorded:
// this measures a warm pass, the floor of what the revise memo can save.
// BM_DcmNextOp below times the pass after a real operation.
// `evaluations_per_pass` is the charged cost, which the revise memo must not
// change; `sweeps_per_pass` counts the expression sweeps actually run.
void BM_DcmPass(benchmark::State& state) {
  teamsim::SimulationOptions options;
  options.seed = 1;
  teamsim::SimulationEngine engine(gen::scenarioByName("zoo-medium"),
                                   options);
  for (int op = 0; op < 15 && engine.step(); ++op) {
  }
  constraint::Network& net = engine.manager().network();
  const auto unboundPid = [&]() {
    for (const auto pid : net.propertyIds()) {
      if (!net.property(pid).bound()) return pid;
    }
    return net.propertyIds().front();
  }();
  constraint::Propagator prop;
  const constraint::HeuristicMiner miner;

  const std::size_t evaluationsBefore = net.evaluationCount();
  expr::resetSweepCount();
  std::uint64_t passes = 0;
  for (auto _ : state) {
    net.unbind(unboundPid);
    const constraint::PropagationResult propagation = prop.run(net);
    benchmark::DoNotOptimize(miner.mine(net, propagation));
    ++passes;
  }
  const auto perPass = [&](double total) {
    return benchmark::Counter(
        passes == 0 ? 0.0 : total / static_cast<double>(passes));
  };
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["evaluations_per_pass"] = perPass(
      static_cast<double>(net.evaluationCount() - evaluationsBefore));
  state.counters["sweeps_per_pass"] =
      perPass(static_cast<double>(expr::sweepCount()));
}
BENCHMARK(BM_DcmPass)->Unit(benchmark::kMillisecond);

/// Makes `to` hold `from`'s bindings and active constraints: the network
/// state a DCM pass reads.
void follow(constraint::Network& to, const constraint::Network& from) {
  for (const auto pid : from.propertyIds()) {
    const std::optional<double>& want = from.property(pid).value;
    const std::optional<double>& have = to.property(pid).value;
    if (want.has_value() == have.has_value() &&
        (!want || std::bit_cast<std::uint64_t>(*want) ==
                      std::bit_cast<std::uint64_t>(*have))) {
      continue;
    }
    if (want) {
      to.bind(pid, *want);
    } else {
      to.unbind(pid);
    }
  }
  for (const auto cid : from.constraintIds()) {
    if (from.isActive(cid) && !to.isActive(cid)) to.activate(cid);
  }
}

// The ADPM DCM pass after a real operation.  Per iteration, with timing
// paused, a fresh TeamSim session on zoo-medium (seed 1) is stepped to
// operation 15 and given the bindings and generated constraints operation
// 16 leaves; then operation 16's pass is timed.  Its main run replays the
// revises of operation 15's main run that operation 16 left unchanged:
// `main_hit_ratio` is the share of the main run's charged evaluations
// replayed.  The setup costs about 15 passes, so the iteration count is
// fixed.
void BM_DcmNextOp(benchmark::State& state) {
  const dpm::ScenarioSpec spec = gen::scenarioByName("zoo-medium");
  teamsim::SimulationOptions options;
  options.seed = 1;
  teamsim::SimulationEngine next(spec, options);
  for (int op = 0; op < 16 && next.step(); ++op) {
  }
  constraint::Propagator prop;
  const constraint::HeuristicMiner miner;

  std::unique_ptr<teamsim::SimulationEngine> engine;
  std::uint64_t evaluations = 0;
  std::uint64_t mainEvaluations = 0;
  std::uint64_t mainHits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    engine = std::make_unique<teamsim::SimulationEngine>(spec, options);
    for (int op = 0; op < 15 && engine->step(); ++op) {
    }
    constraint::Network& net = engine->manager().network();
    follow(net, next.manager().network());
    const std::size_t evaluationsBefore = net.evaluationCount();
    const std::uint64_t hitsBefore = net.reviseMemo().hits();
    state.ResumeTiming();

    const constraint::PropagationResult propagation = prop.run(net);
    const std::uint64_t hitsAfterMain = net.reviseMemo().hits();
    benchmark::DoNotOptimize(miner.mine(net, propagation));

    state.PauseTiming();
    evaluations += net.evaluationCount() - evaluationsBefore;
    mainEvaluations += propagation.evaluations;
    mainHits += hitsAfterMain - hitsBefore;
    engine.reset();
    state.ResumeTiming();
  }
  const double passes = static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["evaluations_per_pass"] =
      benchmark::Counter(static_cast<double>(evaluations) / passes);
  state.counters["main_hit_ratio"] = benchmark::Counter(
      mainEvaluations == 0 ? 0.0
                           : static_cast<double>(mainHits) /
                                 static_cast<double>(mainEvaluations));
}
BENCHMARK(BM_DcmNextOp)->Iterations(40)->Unit(benchmark::kMillisecond);

// Size sweep over the generated scenario zoo (~10 → ~6000 constraints).
// Zoom levels are forced eager so the whole network is active and the
// constraint count really is the series' x-axis; the `constraints` /
// `properties` counters carry it into BENCH_propagation.json.
void BM_PropagationGeneratedSweep(benchmark::State& state) {
  static constexpr const char* kPresets[] = {"zoo-toy", "zoo-small",
                                             "zoo-medium", "zoo-large",
                                             "zoo-xl"};
  gen::GenParams params =
      gen::zooPreset(kPresets[static_cast<std::size_t>(state.range(0))]);
  for (auto& level : params.zoom) level.deferred = false;

  auto mgr = std::make_unique<dpm::DesignProcessManager>(
      dpm::DesignProcessManager::Options{.adpm = true});
  dpm::instantiate(gen::generate(params).spec, *mgr);
  constraint::Propagator prop;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.run(mgr->network()));
  }
  state.counters["constraints"] = benchmark::Counter(
      static_cast<double>(mgr->network().constraintIds().size()));
  state.counters["properties"] = benchmark::Counter(
      static_cast<double>(mgr->network().propertyIds().size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PropagationGeneratedSweep)
    ->DenseRange(0, 4)
    ->ArgNames({"zoo"})
    ->Unit(benchmark::kMillisecond);

void BM_FullSimulation(benchmark::State& state) {
  const bool receiver = state.range(0) != 0;
  const bool adpm = state.range(1) != 0;
  const dpm::ScenarioSpec spec = receiver
                                     ? scenarios::receiverScenario()
                                     : scenarios::sensingSystemScenario();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    teamsim::SimulationOptions options;
    options.adpm = adpm;
    options.seed = seed++;
    teamsim::SimulationEngine engine(spec, options);
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullSimulation)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->ArgNames({"receiver", "adpm"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
