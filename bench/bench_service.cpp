// Recovery cost of the design-session service (google-benchmark): the WAL
// recovery chain shapes.  Closed-loop session throughput and latency are
// measured by the benchmark of record, adpm_bench (bench/e2e), which reports
// percentiles and a per-layer breakdown.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include "dddl/writer.hpp"
#include "scenarios/sensing.hpp"
#include "service/store.hpp"

using namespace adpm;

namespace {

// Recovery cost: O(work since the last checkpoint), not O(session
// lifetime).  A session of `ops` operations is recorded once per arg pair
// (outside the timing loop), then recovered repeatedly.  With checkpointing
// off, recovery replays the whole log, so the 640-op point costs ~10x the
// 64-op one; with a checkpoint every 48 operations both points replay the
// same short tail and the series is flat — the bounded-recovery claim,
// directly measurable as ops_replayed and wall time in BENCH_service.json.
void BM_Recovery(benchmark::State& state) {
  const std::size_t opsInLog = static_cast<std::size_t>(state.range(0));
  const std::size_t checkpointEvery = static_cast<std::size_t>(state.range(1));

  const dpm::ScenarioSpec spec = scenarios::sensingSystemScenario();
  service::SessionConfig cfg;
  cfg.id = "bench";
  cfg.adpm = true;
  cfg.scenarioName = spec.name;
  cfg.scenarioDddl = dddl::write(spec);

  service::Session::Options opts;
  opts.markEvery = 16;
  opts.segmentOps = 64;
  opts.checkpointEvery = checkpointEvery;
  opts.checkpointKeep = 2;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("adpm_bench_recovery_" + std::to_string(opsInLog) + "_" +
       std::to_string(checkpointEvery));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string base = (dir / "bench.wal").string();
  {
    service::SegmentedLog::Options lo;
    lo.segmentOps = opts.segmentOps;
    service::Session session(
        cfg, spec, std::make_unique<service::SegmentedLog>(base, cfg, lo),
        opts);
    const std::size_t props = session.manager().network().propertyCount();
    for (std::size_t i = 0; i < opsInLog; ++i) {
      // Deterministic synthetic stream: round-robin property rebinds keep δ
      // (and with λ=T the full propagation + guidance pipeline) busy for as
      // many operations as the log length calls for.
      dpm::Operation op;
      op.kind = dpm::OperatorKind::Synthesis;
      op.problem = dpm::ProblemId{0};
      op.designer = "gen";
      op.assignments.emplace_back(
          constraint::PropertyId{static_cast<std::uint32_t>(i % props)},
          0.25 + 0.125 * static_cast<double>(i % 7));
      session.apply(std::move(op));
    }
  }

  std::size_t opsReplayed = 0;
  std::size_t segmentsReplayed = 0;
  bool checkpointUsed = false;
  for (auto _ : state) {
    service::SalvageOutcome out;
    const auto recovered = service::recoverSession(
        base, opts, service::RecoveryPolicy::Strict, &out);
    benchmark::DoNotOptimize(recovered->stage());
    opsReplayed = out.operationsReplayed;
    segmentsReplayed = out.segmentsReplayed;
    checkpointUsed = out.checkpointUsed;
  }
  std::filesystem::remove_all(dir);

  state.counters["ops_in_log"] =
      benchmark::Counter(static_cast<double>(opsInLog));
  state.counters["ops_replayed"] =
      benchmark::Counter(static_cast<double>(opsReplayed));
  state.counters["segments_replayed"] =
      benchmark::Counter(static_cast<double>(segmentsReplayed));
  state.counters["checkpoint_used"] =
      benchmark::Counter(checkpointUsed ? 1.0 : 0.0);
  state.SetItemsProcessed(static_cast<std::int64_t>(
      opsReplayed * static_cast<std::size_t>(state.iterations())));
}
BENCHMARK(BM_Recovery)
    ->Args({64, 0})
    ->Args({640, 0})
    ->Args({64, 48})
    ->Args({640, 48})
    ->ArgNames({"ops", "ckpt_every"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
