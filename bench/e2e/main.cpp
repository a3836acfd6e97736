// adpm_bench: the end-to-end benchmark of record.
//
//   adpm_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--results-dir <dir>] [--git-sha <sha>] [--allow-untrusted]
//              [--write-golden]
//   adpm_bench --smoke
//
// One run plays one workload for --seconds of wall time, replays its sampled
// sessions layer by layer, times recovery, checks every output, and prints
// the metrics by name with their units.  The last line of standard output
// is one JSON object {"correct","attempted","failed","metrics"}: with
// --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.  A
// full result file with the run context goes to --results-dir, and a traced
// run also writes its spans there.  Any output mismatch exits 1.
//
// --smoke runs every workload briefly with tracing on and the golden check
// replaced by the replay and digest checks (the bench-smoke ctest).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "util/json.hpp"

namespace adpm::bench {

namespace {

namespace fs = std::filesystem;
namespace json = util::json;

std::vector<WorkloadSpec> workloads() {
  std::vector<WorkloadSpec> out(4);
  // Paper scenarios, both flows: service overhead dominates each operation.
  // The cap only retires the rare conventional session that loops for
  // thousands of operations (about 1 in 200 reach 20000), whose cheap
  // operations would otherwise swing the operation mix from seed to seed.
  out[0].name = "fleet-paper";
  out[0].variants = {{"sensing", true}, {"receiver", true},
                     {"sensing", false}, {"receiver", false}};
  out[0].opCap = 500;
  out[0].goldenSessions = 64;
  out[0].sampleSessions = 64;
  out[0].recoverSessions = 32;
  // A 310-constraint generated network: propagation and mining dominate.
  // Operations grow costlier with the stage; a 60-operation cap made the
  // p99 hinge on how many sessions reached the heaviest late stages, so
  // sessions stop at 30 and a run sees about 110 of them.  Four guidance
  // reads per turn cost under half a percent of a turn and give the read
  // percentiles four times the samples.
  out[1].name = "fleet-zoo";
  out[1].variants = {{"zoo-medium", true}};
  out[1].opCap = 30;
  out[1].guidanceReads = 4;
  out[1].goldenSessions = 8;
  out[1].sampleSessions = 16;
  out[1].recoverSessions = 16;
  // Reads contend with writes on the same strand.
  out[2].name = "browse-zoo";
  out[2].variants = {{"zoo-small", true}};
  out[2].opCap = 100;
  out[2].guidanceReads = 4;
  out[2].snapshotReads = 1;
  out[2].goldenSessions = 16;
  out[2].sampleSessions = 32;
  out[2].recoverSessions = 32;
  // Over TCP, journaled: framing, reactor and WAL dominate.
  out[3].name = "wire-journaled";
  out[3].wire = true;
  out[3].variants = {{"sensing", true}, {"zoo-small", true}};
  out[3].opCap = 100;
  out[3].goldenSessions = 32;
  out[3].sampleSessions = 16;
  out[3].recoverSessions = 32;
  return out;
}

/// Why this build's numbers cannot be trusted (empty when they can).
std::vector<std::string> untrustedReasons() {
  std::vector<std::string> out;
#ifndef __OPTIMIZE__
  out.push_back("built without optimization");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  out.push_back("built with a sanitizer");
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  out.push_back("built with a sanitizer");
#endif
#endif
#if defined(ADPM_FAULT_INJECTION) && ADPM_FAULT_INJECTION
  out.push_back("built with ADPM_FAULT_INJECTION");
#endif
#ifdef ADPM_DEBUG_CHECKS
  out.push_back("built with ADPM_DEBUG_CHECKS");
#endif
  return out;
}

std::string compilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path resultsDir;
  std::string gitSha = "unknown";
  bool allowUntrusted = false;
  bool writeGolden = false;
  bool smoke = false;
};

int usage(const std::string& why) {
  std::fprintf(stderr,
               "adpm_bench: %s\n"
               "usage: adpm_bench --workload <fleet-paper|fleet-zoo|"
               "browse-zoo|wire-journaled>\n"
               "                  --seed <n> --seconds <s> --trace <0|1>\n"
               "                  [--results-dir <dir>] [--git-sha <sha>]\n"
               "                  [--allow-untrusted] [--write-golden]\n"
               "       adpm_bench --smoke [--allow-untrusted]\n",
               why.c_str());
  return 2;
}

/// Removes the run's scratch directory on every exit path.
struct ScopedDir {
  fs::path path;
  ~ScopedDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

json::Value contextJson(const RunConfig& config, const Args& args,
                        bool trusted) {
  const WorkloadSpec& w = config.workload;
  json::Array variants;
  for (const Variant& v : w.variants) {
    variants.push_back(v.scenario + (v.adpm ? ":adpm" : ":conventional"));
  }
  json::Value sizes{json::Object{}};
  sizes.set("clients", static_cast<std::size_t>(kClients));
  sizes.set("variants", std::move(variants));
  sizes.set("op_cap", w.opCap);
  sizes.set("guidance_reads", w.guidanceReads);
  sizes.set("snapshot_reads", w.snapshotReads);
  sizes.set("golden_sessions", w.goldenSessions);
  sizes.set("sample_sessions", w.sampleSessions);
  sizes.set("recover_sessions", w.recoverSessions);
  sizes.set("seconds", config.seconds);
  json::Value context{json::Object{}};
  context.set("workload", w.name);
  context.set("seed", static_cast<double>(config.seed));
  context.set("trace", config.trace);
  context.set("nproc", static_cast<std::size_t>(
                           std::thread::hardware_concurrency()));
  context.set("compiler", compilerName());
  context.set("build_type", ADPM_BENCH_BUILD_TYPE);
  context.set("git_sha", args.gitSha);
  context.set("trusted", trusted);
  context.set("sizes", std::move(sizes));
  return context;
}

json::Value metricsJson(const std::vector<Metric>& metrics, bool samples) {
  json::Value out{json::Object{}};
  for (const Metric& m : metrics) {
    json::Value entry{json::Object{}};
    entry.set("value", std::isfinite(m.value) ? m.value : 0.0);
    entry.set("unit", m.unit);
    if (samples) entry.set("samples", m.samples);
    out.set(m.name, std::move(entry));
  }
  return out;
}

struct Outcome {
  bool correct = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
};

enum class Golden { Skip, Check, Write };

/// One workload run: live phase, replay, recovery, checks, metrics.
Outcome runWorkload(const RunConfig& config, Golden golden) {
  Outcome out;
  LiveResult live =
      config.workload.wire ? runWire(config) : runInProcess(config);
  if (live.failed > 0) out.problems.push_back(live.firstFailure);

  const std::size_t required = requiredSessions(config.workload);
  for (std::size_t k = 0; k < required; ++k) {
    if (k >= live.sessions.size() || live.sessions[k].index != k ||
        !live.sessions[k].finished) {
      out.problems.push_back("session " + std::to_string(k) +
                             " did not finish");
      break;
    }
  }

  std::string firstMismatch;
  const std::size_t replayMismatches =
      replaySample(config, live, firstMismatch);
  if (replayMismatches > 0) out.problems.push_back(firstMismatch);
  const RecoveryResult recovery = timeRecovery(config, live);
  if (recovery.mismatches > 0) out.problems.push_back(recovery.firstMismatch);

  if (golden != Golden::Skip) {
    const fs::path path = fs::path(ADPM_BENCH_SOURCE_DIR) / "golden" /
                          (config.workload.name + ".seed1.txt");
    const std::string text = goldenText(config, live);
    if (golden == Golden::Write) {
      std::ofstream(path) << text;
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::ifstream in(path);
      std::stringstream expected;
      expected << in.rdbuf();
      if (text.empty() || expected.str() != text) {
        out.problems.push_back("golden mismatch against " + path.string() +
                               "\n--- expected\n" + expected.str() +
                               "--- measured\n" + text);
      }
    }
  }

  out.attempted = live.attempted;
  out.failed = live.failed + replayMismatches + recovery.mismatches;
  out.correct = out.problems.empty() && out.failed == 0;
  out.metrics = config.trace ? perLayerMetrics(config, live, recovery)
                             : endToEndMetrics(live, recovery, out.failed);
  if (config.trace && !config.spansFile.empty()) {
    fs::create_directories(config.spansFile.parent_path());
    writeSpans(config.spansFile.string(), live.spans, live.origin);
  }
  return out;
}

int smoke(bool trusted) {
  const fs::path binDir = executablePath().parent_path();
  bool ok = true;
  for (WorkloadSpec w : workloads()) {
    w.opCap = std::min<std::size_t>(w.opCap, 16);
    w.goldenSessions = 0;
    w.sampleSessions = 2;
    w.recoverSessions = 1;
    RunConfig config;
    config.workload = w;
    config.seconds = 0.3;
    config.trace = true;
    config.serverExe = binDir / "session_server_cli";
    config.workDir = binDir / "work" /
                     ("smoke-" + w.name + "-" + std::to_string(::getpid()));
    config.spansFile = binDir / "results" / ("smoke-" + w.name + ".spans.json");
    ScopedDir scratch{config.workDir};
    fs::create_directories(config.workDir);
    const Outcome out = runWorkload(config, Golden::Skip);
    std::printf("smoke %-15s %s  attempted=%zu failed=%zu%s\n",
                w.name.c_str(), out.correct ? "ok  " : "FAIL", out.attempted,
                out.failed, trusted ? "" : "  (untrusted build)");
    for (const std::string& p : out.problems) {
      std::fprintf(stderr, "  %s\n", p.c_str());
    }
    ok = ok && out.correct;
  }
  return ok ? 0 : 1;
}

}  // namespace

int run(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--recover") {
    return recoverMain(argv[2]);
  }
  Args args;
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        args.workload = value();
      } else if (arg == "--seed") {
        args.seed = std::stoull(value());
        haveSeed = true;
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value());
        haveSeconds = true;
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") return usage("--trace takes 0 or 1");
        args.trace = t == "1";
        haveTrace = true;
      } else if (arg == "--results-dir") {
        args.resultsDir = value();
      } else if (arg == "--git-sha") {
        args.gitSha = value();
      } else if (arg == "--allow-untrusted") {
        args.allowUntrusted = true;
      } else if (arg == "--write-golden") {
        args.writeGolden = true;
      } else if (arg == "--smoke") {
        args.smoke = true;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception& e) {
      return usage(std::string("bad value for ") + arg + ": " + e.what());
    }
  }

  const std::vector<std::string> untrusted = untrustedReasons();
  for (const std::string& why : untrusted) {
    std::fprintf(stderr, "adpm_bench: untrusted build: %s\n", why.c_str());
  }
  if (!untrusted.empty() && !args.allowUntrusted) {
    std::fprintf(stderr,
                 "adpm_bench: refusing to measure; rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release or pass --allow-untrusted\n");
    return 2;
  }
  const bool trusted = untrusted.empty();
  if (args.smoke) return smoke(trusted);

  RunConfig config;
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == args.workload) config.workload = w;
  }
  if (config.workload.name.empty()) {
    return usage("unknown workload '" + args.workload + "'");
  }
  if (!haveSeed || !haveSeconds || !haveTrace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  if (args.writeGolden && args.seed != 1) {
    return usage("--write-golden writes the seed-1 golden file only");
  }
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.trace = args.trace;
  const fs::path binDir = executablePath().parent_path();
  config.serverExe = binDir / "session_server_cli";
  config.workDir = binDir / "work" /
                   (config.workload.name + "-" + std::to_string(::getpid()));
  if (args.resultsDir.empty()) args.resultsDir = binDir / "results";
  if (config.trace) {
    config.spansFile =
        args.resultsDir / (config.workload.name + ".spans.json");
  }

  ScopedDir scratch{config.workDir};
  fs::create_directories(config.workDir);
  const Outcome out = runWorkload(
      config, args.writeGolden ? Golden::Write
              : config.seed == 1 ? Golden::Check
                                 : Golden::Skip);

  std::printf("adpm_bench %s seed=%llu seconds=%g trace=%d%s\n",
              config.workload.name.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, trusted ? "" : " UNTRUSTED");
  for (const Metric& m : out.metrics) {
    if (m.samples > 0) {
      std::printf("  %-38s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-38s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "adpm_bench: check failed: %s\n", p.c_str());
  }

  json::Value result{json::Object{}};
  result.set("context", contextJson(config, args, trusted));
  result.set("correct", out.correct);
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", metricsJson(out.metrics, true));
  fs::create_directories(args.resultsDir);
  const fs::path resultPath =
      args.resultsDir / (config.workload.name + ".seed" +
                         std::to_string(config.seed) + ".trace" +
                         (config.trace ? "1" : "0") + ".json");
  std::ofstream(resultPath) << json::serialize(result) << '\n';

  json::Value line{json::Object{}};
  line.set("correct", out.correct);
  line.set("attempted", out.attempted);
  line.set("failed", out.failed);
  line.set("metrics", metricsJson(out.metrics, false));
  std::printf("%s\n", json::serialize(line).c_str());
  return out.correct ? 0 : 1;
}

}  // namespace adpm::bench

int main(int argc, char** argv) {
  try {
    return adpm::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adpm_bench: %s\n", e.what());
    return 1;
  }
}
