// TeamSim command-line runner: run any registered scenario, a DDDL file, or
// a generated scenario from a paramfile under either process flow, with
// optional per-operation tracing.
//
//   $ ./teamsim_cli --scenario receiver --adpm --seed 42 --trace
//   $ ./teamsim_cli --scenario zoo-small --conventional --seeds 30
//   $ ./teamsim_cli --file myscenario.dddl --adpm
//   $ ./teamsim_cli --gen scenarios/zoo/zoo-toy.json --gen-seed 7 --adpm
//
// Exit status: 0 the run completed (or the sweep ran), 1 the run did not
// complete or an input could not be read, 2 command-line misuse (unknown
// option or scenario, --gen-seed without --gen).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "dddl/parser.hpp"
#include "gen/generator.hpp"
#include "gen/registry.hpp"
#include "teamsim/experiment.hpp"
#include "teamsim/export.hpp"
#include "teamsim/graphviz.hpp"
#include "teamsim/statwindow.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

using namespace adpm;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: teamsim_cli [options]\n"
      "  --scenario <name>                           registered scenario\n"
      "  --file <path.dddl>                          DDDL scenario file\n"
      "  --gen <paramfile.json>                      generate from paramfile\n"
      "  --gen-seed <n>                              generator seed override\n"
      "  --adpm | --conventional                     process flow (default ADPM)\n"
      "  --seed <n>                                  single-run seed (default 1)\n"
      "  --seeds <n>                                 run a sweep of n seeds\n"
      "  --max-ops <n>                               operation cap (default 5000)\n"
      "  --trace                                     per-operation trace\n"
      "  --export <trace.csv>                        write the trace as CSV\n"
      "  --dot <network.dot>                         Graphviz constraint network\n");
  return 2;
}

void printTrace(const teamsim::SimulationEngine& engine) {
  util::TextTable t;
  t.header({"op", "designer", "kind", "viol.found", "viol.known", "evals",
            "spin", "rationale"});
  const auto& history = engine.manager().history();
  for (const auto& s : engine.trace()) {
    const std::string& rationale =
        s.opIndex <= history.size() ? history[s.opIndex - 1].op.rationale
                                    : std::string();
    t.row({std::to_string(s.opIndex), s.designer,
           dpm::operatorKindName(s.kind), std::to_string(s.violationsFound),
           std::to_string(s.violationsKnown), std::to_string(s.evaluations),
           s.spin ? "*" : "", rationale});
  }
  std::printf("%s", t.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenarioName = "receiver";
  std::string file;
  std::string genFile;
  std::uint64_t genSeed = 0;
  bool haveGenSeed = false;
  bool adpm = true;
  std::uint64_t seed = 1;
  std::size_t seeds = 0;
  std::size_t maxOps = 5000;
  bool trace = false;
  std::string exportPath;
  std::string dotPath;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenarioName = next();
    } else if (arg == "--file") {
      file = next();
    } else if (arg == "--gen") {
      genFile = next();
    } else if (arg == "--gen-seed") {
      genSeed = std::strtoull(next(), nullptr, 10);
      haveGenSeed = true;
    } else if (arg == "--adpm") {
      adpm = true;
    } else if (arg == "--conventional") {
      adpm = false;
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seeds") {
      seeds = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--max-ops") {
      maxOps = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--export") {
      exportPath = next();
    } else if (arg == "--dot") {
      dotPath = next();
    } else {
      return usage();
    }
  }
  if (haveGenSeed && genFile.empty()) {
    std::fprintf(stderr, "--gen-seed needs --gen\n");
    return usage();
  }
  if (genFile.empty() && file.empty() &&
      !gen::isRegisteredScenario(scenarioName)) {
    std::fprintf(stderr, "unknown scenario '%s' (expected %s)\n",
                 scenarioName.c_str(), gen::registeredScenarioNames().c_str());
    return 2;
  }

  try {
    dpm::ScenarioSpec spec;
    if (!genFile.empty()) {
      const gen::GenParams params = gen::loadParams(genFile);
      spec = (haveGenSeed ? gen::generate(params, genSeed)
                          : gen::generate(params))
                 .spec;
    } else if (!file.empty()) {
      std::ifstream in(file);
      if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", file.c_str());
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      spec = dddl::parse(text.str());
    } else {
      spec = gen::scenarioByName(scenarioName);
    }

    teamsim::SimulationOptions options;
    options.adpm = adpm;
    options.seed = seed;
    options.maxOperations = maxOps;

    if (seeds > 0) {
      const teamsim::CellStats cell = teamsim::runSeedSweep(
          spec, options, seeds, seed,
          spec.name + (adpm ? "/ADPM" : "/conventional"));
      std::printf("%s: %zu/%zu completed\n", cell.label.c_str(),
                  cell.completed, cell.runs);
      std::printf("  operations  %.1f +/- %.1f  [%g, %g]\n",
                  cell.operations.mean(), cell.operations.stddev(),
                  cell.operations.min(), cell.operations.max());
      std::printf("  evaluations %.1f +/- %.1f\n", cell.evaluations.mean(),
                  cell.evaluations.stddev());
      std::printf("  spins       %.2f\n", cell.spins.mean());
      return 0;
    }

    teamsim::SimulationEngine engine(spec, options);
    const teamsim::SimulationResult result = engine.run();
    if (trace) printTrace(engine);
    if (!exportPath.empty()) {
      std::ofstream out(exportPath);
      teamsim::writeTraceCsv(out, engine.trace());
      std::printf("trace written to %s\n", exportPath.c_str());
    }
    if (!dotPath.empty()) {
      std::ofstream out(dotPath);
      out << teamsim::toGraphviz(engine.manager());
      std::printf("constraint network written to %s\n", dotPath.c_str());
    }
    std::printf("%s\n", teamsim::renderStatisticsWindow(engine).c_str());
    return result.completed ? 0 : 1;
  } catch (const adpm::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
