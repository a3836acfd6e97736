// DDDL command-line tool: dump registered scenarios as DDDL text, parse and
// validate DDDL files, generate scenarios from paramfiles, and run a
// propagation check.
//
//   $ ./dddl_tool list                            # registered scenarios
//   $ ./dddl_tool dump sensing > sensing.dddl     # export a scenario
//   $ ./dddl_tool dump zoo-medium                 # generated zoo preset
//   $ ./dddl_tool check sensing.dddl              # parse + validate a file
//   $ ./dddl_tool check --stats sensing.dddl      # + structural statistics
//   $ ./dddl_tool roundtrip receiver              # write -> parse -> verify
//   $ ./dddl_tool gen scenarios/zoo/zoo-toy.json  # paramfile -> DDDL
//   $ ./dddl_tool gen zoo-toy --seed 7            # preset name works too
//   $ ./dddl_tool propagate zoo-toy               # initial-state propagation
//
// Exit status: 0 success, 1 the command failed (parse error, round-trip
// mismatch, violated propagation), 2 command-line misuse (unknown command,
// scenario or preset).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "constraint/propagate.hpp"
#include "dddl/parser.hpp"
#include "dddl/writer.hpp"
#include "gen/generator.hpp"
#include "gen/presets.hpp"
#include "gen/registry.hpp"
#include "gen/stats.hpp"
#include "util/error.hpp"

using namespace adpm;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dddl_tool list\n"
               "  dddl_tool dump <scenario>\n"
               "  dddl_tool check [--stats] <file.dddl|scenario>\n"
               "  dddl_tool roundtrip <file.dddl|scenario>\n"
               "  dddl_tool gen <paramfile.json|preset> [--seed N] [-o <out>]\n"
               "  dddl_tool propagate <file.dddl|scenario>\n"
               "scenarios: %s\n",
               gen::registeredScenarioNames().c_str());
  return 2;
}

bool readFile(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  out = text.str();
  return true;
}

/// A name that is neither a readable file nor registered: command-line
/// misuse, so main exits 2 (1 means the command itself failed).
class UnknownNameError : public InvalidArgumentError {
 public:
  using InvalidArgumentError::InvalidArgumentError;
};

/// Resolves `arg` to a spec: an on-disk DDDL file wins, then the registry.
dpm::ScenarioSpec resolveSpec(const std::string& arg) {
  std::string text;
  if (readFile(arg, text)) return dddl::parse(text);
  if (gen::isRegisteredScenario(arg)) return gen::scenarioByName(arg);
  throw UnknownNameError("'" + arg +
                         "' is neither a readable file nor a registered "
                         "scenario (expected " +
                         gen::registeredScenarioNames() + ")");
}

int cmdList() {
  for (const gen::RegistryEntry& entry : gen::scenarioRegistry()) {
    std::printf("%-14s %-9s %s\n", entry.name.c_str(), entry.kind.c_str(),
                entry.description.c_str());
  }
  return 0;
}

int cmdCheck(const std::string& arg, bool stats) {
  const dpm::ScenarioSpec spec = resolveSpec(arg);
  std::printf("OK: scenario '%s' — %zu objects, %zu properties, "
              "%zu constraints, %zu problems, %zu requirements\n",
              spec.name.c_str(), spec.objects.size(), spec.properties.size(),
              spec.constraints.size(), spec.problems.size(),
              spec.requirements.size());
  if (stats) {
    std::printf("%s",
                gen::formatStats(gen::computeStats(spec), spec.name).c_str());
  }
  return 0;
}

int cmdGen(int argc, char** argv) {
  std::string source;
  std::string outPath;
  std::uint64_t seed = 0;
  bool haveSeed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      haveSeed = true;
    } else if ((arg == "-o" || arg == "--out") && i + 1 < argc) {
      outPath = argv[++i];
    } else if (source.empty()) {
      source = arg;
    } else {
      return usage();
    }
  }
  if (source.empty()) return usage();

  std::string text;
  gen::GenParams params;
  if (readFile(source, text)) {
    try {
      params = gen::parseParams(text);
    } catch (const Error& e) {
      throw InvalidArgumentError(source + ": " + e.what());
    }
  } else {
    try {
      params = gen::zooPreset(source);
    } catch (const InvalidArgumentError& e) {
      throw UnknownNameError(e.what());
    }
  }
  const gen::GeneratedScenario result =
      haveSeed ? gen::generate(params, seed) : gen::generate(params);
  const std::string dddlText = dddl::write(result.spec);
  if (outPath.empty()) {
    std::printf("%s", dddlText.c_str());
  } else {
    std::ofstream out(outPath, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", outPath.c_str());
      return 1;
    }
    out << dddlText;
    std::fprintf(stderr, "wrote %s: %zu bytes, %zu constraints\n",
                 outPath.c_str(), dddlText.size(),
                 result.spec.constraints.size());
  }
  return 0;
}

int cmdPropagate(const std::string& arg) {
  const dpm::ScenarioSpec spec = resolveSpec(arg);
  dpm::DesignProcessManager mgr(
      dpm::DesignProcessManager::Options{.adpm = true});
  dpm::instantiate(spec, mgr);
  const constraint::Propagator prop;
  const constraint::PropagationResult result = prop.run(mgr.network());
  std::printf("%s: %zu properties, %zu constraints (%zu active), "
              "%zu revises, %zu passes, %zu violated\n",
              spec.name.c_str(), spec.properties.size(),
              spec.constraints.size(),
              mgr.network().activeConstraintCount(), result.evaluations,
              result.passes, result.violated.size());
  return result.anyViolation() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  try {
    if (command == "list") return cmdList();
    if (command == "gen") return cmdGen(argc, argv);
    if (argc < 3) return usage();

    if (command == "dump") {
      if (!gen::isRegisteredScenario(argv[2])) {
        throw UnknownNameError("unknown scenario '" + std::string(argv[2]) +
                               "' (expected " +
                               gen::registeredScenarioNames() + ")");
      }
      std::printf("%s", dddl::write(gen::scenarioByName(argv[2])).c_str());
      return 0;
    }
    if (command == "check") {
      const bool stats = std::strcmp(argv[2], "--stats") == 0;
      if (stats && argc < 4) return usage();
      return cmdCheck(stats ? argv[3] : argv[2], stats);
    }
    if (command == "roundtrip") {
      const dpm::ScenarioSpec original = resolveSpec(argv[2]);
      const std::string text = dddl::write(original);
      const dpm::ScenarioSpec reparsed = dddl::parse(text);
      const bool same =
          dddl::write(reparsed) == text &&
          reparsed.properties.size() == original.properties.size() &&
          reparsed.constraints.size() == original.constraints.size() &&
          reparsed.problems.size() == original.problems.size();
      std::printf("%s: %zu chars of DDDL, %s\n", argv[2], text.size(),
                  same ? "round-trip OK" : "ROUND-TRIP MISMATCH");
      return same ? 0 : 1;
    }
    if (command == "propagate") return cmdPropagate(argv[2]);
  } catch (const UnknownNameError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const adpm::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
