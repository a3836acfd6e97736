// Wire workload: designer teams as remote clients of a session_server_cli
// child process, over four TCP connections.
//
// The server journals every session (flush-only WAL — walSync off, the
// server default — a segment every 64 operations, a checkpoint every 16).
// Each connection has one thread that works through one session at a time
// and keeps a shadow DesignProcessManager built from the canonical DDDL the
// server returns: it proposes against the shadow, applies remotely, mirrors
// the operation locally, and at session end checks the server's snapshot
// digest against the shadow's.  After the timed phase the server is drained
// with SIGTERM and the sampled sessions' log chains are moved aside for the
// in-process recovery timing.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "dddl/parser.hpp"
#include "dpm/manager.hpp"
#include "net/client.hpp"
#include "service/wal.hpp"
#include "teamsim/client.hpp"
#include "util/strings.hpp"

namespace adpm::bench {

namespace {

namespace fs = std::filesystem;

/// One session_server_cli child, journaling into <dir>/wal.
class ServerProcess {
 public:
  ServerProcess(const fs::path& exe, const fs::path& dir)
      : dir_((fs::create_directories(dir), dir)),
        child_(arguments(exe, dir), dir / "server.log") {
    waitForPort();
  }

  std::uint16_t port() const noexcept { return port_; }
  const fs::path& dir() const noexcept { return dir_; }

  /// CPU seconds the child has used so far (/proc/<pid>/stat utime+stime).
  double cpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(child_.pid()) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of them.
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 1; i <= 13 && fields >> field; ++i) {
      if (i >= 12) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// SIGTERM (graceful drain), then reap.
  ChildProcess::Exit stop() { return child_.wait(SIGTERM); }

 private:
  static std::vector<std::string> arguments(const fs::path& exe,
                                            const fs::path& dir) {
    const service::Session::Options journal = journalOptions();
    return {exe.string(),
            "--port",
            "0",
            "--port-file",
            (dir / "port").string(),
            "--threads",
            std::to_string(kClients),
            "--wal-dir",
            (dir / "wal").string(),
            "--segment-ops",
            std::to_string(journal.segmentOps),
            "--checkpoint-every",
            std::to_string(journal.checkpointEvery),
            "--checkpoint-keep",
            std::to_string(journal.checkpointKeep)};
  }

  void waitForPort() {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      std::ifstream in(dir_ / "port");
      unsigned port = 0;
      if (in >> port && port > 0) {
        port_ = static_cast<std::uint16_t>(port);
        return;
      }
      if (child_.exited()) {
        throw std::runtime_error("session_server_cli exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    throw std::runtime_error("session_server_cli did not report its port");
  }

  fs::path dir_;
  ChildProcess child_;
  std::uint16_t port_ = 0;
};

/// The client-side twin of one remote session.
struct Shadow {
  std::unique_ptr<dpm::DesignProcessManager> dpm;
  std::optional<teamsim::TeamClient> team;
};

std::unique_ptr<net::Client> connectTo(std::uint16_t port) {
  net::Client::Options options;
  options.port = port;
  auto client = std::make_unique<net::Client>(options);
  client->connect();
  return client;
}

/// Opens session k remotely, subscribes every seat, and builds the shadow
/// from the server's canonical DDDL.
Shadow openSession(net::Client& client, const RunConfig& config,
                   const std::vector<Scenario>& scenarios, std::size_t k) {
  const WorkloadSpec& w = config.workload;
  const Scenario& scenario = scenarios[scenarioOf(w, scenarios, k)];
  const bool adpm = w.variants[k % w.variants.size()].adpm;
  const std::string id = sessionId(w, k);
  const net::Client::OpenResult open =
      client.openDddl(id, scenario.dddl, adpm);
  for (const std::string& designer : scenario.designers) {
    client.subscribe(id, designer);
  }
  Shadow shadow;
  const dpm::ScenarioSpec spec = dddl::parse(open.dddl);
  shadow.dpm = std::make_unique<dpm::DesignProcessManager>(
      dpm::DesignProcessManager::Options{.adpm = adpm});
  dpm::instantiate(spec, *shadow.dpm);
  shadow.dpm->bootstrap();
  teamsim::SimulationOptions sim;
  sim.adpm = adpm;
  sim.seed = sessionSeed(config.seed, k);
  shadow.team.emplace(*shadow.dpm, sim);
  return shadow;
}

struct Shared {
  const RunConfig& config;
  const std::vector<Scenario>& scenarios;
  PhaseClock& clock;
  /// Sessions below this index run to completion even past the deadline.
  std::size_t required = 0;
  std::atomic<std::size_t> next{kPreopened};
};

void runSession(Shared& sh, ClientStats& me, net::Client& client,
                std::size_t k, std::optional<Shadow> preopened) {
  const WorkloadSpec& w = sh.config.workload;
  SessionResult r;
  r.index = k;
  r.scenario = scenarioOf(w, sh.scenarios, k);
  r.adpm = w.variants[k % w.variants.size()].adpm;
  const std::string id = sessionId(w, k);
  const bool sampled = k < w.sampleSessions;
  const auto session = static_cast<std::uint32_t>(k);

  try {
    Shadow shadow;
    if (preopened) {
      shadow = std::move(*preopened);
    } else {
      const auto t0 = Clock::now();
      shadow = openSession(client, sh.config, sh.scenarios, k);
      const auto t1 = Clock::now();
      me.openMs.push_back(microsBetween(t0, t1) / 1000.0);
      if (sh.clock.at(t0, me.spans, k, 0).window) {
        me.spans->add("client.open", SpanBuffer::kNoParent, session, 0, t0,
                      t1);
      }
    }

    for (;;) {
      const auto turnStart = Clock::now();
      const auto stage = static_cast<std::uint32_t>(r.ops + 1);
      const TurnMode mode = sh.clock.at(turnStart, me.spans, k, stage);
      if (!mode.timed && k >= sh.required) break;  // cut by the deadline
      const bool timed = mode.timed;
      SpanBuffer* spans = mode.traced ? me.spans : nullptr;
      const std::uint32_t root =
          spans ? spans->open("turn", SpanBuffer::kNoParent, session, stage,
                              turnStart)
                : SpanBuffer::kNoParent;

      for (std::size_t i = 0; i < w.guidanceReads; ++i) {
        const auto t0 = Clock::now();
        (void)client.guidance(id);
        const auto t1 = Clock::now();
        if (timed) me.readLatencyUs.add(microsBetween(t0, t1));
        if (spans) spans->add("client.guidance", root, session, stage, t0, t1);
      }

      const auto tp0 = Clock::now();
      std::optional<dpm::Operation> op = shadow.team->propose(*shadow.dpm);
      const auto tp1 = Clock::now();
      if (spans) spans->add("teamsim.propose", root, session, stage, tp0, tp1);
      if (!op) {
        if (spans) spans->close(root, tp1);
        r.finished = true;
        break;
      }
      if (sampled) r.stream.push_back(*op);

      if (timed) ++me.attempted;
      const auto ta0 = Clock::now();
      (void)client.apply(id, *op);
      const auto ta1 = Clock::now();
      if (timed) me.opLatencyUs.add(microsBetween(ta0, ta1));

      // Mirror the acknowledged operation on the shadow, then consume the
      // pushed notifications.
      const dpm::DesignProcessManager::ExecResult local =
          shadow.dpm->execute(std::move(*op));
      const auto te = Clock::now();
      shadow.team->observe(*shadow.dpm, local.record);
      const auto to = Clock::now();
      client.pump(0);
      const auto turnEnd = Clock::now();
      if (spans) {
        spans->add("client.apply", root, session, stage, ta0, ta1);
        spans->add("shadow.execute", root, session, stage, ta1, te);
        spans->add("teamsim.observe", root, session, stage, te, to);
        spans->add("client.pump", root, session, stage, to, turnEnd);
        spans->close(root, turnEnd);
        spans->count("trace.ops", 1);
      }

      ++r.ops;
      r.evaluations += local.record.evaluations;
      if (local.record.spin) ++r.spins;
      me.endTurn(mode, turnStart, turnEnd);
      if (r.ops >= w.opCap) {
        r.finished = true;
        break;
      }
    }
    if (r.finished) {
      const service::SessionSnapshot snap = client.snapshot(id, false);
      r.digest = snap.digest;
      r.complete = shadow.dpm->designComplete();
      const std::string local =
          util::fnv1a64Hex(service::snapshotText(*shadow.dpm));
      if (snap.digest != local || snap.stage != shadow.dpm->stage()) {
        throw std::runtime_error("server digest " + snap.digest +
                                 " != shadow digest " + local);
      }
    }
    client.closeSession(id);
  } catch (const std::exception& e) {
    r.failed = true;
    me.fail("session " + id + ": " + e.what());
  }
  me.sessions.push_back(std::move(r));
}

}  // namespace

LiveResult runWire(const RunConfig& config) {
  const WorkloadSpec& w = config.workload;
  LiveResult live;

  // Set-up, repeated against fresh servers: prepare the scenarios, connect
  // the clients and open their first sessions (server instantiate +
  // bootstrap, shadow build).  The last repetition's server runs the load.
  std::unique_ptr<ServerProcess> server;
  std::vector<Scenario> scenarios;
  std::vector<std::unique_ptr<net::Client>> connections(kClients);
  std::vector<std::optional<Shadow>> shadows(kPreopened);
  std::vector<double> generateMs, writeMs, parseMs;
  const auto setupBegin = Clock::now();
  for (int rep = 0; moreSetupReps(rep, setupBegin); ++rep) {
    for (auto& c : connections) c.reset();
    if (server) {
      const fs::path old = server->dir();
      server.reset();
      fs::remove_all(old);
    }
    server = std::make_unique<ServerProcess>(
        config.serverExe, config.workDir / ("server" + std::to_string(rep)));

    PrepareTimes times;
    const auto t0 = Clock::now();
    std::vector<Scenario> prepared = prepareScenarios(w, times);
    for (std::size_t k = 0; k < kPreopened; ++k) {
      connections[k] = connectTo(server->port());
      shadows[k] = openSession(*connections[k], config, prepared, k);
    }
    const auto t1 = Clock::now();
    live.setupRepsS.push_back(microsBetween(t0, t1) * 1e-6);
    generateMs.push_back(times.generateMs);
    writeMs.push_back(times.writeMs);
    parseMs.push_back(times.parseMs);
    scenarios = std::move(prepared);
  }
  live.setupS = median(live.setupRepsS);
  live.prepare = {median(generateMs), median(writeMs), median(parseMs)};

  std::vector<ClientStats> clients(kClients);
  if (config.trace) {
    for (ClientStats& c : clients) {
      c.spans = &live.spans.emplace_back(kClientSpanCapacity);
    }
  }

  warmCores();
  const double cpuBefore = processCpuSeconds() + server->cpuSeconds();
  PhaseClock clock(config.seconds, config.trace);
  live.origin = clock.start();
  Shared sh{config, scenarios, clock};
  sh.required = requiredSessions(w);
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < kClients; ++i) {
      threads.emplace_back([&sh, &c = clients[i], &client = *connections[i],
                            &shadow = shadows[i], i] {
        runSession(sh, c, client, i, std::move(shadow));
        for (;;) {
          const std::size_t k = sh.next.fetch_add(1);
          if (Clock::now() >= sh.clock.deadline() && k >= sh.required) return;
          runSession(sh, c, client, k, std::nullopt);
        }
      });
    }
  }
  live.cpuS = processCpuSeconds() + server->cpuSeconds() - cpuBefore;

  // Server-side bus and push counters, then a graceful drain.
  const util::json::Value status = connections[0]->status();
  const util::json::Value& bus = status.at("bus");
  live.published = bus.at("published").asNumber();
  live.dropped = bus.at("dropped").asNumber();
  live.downgrades = bus.at("downgrades").asNumber();
  live.pushes = status.at("server").at("pushes").asNumber();
  for (auto& c : connections) c.reset();
  const ChildProcess::Exit exit = server->stop();
  live.peakRssMb = exit.peakRssMb;
  mergeClients(live, clients, clock);
  if (exit.code != 0) {
    ++live.failed;
    live.firstFailure = "session_server_cli exited with code " +
                        std::to_string(exit.code) + " after SIGTERM";
  }

  // The first sessions' chains go to their own directory: recovery is timed
  // over a fixed set of sessions, not over however many the run got through.
  const fs::path walDir = server->dir() / "wal";
  live.walDiskBytes = directoryBytes(walDir);
  live.walDir = config.workDir / "recover";
  std::vector<std::pair<fs::path, fs::path>> moves;
  for (const auto& entry : fs::directory_iterator(walDir)) {
    const auto name =
        service::parseWalFileName(entry.path().filename().string());
    if (!name) continue;
    for (std::size_t k = 0; k < w.recoverSessions; ++k) {
      if (name->sessionId == sessionId(w, k)) {
        moves.emplace_back(entry.path(), recoverDirOf(live.walDir, k) /
                                             entry.path().filename());
      }
    }
  }
  for (const auto& [from, to] : moves) {
    fs::create_directories(to.parent_path());
    fs::rename(from, to);
  }
  return live;
}

}  // namespace adpm::bench
