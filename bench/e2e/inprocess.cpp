// In-process workloads: designer teams as closed-loop clients of a
// SessionStore, through its typed command API.
//
// One designer turn is queryGuidance (and, on browse-zoo, more reads) →
// propose on the session's strand → applyOperation → observe on the strand
// → drain the session's subscriber queues.  Untraced turns use the typed
// commands; traced turns issue the same work through withSession so the
// strand wait and the in-strand time can be told apart (equivalent under the
// default CommandPolicy: no deadline, no retry).
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "service/store.hpp"
#include "teamsim/client.hpp"

namespace adpm::bench {

namespace {

using service::Session;
using service::SessionStore;

struct Shared {
  const RunConfig& config;
  const std::vector<Scenario>& scenarios;
  SessionStore& store;
  PhaseClock& clock;
  /// Sessions below this index run to completion even past the deadline.
  std::size_t required = 0;
  std::atomic<std::size_t> next{kPreopened};
};

/// Timestamps of one strand command: posted by the client, started and
/// ended on the strand, result back at the client.
struct StrandTimes {
  Clock::time_point posted, started, ended, returned;
};

void recordStrandCall(SpanBuffer& spans, std::uint32_t root,
                      const char* clientName, const char* layerName,
                      std::uint32_t session, std::uint32_t stage,
                      const StrandTimes& t) {
  const std::uint32_t call =
      spans.add(clientName, root, session, stage, t.posted, t.returned);
  spans.add("executor.wait", call, session, stage, t.posted, t.started);
  spans.add(layerName, call, session, stage, t.started, t.ended);
  spans.count("executor.hops", 1);
}

void runSession(Shared& sh, ClientStats& me, std::size_t k) {
  const WorkloadSpec& w = sh.config.workload;
  SessionResult r;
  r.index = k;
  r.scenario = scenarioOf(w, sh.scenarios, k);
  r.adpm = w.variants[k % w.variants.size()].adpm;
  const Scenario& scenario = sh.scenarios[r.scenario];
  const std::string id = sessionId(w, k);
  const bool sampled = k < w.sampleSessions;
  const auto session = static_cast<std::uint32_t>(k);

  try {
    if (k >= kPreopened) {
      const auto t0 = Clock::now();
      sh.store.open(id, scenario.spec, r.adpm);
      const auto t1 = Clock::now();
      me.openMs.push_back(microsBetween(t0, t1) / 1000.0);
      if (sh.clock.at(t0, me.spans, k, 0).window) {
        me.spans->add("service.open", SpanBuffer::kNoParent, session, 0, t0,
                      t1);
      }
    }
    std::vector<std::shared_ptr<service::NotificationBus::Queue>> queues;
    for (const std::string& designer : scenario.designers) {
      queues.push_back(sh.store.subscribe(id, designer));
    }

    teamsim::SimulationOptions sim;
    sim.adpm = r.adpm;
    sim.seed = sessionSeed(sh.config.seed, k);
    std::optional<teamsim::TeamClient> team;

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

      // Reads: what the designer looks at before deciding.
      for (std::size_t i = 0; i < w.guidanceReads; ++i) {
        StrandTimes t;
        t.posted = Clock::now();
        if (spans) {
          sh.store
              .withSession(id,
                           [&t](Session& s)
                               -> std::optional<constraint::GuidanceReport> {
                             t.started = Clock::now();
                             std::optional<constraint::GuidanceReport> g;
                             if (const auto* p = s.manager().latestGuidance()) {
                               g = *p;
                             }
                             t.ended = Clock::now();
                             return g;
                           })
              .get();
        } else {
          sh.store.queryGuidance(id).get();
        }
        t.returned = Clock::now();
        if (timed) {
          me.readLatencyUs.add(microsBetween(t.posted, t.returned));
        }
        if (spans) {
          recordStrandCall(*spans, root, "client.query_guidance",
                           "service.query_guidance", session, stage, t);
        }
      }
      for (std::size_t i = 0; i < w.snapshotReads; ++i) {
        StrandTimes t;
        t.posted = Clock::now();
        service::SessionSnapshot snap;
        if (spans) {
          snap = sh.store
                     .withSession(id,
                                  [&t](Session& s) {
                                    t.started = Clock::now();
                                    service::SessionSnapshot out = s.snapshot();
                                    t.ended = Clock::now();
                                    return out;
                                  })
                     .get();
        } else {
          snap = sh.store.snapshot(id).get();
        }
        t.returned = Clock::now();
        if (timed) {
          me.readLatencyUs.add(microsBetween(t.posted, t.returned));
        }
        if (spans) {
          recordStrandCall(*spans, root, "client.snapshot", "service.snapshot",
                           session, stage, t);
          spans->count("service.snapshot_bytes", snap.text.size());
          spans->count("service.snapshots", 1);
        }
      }

      // Propose on the strand: the designers read the live session state.
      StrandTimes tp;
      tp.posted = Clock::now();
      std::optional<dpm::Operation> op =
          sh.store
              .withSession(id,
                           [&](Session& s) {
                             tp.started = Clock::now();
                             if (!team) team.emplace(s.manager(), sim);
                             std::optional<dpm::Operation> proposed =
                                 team->propose(s.manager());
                             tp.ended = Clock::now();
                             return proposed;
                           })
              .get();
      tp.returned = Clock::now();
      if (spans) {
        recordStrandCall(*spans, root, "client.propose", "teamsim.propose",
                         session, stage, tp);
      }
      if (!op) {  // every designer idle: complete or deadlocked
        if (spans) spans->close(root, tp.returned);
        r.finished = true;
        break;
      }
      if (sampled) r.stream.push_back(*op);

      // Apply: the write every designer waits on.
      StrandTimes ta;
      if (timed) ++me.attempted;
      ta.posted = Clock::now();
      dpm::DesignProcessManager::ExecResult result;
      if (spans) {
        result = sh.store
                     .withSession(id,
                                  [&ta, op = std::move(*op)](Session& s) {
                                    ta.started = Clock::now();
                                    auto out = s.apply(op);
                                    ta.ended = Clock::now();
                                    return out;
                                  })
                     .get();
      } else {
        result = sh.store.applyOperation(id, std::move(*op)).get();
      }
      ta.returned = Clock::now();
      if (timed) me.opLatencyUs.add(microsBetween(ta.posted, ta.returned));
      if (spans) {
        recordStrandCall(*spans, root, "client.apply", "service.apply",
                         session, stage, ta);
      }

      StrandTimes to;
      to.posted = Clock::now();
      sh.store
          .withSession(id,
                       [&](Session& s) {
                         to.started = Clock::now();
                         team->observe(s.manager(), result.record);
                         to.ended = Clock::now();
                       })
          .get();
      to.returned = Clock::now();
      if (spans) {
        recordStrandCall(*spans, root, "client.observe", "teamsim.observe",
                         session, stage, to);
      }

      // Consume the notifications, as a designer's client would.
      std::size_t drained = 0;
      for (const auto& queue : queues) {
        while (queue->tryPop()) ++drained;
      }
      const auto turnEnd = Clock::now();
      if (spans) {
        spans->add("client.drain", root, session, stage, to.returned, turnEnd);
        spans->close(root, turnEnd);
        spans->count("bus.consumed", drained);
        spans->count("trace.ops", 1);
      }

      ++r.ops;
      r.evaluations += result.record.evaluations;
      if (result.record.spin) ++r.spins;
      me.endTurn(mode, turnStart, turnEnd);
      if (r.ops >= w.opCap) {
        r.finished = true;
        break;
      }
    }
    if (r.finished) {
      const service::SessionSnapshot snap = sh.store.snapshot(id).get();
      r.digest = snap.digest;
      r.complete = snap.complete;
    }
  } catch (const std::exception& e) {
    r.failed = true;
    me.fail("session " + id + ": " + e.what());
  }
  sh.store.close(id);
  me.sessions.push_back(std::move(r));
}

}  // namespace

LiveResult runInProcess(const RunConfig& config) {
  const WorkloadSpec& w = config.workload;
  LiveResult live;

  // Set-up, repeated on fresh stores: prepare the scenarios and open each
  // client's first session (instantiate + bootstrap DCM pass).  The last
  // repetition's store runs the workload.
  std::unique_ptr<SessionStore> store;
  std::vector<Scenario> scenarios;
  std::vector<double> generateMs, writeMs, parseMs;
  const auto setupBegin = Clock::now();
  for (int rep = 0; moreSetupReps(rep, setupBegin); ++rep) {
    store.reset();
    SessionStore::Options options;
    options.executor.threads = kClients;
    auto fresh = std::make_unique<SessionStore>(std::move(options));
    PrepareTimes times;
    const auto t0 = Clock::now();
    std::vector<Scenario> prepared = prepareScenarios(w, times);
    for (std::size_t k = 0; k < kPreopened; ++k) {
      fresh->open(sessionId(w, k), prepared[scenarioOf(w, prepared, k)].spec,
                  w.variants[k % w.variants.size()].adpm);
    }
    const auto t1 = Clock::now();
    live.setupRepsS.push_back(microsBetween(t0, t1) * 1e-6);
    generateMs.push_back(times.generateMs);
    writeMs.push_back(times.writeMs);
    parseMs.push_back(times.parseMs);
    store = std::move(fresh);
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
  const double cpuBefore = processCpuSeconds();
  PhaseClock clock(config.seconds, config.trace);
  live.origin = clock.start();
  Shared sh{config, scenarios, *store, clock};
  sh.required = requiredSessions(w);
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < kClients; ++i) {
      threads.emplace_back([&sh, &c = clients[i], i] {
        runSession(sh, c, i);
        for (;;) {
          const std::size_t k = sh.next.fetch_add(1);
          if (Clock::now() >= sh.clock.deadline() && k >= sh.required) return;
          runSession(sh, c, k);
        }
      });
    }
  }
  live.cpuS = processCpuSeconds() - cpuBefore;

  live.peakRssMb = processPeakRssMb();
  live.published = static_cast<double>(store->bus().published());
  live.dropped = static_cast<double>(store->bus().dropped());
  live.downgrades = static_cast<double>(store->bus().downgrades());
  mergeClients(live, clients, clock);
  live.walDir = config.workDir / "journal";
  return live;
}

}  // namespace adpm::bench
