// End-to-end wire tests: a real net::Server on a loopback socket, driven by
// net::Client / runWireLoad.  Covers the ISSUE-6 acceptance surface:
// concurrent clients with digest verification, WAL recovery bit-identity
// across the process boundary (simulated by a fresh store), graceful
// shutdown semantics, the typed error taxonomy over the wire, subscription
// pushes (their order, their thread cost and their backpressure), and
// malformed-frame handling.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dddl/parser.hpp"
#include "dddl/writer.hpp"
#include "dpm/manager.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire_load.hpp"
#include "scenarios/sensing.hpp"
#include "service/store.hpp"
#include "teamsim/client.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace adpm::net {
namespace {

namespace fs = std::filesystem;
namespace json = util::json;
using namespace std::chrono_literals;

std::string sensingDddl() {
  static const std::string text =
      dddl::write(scenarios::sensingSystemScenario());
  return text;
}

/// The designers who own a problem: every seat a notification can go to.
std::vector<std::string> seatsOf(const dpm::ScenarioSpec& spec) {
  std::set<std::string> seats;
  for (const dpm::ScenarioSpec::Prob& p : spec.problems) {
    if (!p.owner.empty()) seats.insert(p.owner);
  }
  return {seats.begin(), seats.end()};
}

/// Threads of this process, as the kernel lists them.
std::size_t threadCount() {
  std::size_t n = 0;
  for (const auto& task : fs::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

/// A remote session's local mirror: the seeded team proposes against it,
/// and its execute() yields the notifications the server's session
/// publishes for the same operation.
struct Shadow {
  dpm::DesignProcessManager dpm{dpm::DesignProcessManager::Options{}};
  std::optional<teamsim::TeamClient> team;

  Shadow(const std::string& canonicalDddl, std::uint64_t seed) {
    dpm::instantiate(dddl::parse(canonicalDddl), dpm);
    dpm.bootstrap();
    teamsim::SimulationOptions sim;
    sim.seed = seed;
    team.emplace(dpm, sim);
  }

  /// Proposes the next operation, applies it remotely and then locally.
  /// Returns the local notifications, or nullopt once the team is idle.
  std::optional<std::vector<dpm::Notification>> step(Client& client,
                                                     const std::string& id) {
    std::optional<dpm::Operation> op = team->propose(dpm);
    if (!op) return std::nullopt;
    (void)client.apply(id, *op);
    const dpm::DesignProcessManager::ExecResult local =
        dpm.execute(std::move(*op));
    team->observe(dpm, local.record);
    return local.notifications;
  }
};

std::string wireText(const dpm::Notification& n) {
  return json::serialize(notificationToJson("", n));
}

class LoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("adpm_loopback_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static service::SessionStore::Options storeOptions(
      const std::string& walDir = {}) {
    service::SessionStore::Options o;
    o.executor.threads = 2;
    o.walDir = walDir;
    return o;
  }

  static Client::Options clientOptions(std::uint16_t port) {
    Client::Options o;
    o.port = port;
    return o;
  }

  fs::path dir_;
};

TEST_F(LoopbackTest, PortIsPublishedSafelyToConcurrentPollers) {
  // Regression for an unsynchronized publish found by the thread-safety
  // migration: start() wrote the bound port into a plain uint16_t while
  // other threads (CLI status printers, tests) could already be polling
  // port().  The field is atomic now; a poller must observe exactly 0 (not
  // yet bound) or the final bound port — never a torn or stale-forever
  // value — and must see the bound port once start() has returned.
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});

  std::atomic<bool> stop{false};
  std::atomic<std::uint16_t> seen{0};
  std::thread poller([&] {
    while (!stop.load()) {
      const std::uint16_t p = server.port();
      if (p != 0) seen.store(p);
    }
  });

  const std::uint16_t port = server.start();
  ASSERT_NE(port, 0);
  // The poller must converge on the bound port now that start() returned.
  while (seen.load() != port) std::this_thread::yield();
  stop.store(true);
  poller.join();
  EXPECT_EQ(seen.load(), port);
  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, FourConcurrentClientsCompleteAndMatchDigests) {
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  WireLoadOptions load;
  load.port = port;
  load.sessions = 4;
  load.dddl = sensingDddl();
  load.sim.seed = 11;
  const WireLoadReport report = runWireLoad(load);

  EXPECT_EQ(report.sessions, 4u);
  EXPECT_EQ(report.completedSessions, 4u);
  EXPECT_EQ(report.failedSessions, 0u);
  EXPECT_EQ(report.digestMismatches, 0u);
  EXPECT_GT(report.operations, 0u);

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, WalRecoveryIsBitIdenticalAfterWireLoad) {
  const std::string walDir = dir_.string();
  std::map<std::string, std::string> digests;
  {
    service::SessionStore store{storeOptions(walDir)};
    Server server(store, Server::Options{});
    const std::uint16_t port = server.start();

    WireLoadOptions load;
    load.port = port;
    load.sessions = 2;
    load.dddl = sensingDddl();
    load.sim.seed = 5;
    const WireLoadReport report = runWireLoad(load);
    ASSERT_EQ(report.failedSessions, 0u);
    ASSERT_EQ(report.digestMismatches, 0u);

    for (const std::string& id : store.ids()) {
      digests[id] = store.snapshot(id).get().digest;
    }
    ASSERT_EQ(digests.size(), 2u);
    EXPECT_TRUE(server.shutdown(5s));
  }

  // A fresh store replaying the WALs must land on bit-identical state —
  // the digest is a content hash of the full snapshot text.
  service::SessionStore fresh{storeOptions(walDir)};
  const std::vector<std::string> ids = fresh.recover();
  ASSERT_EQ(ids.size(), digests.size());
  EXPECT_TRUE(fresh.recoverErrors().empty());
  for (const auto& [id, digest] : digests) {
    EXPECT_EQ(fresh.snapshot(id).get().digest, digest) << id;
  }
}

TEST_F(LoopbackTest, GracefulShutdownAnnouncesAndRefusesMutations) {
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  Client::Options copts = clientOptions(port);
  copts.maxAttempts = 1;  // surface the drain refusal instead of retrying
  Client client{copts};
  client.connect();
  client.openDddl("drain-0", sensingDddl(), /*adpm=*/true);

  // Park the session strand so the drain window stays open long enough for
  // the refused Apply below to be deterministic.
  (void)store.withSession("drain-0", [](service::Session&) {
    std::this_thread::sleep_for(700ms);
  });

  bool drained = false;
  std::thread stopper(
      [&server, &drained] { drained = server.shutdown(10s); });
  std::this_thread::sleep_for(100ms);  // draining_ set at shutdown() entry

  dpm::Operation op;
  op.designer = "ana";
  EXPECT_THROW(client.apply("drain-0", op), adpm::TransientError);

  stopper.join();
  EXPECT_TRUE(drained);

  // The farewell was flushed before the close; pump() dispatches it.
  client.pump(/*waitMs=*/500);
  EXPECT_TRUE(client.serverShuttingDown());
}

TEST_F(LoopbackTest, TypedErrorsRoundTripOverTheWire) {
  service::SessionStore store{storeOptions()};
  Server::Options opts;
  Server server(store, opts);  // no scenario registry on this server
  const std::uint16_t port = server.start();

  Client client{clientOptions(port)};
  client.connect();

  dpm::Operation op;
  op.designer = "ana";
  EXPECT_THROW(client.apply("no-such-session", op),
               adpm::InvalidArgumentError);
  EXPECT_THROW(client.openScenario("s", "sensing", true),
               adpm::InvalidArgumentError);

  // The connection survives typed failures — they are responses, not
  // protocol violations.
  client.openDddl("s", sensingDddl(), true);
  const service::SessionSnapshot snap = client.snapshot("s", false);
  EXPECT_EQ(snap.id, "s");

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, SubscriptionStreamsNotifications) {
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  WireLoadOptions load;
  load.port = port;
  load.sessions = 1;
  load.dddl = sensingDddl();
  load.subscribe = true;
  load.sim.seed = 3;
  const WireLoadReport report = runWireLoad(load);
  EXPECT_EQ(report.failedSessions, 0u);
  EXPECT_GT(report.notificationsReceived, 0u);

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, StatusReportsSessionsAndSubscriberQueues) {
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  Client client{clientOptions(port)};
  client.connect();
  client.openDddl("st-0", sensingDddl(), true);
  client.subscribe("st-0", "watcher");

  const json::Value v = client.status();
  bool found = false;
  for (const json::Value& id : v.at("sessions").asArray()) {
    if (id.asString() == "st-0") found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(v.at("draining").asBool());
  const json::Value& subs = v.at("bus").at("subscribers");
  ASSERT_EQ(subs.asArray().size(), 1u);
  const json::Value& sub = subs.asArray()[0];
  EXPECT_EQ(sub.at("session").asString(), "st-0");
  EXPECT_EQ(sub.at("designer").asString(), "watcher");
  EXPECT_GT(sub.at("capacity").asNumber(), 0.0);
  EXPECT_GT(v.at("server").at("frames").asNumber(), 0.0);

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, ServerThreadCountIsIndependentOfSubscriptions) {
  // Notifications are pushed from the session strands and the reactor;
  // no subscription, live or finished, may cost the server a thread.
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();
  const std::size_t baseline = threadCount();

  Client client{clientOptions(port)};
  client.connect();
  const std::vector<std::string> seats =
      seatsOf(scenarios::sensingSystemScenario());
  ASSERT_EQ(seats.size(), 3u);
  const auto openAndSubscribe = [&](const std::string& id) {
    client.openDddl(id, sensingDddl(), /*adpm=*/true);
    for (const std::string& seat : seats) client.subscribe(id, seat);
  };

  for (int i = 0; i < 32; ++i) openAndSubscribe("live-" + std::to_string(i));
  EXPECT_EQ(server.stats().subscriptions, 32u * seats.size());
  EXPECT_LE(threadCount(), baseline) << "subscriptions left open";

  for (int i = 0; i < 200; ++i) {
    const std::string id = "closed-" + std::to_string(i);
    openAndSubscribe(id);
    client.closeSession(id);
  }
  EXPECT_EQ(server.stats().subscriptions, 232u * seats.size());
  EXPECT_LE(threadCount(), baseline) << "sessions closed after subscribing";

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, SubscriberOnAnotherConnectionGetsEveryNotificationInOrder) {
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  // Connection A drives the session; connection B holds every seat.
  Client applier{clientOptions(port)};
  applier.connect();
  const Client::OpenResult open =
      applier.openDddl("cross-0", sensingDddl(), /*adpm=*/true);
  Client watcher{clientOptions(port)};
  watcher.connect();
  std::map<std::string, std::vector<std::string>> received;
  watcher.onNotification(
      [&received](const std::string& session, const dpm::Notification& n) {
        EXPECT_EQ(session, "cross-0");
        received[n.designer].push_back(wireText(n));
      });
  const std::vector<std::string> seats = seatsOf(dddl::parse(open.dddl));
  for (const std::string& seat : seats) watcher.subscribe("cross-0", seat);

  // The shadow is an in-process TeamClient run of the same seed: what its
  // execute() fans out, per seat and in order, is what B must see.
  Shadow shadow(open.dddl, /*seed=*/7);
  std::map<std::string, std::vector<std::string>> expected;
  std::size_t expectedTotal = 0;
  std::size_t ops = 0;
  while (auto notifications = shadow.step(applier, "cross-0")) {
    for (const dpm::Notification& n : *notifications) {
      expected[n.designer].push_back(wireText(n));
      ++expectedTotal;
    }
    ASSERT_LT(++ops, 1000u) << "runaway session";
  }
  ASSERT_GT(expectedTotal, 0u);

  // Every apply was acknowledged to A; B's pushes may still be in flight.
  const std::size_t delivered = store.bus().delivered();
  EXPECT_EQ(delivered, expectedTotal);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (watcher.notificationsReceived() < delivered &&
         std::chrono::steady_clock::now() < deadline) {
    watcher.pump(/*waitMs=*/50);
  }
  EXPECT_EQ(watcher.notificationsReceived(), delivered);
  EXPECT_EQ(server.stats().pushes, delivered);
  EXPECT_EQ(received, expected);

  // Nothing stayed behind, was dropped or was coalesced on the way.
  const json::Value status = watcher.status();
  const json::Array& subs = status.at("bus").at("subscribers").asArray();
  ASSERT_EQ(subs.size(), seats.size());
  for (const json::Value& sub : subs) {
    EXPECT_EQ(sub.at("depth").asNumber(), 0.0);
    EXPECT_EQ(sub.at("dropped").asNumber(), 0.0);
    EXPECT_EQ(sub.at("downgrades").asNumber(), 0.0);
    EXPECT_EQ(sub.at("coalesced").asNumber(), 0.0);
  }
  EXPECT_EQ(status.at("bus").at("unrouted").asNumber(), 0.0);

  EXPECT_TRUE(server.shutdown(5s));
}

// -- raw-socket protocol violations -------------------------------------------

namespace {

void writeRaw(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const IoResult r = writeSome(fd, bytes.data() + sent, bytes.size() - sent);
    if (r.status == IoStatus::WouldBlock) {
      waitFd(fd, /*forWrite=*/true, /*timeoutMs=*/-1);
      continue;
    }
    sent += r.n;
  }
}

/// Reads frames until EOF or the deadline; returns them.
std::vector<Frame> readUntilEof(int fd, bool& sawEof, int timeoutMs) {
  std::vector<Frame> frames;
  FrameParser parser;
  sawEof = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  while (std::chrono::steady_clock::now() < deadline) {
    while (std::optional<Frame> f = parser.next()) {
      frames.push_back(std::move(*f));
    }
    if (!waitFd(fd, /*forWrite=*/false, 100)) continue;
    char buf[4096];
    const IoResult r = readSome(fd, buf, sizeof buf);
    if (r.status == IoStatus::Eof) {
      sawEof = true;
      break;
    }
    if (r.status == IoStatus::Ok) parser.feed(buf, r.n);
  }
  while (std::optional<Frame> f = parser.next()) {
    frames.push_back(std::move(*f));
  }
  return frames;
}

}  // namespace

TEST_F(LoopbackTest, MalformedPayloadGetsErrorFrameThenClose) {
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  ScopedFd fd = connectTcp("127.0.0.1", port, 2000);
  writeRaw(fd.get(), encodeFrame(FrameType::Apply, "this is not json"));

  bool sawEof = false;
  const std::vector<Frame> frames = readUntilEof(fd.get(), sawEof, 3000);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::Error);
  const json::Value v = json::parse(frames[0].payload);
  EXPECT_EQ(v.at("error").asString(), "Protocol");
  EXPECT_TRUE(sawEof) << "server must drop the connection after a "
                         "protocol violation";
  EXPECT_GE(server.stats().protocolErrors, 1u);

  EXPECT_TRUE(server.shutdown(5s));
}

/// Reads frames until `stop` holds for the frames read so far or the
/// deadline passes.
template <typename Stop>
std::vector<Frame> readFramesUntil(int fd, FrameParser& parser, int timeoutMs,
                                   Stop stop) {
  std::vector<Frame> frames;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  for (;;) {
    while (std::optional<Frame> f = parser.next()) {
      frames.push_back(std::move(*f));
    }
    if (stop(frames) || std::chrono::steady_clock::now() >= deadline) {
      return frames;
    }
    if (!waitFd(fd, /*forWrite=*/false, 50)) continue;
    char buf[64 * 1024];
    const IoResult r = readSome(fd, buf, sizeof buf);
    if (r.status == IoStatus::Eof) return frames;
    if (r.status == IoStatus::Ok) parser.feed(buf, r.n);
  }
}

std::optional<dpm::Notification> notificationOf(const Frame& frame) {
  if (frame.type != FrameType::Notification) return std::nullopt;
  return notificationFromJson(json::parse(frame.payload));
}

TEST_F(LoopbackTest, SlowSubscriberDegradesToResyncWithoutParkingTheStrand) {
  // A subscriber that stops reading must cost one coalesced ResyncRequired
  // marker — not a parked session strand, not unbounded server memory —
  // and must get per-event delivery back once it reads again.  That path
  // runs through the reactor's onWritable callback.
  service::SessionStore::Options so = storeOptions();
  // Above any single operation's fan-out to one seat, so only
  // notifications held back across applies can reach it.
  so.bus.degradeHighWater = 16;
  service::SessionStore store{so};
  Server::Options opts;
  opts.reactor.writeHighWater = 4u << 10;
  opts.reactor.writeLowWater = 1u << 10;
  Server server(store, opts);
  const std::uint16_t port = server.start();

  Client applier{clientOptions(port)};
  applier.connect();
  const Client::OpenResult open =
      applier.openDddl("slow-0", sensingDddl(), /*adpm=*/true);
  applier.openDddl("bulk-0", sensingDddl(), /*adpm=*/true);
  const std::size_t snapshotBytes =
      applier.snapshot("bulk-0", /*withText=*/true).text.size();
  ASSERT_GT(snapshotBytes, 0u);

  // The raw subscriber holds every seat of the driven session, then asks
  // for enough snapshot text that, unread, it overflows the kernel's socket
  // buffers (8 MiB: twice Linux's default 4 MiB send-buffer ceiling) and
  // the rest waits in the reactor's write buffer, above its high-water mark.
  ScopedFd raw = connectTcp("127.0.0.1", port, 2000);
  const std::vector<std::string> seats = seatsOf(dddl::parse(open.dddl));
  double req = 0;
  std::string requests;
  for (const std::string& seat : seats) {
    json::Value body{json::Object{}};
    body.set("req", ++req);
    body.set("session", "slow-0");
    body.set("designer", seat);
    requests += encodeFrame(FrameType::Subscribe, json::serialize(body));
  }
  const std::size_t flood = (8u << 20) / snapshotBytes + 1;
  for (std::size_t i = 0; i < flood; ++i) {
    json::Value body{json::Object{}};
    body.set("req", ++req);
    body.set("session", "bulk-0");
    body.set("text", true);
    requests += encodeFrame(FrameType::Snapshot, json::serialize(body));
  }
  const std::size_t resultsBefore = server.stats().results;
  writeRaw(raw.get(), requests);
  const std::size_t rawResponses = seats.size() + flood;
  const auto sent = std::chrono::steady_clock::now();
  while (server.stats().results < resultsBefore + rawResponses) {
    ASSERT_LT(std::chrono::steady_clock::now() - sent, 30s)
        << "the server never answered the raw subscriber's requests";
    std::this_thread::sleep_for(5ms);
  }

  // Connection A applies while the subscriber reads nothing.  Each apply
  // must come back promptly: delivery stops at the high-water mark instead
  // of waiting for the reader, and the notifications wait in the bus queues.
  Shadow shadow(open.dddl, /*seed=*/3);
  std::size_t stalledOps = 0;
  while (store.bus().downgrades() == 0) {
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(shadow.step(applier, "slow-0").has_value())
        << "the session finished before the subscriber degraded";
    EXPECT_LT(std::chrono::steady_clock::now() - t0, 2s);
    if (++stalledOps == 1) {
      std::size_t queued = 0;
      for (const auto& sub : store.bus().subscriberStats()) {
        queued += sub.queueDepth;
      }
      EXPECT_GT(queued, 0u) << "delivery ignored the high-water mark";
    }
  }
  EXPECT_GT(stalledOps, 1u);
  EXPECT_GE(store.bus().downgrades(), 1u);
  EXPECT_GT(store.bus().coalesced(), 0u);

  // Reading drains the reactor's buffer, onWritable fires, and the queued
  // stream arrives, ending in the coalesced marker.
  FrameParser parser;
  const auto hasResync = [](const std::vector<Frame>& frames) {
    for (const Frame& f : frames) {
      const std::optional<dpm::Notification> n = notificationOf(f);
      if (n && n->kind == dpm::NotificationKind::ResyncRequired) return true;
    }
    return false;
  };
  const std::vector<Frame> backlog =
      readFramesUntil(raw.get(), parser, 30000, hasResync);
  ASSERT_TRUE(hasResync(backlog)) << "no ResyncRequired after " << stalledOps
                                  << " stalled ops";
  std::size_t results = 0;
  for (const Frame& f : backlog) {
    if (f.type == FrameType::Result) ++results;
  }
  EXPECT_EQ(results, rawResponses);

  // The queue is drained, so the next publish resumes per-event delivery.
  const std::size_t downgrades = store.bus().downgrades();
  const auto perEvent = [](const std::vector<Frame>& frames) {
    for (const Frame& f : frames) {
      const std::optional<dpm::Notification> n = notificationOf(f);
      if (n && n->kind != dpm::NotificationKind::ResyncRequired) return true;
    }
    return false;
  };
  bool resumed = false;
  while (!resumed && shadow.step(applier, "slow-0")) {
    resumed = perEvent(readFramesUntil(raw.get(), parser, 500, perEvent));
  }
  EXPECT_TRUE(resumed) << "no per-event notification after the resync";
  EXPECT_EQ(store.bus().downgrades(), downgrades);

  EXPECT_TRUE(server.shutdown(5s));
}

TEST_F(LoopbackTest, NonRequestFrameTypeIsAProtocolViolation) {
  service::SessionStore store{storeOptions()};
  Server server(store, Server::Options{});
  const std::uint16_t port = server.start();

  ScopedFd fd = connectTcp("127.0.0.1", port, 2000);
  // A client must never send a response/push type at the server.
  writeRaw(fd.get(), encodeFrame(FrameType::Notification, "{}"));

  bool sawEof = false;
  const std::vector<Frame> frames = readUntilEof(fd.get(), sawEof, 3000);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::Error);
  EXPECT_TRUE(sawEof);

  EXPECT_TRUE(server.shutdown(5s));
}

}  // namespace
}  // namespace adpm::net
