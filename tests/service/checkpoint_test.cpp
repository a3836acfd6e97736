// Bounded crash recovery: durable state checkpoints + tail-only replay.
//
// The universal oracle everywhere below: a recovered session's canonical
// snapshot text must be bit-identical to a clean replay of the same
// operation prefix — checkpoints may only change how *much* is replayed,
// never what state comes out.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dddl/writer.hpp"
#include "dpm/manager.hpp"
#include "dpm/state_io.hpp"
#include "scenarios/sensing.hpp"
#include "service/session.hpp"
#include "service/store.hpp"
#include "service/wal.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace adpm::service {
namespace {

namespace fs = std::filesystem;

/// Deterministic synthetic operation stream: round-robin property rebinds.
/// applySynthesis accepts any in-range property for any problem, so this is
/// a legal (if designerless-ly mechanical) collaborative-design transcript.
dpm::Operation synthOp(std::size_t i, std::size_t propertyCount) {
  dpm::Operation op;
  op.kind = dpm::OperatorKind::Synthesis;
  op.problem = dpm::ProblemId{0};
  op.designer = "gen";
  op.assignments.emplace_back(
      constraint::PropertyId{static_cast<std::uint32_t>(i % propertyCount)},
      0.25 + 0.125 * static_cast<double>(i % 7));
  return op;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("adpm_ckpt_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    spec_ = scenarios::sensingSystemScenario();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string basePath(const char* id) const {
    return (dir_ / (std::string(id) + ".wal")).string();
  }

  SessionConfig makeConfig(const char* id, bool adpm) const {
    SessionConfig c;
    c.id = id;
    c.adpm = adpm;
    c.scenarioName = spec_.name;
    c.scenarioDddl = dddl::write(spec_);
    return c;
  }

  /// Options for the checkpointed tests: segments of 8 ops, checkpoint at
  /// every segment boundary, keep 2 — 30 ops land checkpoints at stages
  /// 8/16/24 and compaction deletes segments 0 and 1.
  static Session::Options checkpointedOptions() {
    Session::Options o;
    o.markEvery = 2;
    o.segmentOps = 8;
    o.checkpointEvery = 8;
    o.checkpointKeep = 2;
    return o;
  }

  /// Runs `count` synthetic ops through a journaled session and returns the
  /// final snapshot text (the bit-identity oracle).
  std::string runJournaled(const char* id, bool adpm, std::size_t count,
                           const Session::Options& options) {
    const SessionConfig cfg = makeConfig(id, adpm);
    SegmentedLog::Options lo;
    lo.segmentBytes = options.segmentBytes;
    lo.segmentOps = options.segmentOps;
    auto log = std::make_unique<SegmentedLog>(basePath(id), cfg, lo);
    Session session(cfg, spec_, std::move(log), options);
    const std::size_t props = session.manager().network().propertyCount();
    for (std::size_t i = 0; i < count; ++i) {
      session.apply(synthOp(i, props));
    }
    return session.snapshot().text;
  }

  static void flipByte(const std::string& path, std::size_t at) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekg(static_cast<std::streamoff>(at));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(at));
    f.put(static_cast<char>(c ^ 0x10));
  }

  fs::path dir_;
  dpm::ScenarioSpec spec_;
};

// -- ManagerState serialization ----------------------------------------------

TEST_F(CheckpointTest, ManagerStateJsonRoundTripIsBitIdentical) {
  for (const bool adpm : {true, false}) {
    const SessionConfig cfg = makeConfig(adpm ? "rt-t" : "rt-f", adpm);
    Session live(cfg, spec_, nullptr);
    const std::size_t props = live.manager().network().propertyCount();
    for (std::size_t i = 0; i < 13; ++i) live.replayApply(synthOp(i, props));

    // export → json → text → json → restore must reproduce the state
    // bit-for-bit (the snapshot text renders every double as %.17g).
    const std::string wire =
        util::json::serialize(dpm::managerStateToJson(live.manager().exportState()));
    Session restored(cfg, spec_, nullptr);
    restored.manager().restoreState(
        dpm::managerStateFromJson(util::json::parse(wire)));
    EXPECT_EQ(restored.snapshot().text, live.snapshot().text)
        << "λ=" << (adpm ? "T" : "F");
    EXPECT_EQ(restored.stage(), 13u);

    // ...and δ continues identically from the restored state.
    for (std::size_t i = 13; i < 21; ++i) {
      live.replayApply(synthOp(i, props));
      restored.replayApply(synthOp(i, props));
    }
    EXPECT_EQ(restored.snapshot().text, live.snapshot().text)
        << "λ=" << (adpm ? "T" : "F") << " after continuation";
  }
}

// -- bounded recovery ---------------------------------------------------------

TEST_F(CheckpointTest, CheckpointedRecoveryReplaysOnlyTheTail) {
  for (const bool adpm : {true, false}) {
    const char* id = adpm ? "tail-t" : "tail-f";
    const Session::Options opts = checkpointedOptions();
    const std::string liveText = runJournaled(id, adpm, 30, opts);

    // Compaction ran at the stage-24 checkpoint: segments 0 and 1 are gone,
    // so recovery *cannot* be replaying from stage 0.
    EXPECT_FALSE(fs::exists(segmentPath(basePath(id), 0)));
    EXPECT_FALSE(fs::exists(segmentPath(basePath(id), 1)));

    SalvageOutcome out;
    std::unique_ptr<Session> recovered =
        recoverSession(basePath(id), opts, RecoveryPolicy::Strict, &out);
    EXPECT_TRUE(out.checkpointUsed);
    EXPECT_EQ(out.checkpointSeq, 3u);
    EXPECT_EQ(out.checkpointStage, 24u);
    EXPECT_EQ(out.operationsReplayed, 6u);  // ops 25..30 only
    EXPECT_EQ(out.segmentsReplayed, 1u);
    EXPECT_EQ(out.checkpointFallbacks, 0u);
    EXPECT_FALSE(out.salvaged);
    EXPECT_EQ(recovered->stage(), 30u);
    EXPECT_EQ(recovered->snapshot().text, liveText)
        << "λ=" << (adpm ? "T" : "F");
  }
}

TEST_F(CheckpointTest, CorruptNewestCheckpointFallsBackToRunnerUp) {
  const char* id = "fallback";
  const Session::Options opts = checkpointedOptions();
  const std::string liveText = runJournaled(id, /*adpm=*/true, 30, opts);

  const std::string newest = checkpointPath(basePath(id), 3);
  ASSERT_TRUE(fs::exists(newest));
  flipByte(newest, fs::file_size(newest) / 2);

  SalvageOutcome out;
  std::unique_ptr<Session> recovered =
      recoverSession(basePath(id), opts, RecoveryPolicy::Salvage, &out);
  EXPECT_TRUE(out.checkpointUsed);
  EXPECT_EQ(out.checkpointSeq, 2u);  // the runner-up, not the damaged one
  EXPECT_EQ(out.checkpointStage, 16u);
  EXPECT_EQ(out.checkpointFallbacks, 1u);
  EXPECT_EQ(out.operationsReplayed, 14u);  // ops 17..30
  EXPECT_EQ(out.segmentsReplayed, 2u);
  EXPECT_EQ(recovered->stage(), 30u);
  EXPECT_EQ(recovered->snapshot().text, liveText);
  // Salvage discards the file it could not trust; Strict would have left it.
  EXPECT_FALSE(fs::exists(newest));
}

TEST_F(CheckpointTest, CorruptCheckpointDegradesUnderStrictToo) {
  const char* id = "strict-fb";
  const Session::Options opts = checkpointedOptions();
  const std::string liveText = runJournaled(id, /*adpm=*/true, 30, opts);

  const std::string newest = checkpointPath(basePath(id), 3);
  flipByte(newest, fs::file_size(newest) / 2);

  // Checkpoints are an optimization, never a correctness dependency: even
  // Strict (which refuses any *segment* damage) degrades checkpoint damage.
  SalvageOutcome out;
  std::unique_ptr<Session> recovered =
      recoverSession(basePath(id), opts, RecoveryPolicy::Strict, &out);
  EXPECT_EQ(out.checkpointSeq, 2u);
  EXPECT_EQ(out.checkpointFallbacks, 1u);
  EXPECT_EQ(recovered->snapshot().text, liveText);
  EXPECT_TRUE(fs::exists(newest));  // Strict never mutates the disk
}

TEST_F(CheckpointTest, EveryCheckpointCorruptAfterCompactionLosesSession) {
  const char* id = "lost";
  const Session::Options opts = checkpointedOptions();
  runJournaled(id, /*adpm=*/true, 30, opts);

  // Compaction deleted segments 0 and 1 because checkpoints 2 and 3 cover
  // them; with *both* checkpoints destroyed the surviving segments start at
  // stage 16 and there is genuinely nothing to rebuild from.
  flipByte(checkpointPath(basePath(id), 2), 40);
  flipByte(checkpointPath(basePath(id), 3), 40);
  EXPECT_THROW(recoverSession(basePath(id), opts, RecoveryPolicy::Strict),
               adpm::Error);
  EXPECT_THROW(recoverSession(basePath(id), opts, RecoveryPolicy::Salvage),
               adpm::Error);
}

TEST_F(CheckpointTest, DigestMismatchFallsBackToFullReplay) {
  const char* id = "digest";
  Session::Options opts;
  opts.markEvery = 2;
  opts.segmentOps = 8;
  opts.checkpointEvery = 16;  // exactly one checkpoint over 20 ops
  opts.checkpointKeep = 2;
  const std::string liveText = runJournaled(id, /*adpm=*/true, 20, opts);

  // One checkpoint < checkpointKeep, so compaction must not have deleted
  // any segment: the full-replay fallback is still possible.
  ASSERT_TRUE(fs::exists(segmentPath(basePath(id), 0)));

  // Forge a crc-valid checkpoint whose digest does not match its own state:
  // the only way to catch it is to restore and verify, which recovery does
  // before trusting any checkpoint.
  const std::string ckPath = checkpointPath(basePath(id), 1);
  Checkpoint forged = readCheckpoint(ckPath);
  forged.digest = "0000000000000bad";
  writeCheckpoint(basePath(id), forged, /*sync=*/false);

  SalvageOutcome out;
  std::unique_ptr<Session> recovered =
      recoverSession(basePath(id), opts, RecoveryPolicy::Salvage, &out);
  EXPECT_FALSE(out.checkpointUsed);
  EXPECT_EQ(out.checkpointFallbacks, 1u);
  EXPECT_EQ(out.operationsReplayed, 20u);  // the whole log
  EXPECT_EQ(out.segmentsReplayed, 3u);
  EXPECT_EQ(recovered->stage(), 20u);
  EXPECT_EQ(recovered->snapshot().text, liveText);
  EXPECT_FALSE(fs::exists(ckPath));
}

// -- store-level recovery -----------------------------------------------------

SessionStore::Options storeOptions(const fs::path& dir, bool salvage) {
  SessionStore::Options o;
  o.executor.deterministic = true;
  o.walDir = dir.string();
  o.session.markEvery = 2;
  o.session.segmentOps = 8;
  o.session.checkpointEvery = 8;
  o.session.checkpointKeep = 2;
  if (salvage) o.recovery = RecoveryPolicy::Salvage;
  return o;
}

TEST_F(CheckpointTest, StoreRecoversFromCheckpointAndReportsIt) {
  std::string liveDigest;
  {
    SessionStore store{storeOptions(dir_, false)};
    store.open("s", spec_, /*adpm=*/true);
    for (std::size_t i = 0; i < 30; ++i) {
      store.applyOperation("s", synthOp(i, spec_.properties.size())).get();
    }
    liveDigest = store.snapshot("s").get().digest;
  }
  // Segments 0 and 1 were compacted away: this recovery is checkpoint-based
  // by construction, not by luck.
  EXPECT_FALSE(fs::exists(segmentPath((dir_ / "s.wal").string(), 0)));

  SessionStore store{storeOptions(dir_, false)};
  const std::vector<std::string> ids = store.recover();
  ASSERT_EQ(ids, (std::vector<std::string>{"s"}));
  EXPECT_EQ(store.snapshot("s").get().digest, liveDigest);
  EXPECT_EQ(store.snapshot("s").get().stage, 30u);

  const std::vector<RecoveryEvent> report = store.recoverReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_TRUE(report[0].checkpointUsed);
  EXPECT_EQ(report[0].checkpointSeq, 3u);
  EXPECT_EQ(report[0].checkpointStage, 24u);
  EXPECT_EQ(report[0].operationsReplayed, 6u);
  EXPECT_EQ(report[0].segmentsReplayed, 1u);
  EXPECT_FALSE(report[0].sessionLost);
}

TEST_F(CheckpointTest, StoreReportsCheckpointFallbackEvents) {
  {
    SessionStore store{storeOptions(dir_, false)};
    store.open("s", spec_, true);
    for (std::size_t i = 0; i < 30; ++i) {
      store.applyOperation("s", synthOp(i, spec_.properties.size())).get();
    }
  }
  const std::string newest = checkpointPath((dir_ / "s.wal").string(), 3);
  flipByte(newest, fs::file_size(newest) / 2);

  SessionStore store{storeOptions(dir_, true)};
  store.recover();
  const std::vector<RecoveryEvent> report = store.recoverReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].checkpointFallbacks, 1u);
  EXPECT_TRUE(report[0].checkpointUsed);
  EXPECT_EQ(report[0].checkpointSeq, 2u);
  EXPECT_EQ(store.snapshot("s").get().stage, 30u);
}

TEST_F(CheckpointTest, StoreRecoverTwiceDoesNotDoubleReport) {
  std::string liveDigest;
  {
    SessionStore store{storeOptions(dir_, true)};
    store.open("s", spec_, true);
    for (std::size_t i = 0; i < 30; ++i) {
      store.applyOperation("s", synthOp(i, spec_.properties.size())).get();
    }
    liveDigest = store.snapshot("s").get().digest;
  }
  // Damage the newest checkpoint so the first recover() has something to
  // report; the second recover() must report *nothing* — not the same event
  // again (the regression this test pins down).
  const std::string newest = checkpointPath((dir_ / "s.wal").string(), 3);
  flipByte(newest, fs::file_size(newest) / 2);

  SessionStore store{storeOptions(dir_, true)};
  EXPECT_EQ(store.recover().size(), 1u);
  EXPECT_EQ(store.recoverReport().size(), 1u);

  EXPECT_TRUE(store.recover().empty());  // "s" is live: nothing to do
  EXPECT_TRUE(store.recoverReport().empty());
  EXPECT_TRUE(store.recoverErrors().empty());
  EXPECT_EQ(store.snapshot("s").get().stage, 30u);
  EXPECT_EQ(store.snapshot("s").get().digest, liveDigest);
}

// -- recovery on a worker pool ------------------------------------------------
//
// recover() rebuilds the sessions as jobs on the store's executor; what it
// reports must be what the inline executor reports for the same directory:
// the ids, the errors, every RecoveryEvent field, each session's state and
// the files recovery leaves behind.  The pool only changes who runs a job.

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void writeFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// File name -> bytes for every file in `dir`.
std::map<std::string, std::string> filesOf(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] = readFile(entry.path());
  }
  return files;
}

/// Cuts the last `bytes` bytes off `path`: a torn tail.
void tear(const fs::path& path, std::size_t bytes) {
  const std::string content = readFile(path);
  writeFile(path, content.substr(0, content.size() - bytes));
}

/// Rewrites the first mark of `segment` with a wrong digest and a *valid*
/// crc, so only replaying up to the mark can tell it is wrong.
void forgeFirstMark(const fs::path& segment) {
  const std::string bytes = readFile(segment);
  const std::size_t at = bytes.find("{\"t\":\"mark\"");
  ASSERT_NE(at, std::string::npos) << segment;
  const std::size_t end = bytes.find('\n', at);
  ASSERT_NE(end, std::string::npos);
  const util::json::Value mark = util::json::parse(bytes.substr(at, end - at));
  util::json::Object stripped;
  for (const auto& [key, member] : mark.asObject()) {
    if (key == "digest") {
      stripped.emplace_back(key, util::json::Value{"0000000000000bad"});
    } else if (key != "crc") {
      stripped.emplace_back(key, member);
    }
  }
  const std::string base =
      util::json::serialize(util::json::Value{std::move(stripped)});
  const std::string line = base.substr(0, base.size() - 1) + ",\"crc\":\"" +
                           util::fnv1a64Hex(base) + "\"}";
  writeFile(segment, bytes.substr(0, at) + line + bytes.substr(end));
}

std::string render(const RecoveryEvent& e) {
  std::ostringstream out;
  out << e.path << " | " << e.detail << " | lost=" << e.sessionLost
      << " salvaged=" << e.salvaged << " kept=" << e.keptStage
      << " droppedOps=" << e.droppedOperations
      << " droppedBytes=" << e.droppedBytes << " ckpt=" << e.checkpointUsed
      << " seq=" << e.checkpointSeq << " stage=" << e.checkpointStage
      << " fallbacks=" << e.checkpointFallbacks
      << " segments=" << e.segmentsReplayed
      << " replayed=" << e.operationsReplayed;
  return out.str();
}

std::size_t countContaining(const std::vector<std::string>& lines,
                            const std::string& needle) {
  std::size_t n = 0;
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) ++n;
  }
  return n;
}

/// Everything one recover() reports, plus the directory it leaves behind
/// once the store (and with it every recovered session) is gone.
struct RecoveryResult {
  std::vector<std::string> ids;
  std::vector<std::string> errors;
  std::vector<std::string> events;
  std::map<std::string, std::string> snapshots;
  std::map<std::string, std::string> files;
};

class SessionStoreRecovery : public CheckpointTest {
 protected:
  static std::string idOf(std::size_t k) {
    return std::string("s") + (k < 10 ? "0" : "") + std::to_string(k);
  }

  /// Journals `count` sessions, session k running 3k + 6 ops, so stages,
  /// checkpoint counts and compaction differ from one session to the next.
  void journal(const fs::path& dir, std::size_t count) {
    SessionStore store{storeOptions(dir, false)};
    for (std::size_t k = 0; k < count; ++k) {
      const std::string id = idOf(k);
      store.open(id, spec_, /*adpm=*/k % 3 != 2);
      for (std::size_t i = 0; i < 3 * k + 6; ++i) {
        store.applyOperation(id, synthOp(i + k, spec_.properties.size()))
            .get();
      }
    }
  }

  /// Copies `source` to the one work directory every recovery runs in (the
  /// same path, so reported paths compare equal), recovers it with the
  /// inline executor (threads 0) or a pool, and captures the result.
  RecoveryResult recoverCopy(const fs::path& source, bool salvage,
                             unsigned threads) {
    const fs::path work = dir_ / "work";
    fs::remove_all(work);
    fs::copy(source, work);
    RecoveryResult out;
    {
      SessionStore::Options o = storeOptions(work, salvage);
      o.executor.deterministic = threads == 0;
      o.executor.threads = threads;
      SessionStore store{std::move(o)};
      out.ids = store.recover();
      out.errors = store.recoverErrors();
      for (const RecoveryEvent& event : store.recoverReport()) {
        out.events.push_back(render(event));
      }
      for (const std::string& id : out.ids) {
        out.snapshots[id] = store.snapshot(id).get().text;
      }
    }
    out.files = filesOf(work);
    return out;
  }

  /// 14 sessions, checkpointed from s01 on, five of them damaged.
  fs::path damagedDirectory() {
    const fs::path base = dir_ / "base";
    journal(base, 14);
    const auto files = [&](const std::string& id) {
      return listSessionFiles((base / (id + ".wal")).string());
    };
    // s00 (6 ops, no checkpoint): corrupt header of its only segment.
    flipByte((base / "s00.wal").string(), 12);
    // s03 (15 ops): torn tail, cut in the middle of the last record.
    tear(files("s03").segments.back().path, 9);
    // s05 (21 ops, checkpoints 1 and 2): bit-flipped newest checkpoint.
    {
      const std::string newest = files("s05").checkpoints.back().path;
      flipByte(newest, fs::file_size(newest) / 2);
    }
    // s08 (30 ops): a crc-valid mark whose digest does not match.
    forgeFirstMark(files("s08").segments.back().path);
    // s11 (39 ops): torn tail and a damaged newest checkpoint together.
    tear(files("s11").segments.back().path, 3);
    flipByte(files("s11").checkpoints.back().path, 30);
    return base;
  }

  static void expectSame(const RecoveryResult& inlined,
                         const RecoveryResult& pool) {
    EXPECT_EQ(pool.ids, inlined.ids);
    EXPECT_EQ(pool.errors, inlined.errors);
    EXPECT_EQ(pool.events, inlined.events);
    EXPECT_EQ(pool.snapshots, inlined.snapshots);
    ASSERT_EQ(pool.files.size(), inlined.files.size());
    for (const auto& [name, bytes] : inlined.files) {
      const auto it = pool.files.find(name);
      ASSERT_NE(it, pool.files.end()) << name;
      EXPECT_EQ(it->second, bytes) << name;
    }
  }
};

TEST_F(SessionStoreRecovery, PoolMatchesInlineUnderStrict) {
  const fs::path base = damagedDirectory();
  const RecoveryResult inlined = recoverCopy(base, /*salvage=*/false, 0);
  const RecoveryResult pool = recoverCopy(base, /*salvage=*/false, 4);
  expectSame(inlined, pool);

  // The damage took: header, torn tails and the forged mark refuse their
  // logs; the damaged checkpoint alone only degrades.
  SCOPED_TRACE(::testing::PrintToString(inlined.events));
  EXPECT_EQ(inlined.errors.size(), 4u);
  EXPECT_EQ(inlined.ids.size(), 10u);
  EXPECT_EQ(countContaining(inlined.events, "lost=1"), 4u);
  EXPECT_EQ(countContaining(inlined.events, "fallbacks=1"), 1u);
  EXPECT_EQ(countContaining(inlined.events, "ckpt=1"), 10u);
}

TEST_F(SessionStoreRecovery, PoolMatchesInlineUnderSalvage) {
  const fs::path base = damagedDirectory();
  const RecoveryResult inlined = recoverCopy(base, /*salvage=*/true, 0);
  const RecoveryResult pool = recoverCopy(base, /*salvage=*/true, 4);
  expectSame(inlined, pool);

  // Salvage trims the tails and rolls the forged mark back; only the
  // corrupt header leaves nothing to rebuild from.
  SCOPED_TRACE(::testing::PrintToString(inlined.events));
  EXPECT_EQ(inlined.errors.size(), 1u);
  EXPECT_EQ(inlined.ids.size(), 13u);
  EXPECT_EQ(countContaining(inlined.events, "salvaged=1"), 3u);
  EXPECT_EQ(countContaining(inlined.events, "fallbacks=1"), 2u);
  // Salvage rewrote files (and the pool rewrote them the same way).
  EXPECT_NE(inlined.files, filesOf(base));
}

TEST_F(SessionStoreRecovery, CallerRecoversWhileTheOnlyWorkerIsParked) {
  const fs::path walDir = dir_ / "wal";
  journal(walDir, 3);

  SessionStore::Options o = storeOptions(walDir, false);
  o.executor.deterministic = false;
  o.executor.threads = 1;
  SessionStore store{std::move(o)};

  // Park the pool's only worker in a strand task until the test lets go.
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  const auto strand = store.executor().makeStrand();
  strand->post([&parked, released] {
    parked.set_value();
    released.wait();
  });
  parked.get_future().wait();

  // recover() must finish on the calling thread alone.  Run it aside so a
  // regression fails here instead of hanging the suite.
  auto recovering =
      std::async(std::launch::async, [&store] { return store.recover(); });
  const bool finished = recovering.wait_for(std::chrono::seconds(60)) ==
                        std::future_status::ready;
  release.set_value();
  EXPECT_TRUE(finished) << "recover() waited for the parked worker";
  EXPECT_EQ(recovering.get(), (std::vector<std::string>{"s00", "s01", "s02"}));
  EXPECT_TRUE(store.recoverErrors().empty());
  store.drain();  // the strand must outlive its task
}

}  // namespace
}  // namespace adpm::service
