#include "service/session.hpp"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "dddl/parser.hpp"
#include "dpm/state_io.hpp"
#include "util/error.hpp"
#include "util/number.hpp"
#include "util/strings.hpp"

namespace adpm::service {

std::string snapshotText(const dpm::DesignProcessManager& dpm) {
  using util::appendDouble;
  using util::appendInteger;
  const constraint::Network& net = dpm.network();
  std::string out;
  out.reserve(4096);

  // Property bindings and the evaluation box ("network hull").
  for (std::uint32_t i = 0; i < net.propertyCount(); ++i) {
    const constraint::Property& p =
        net.property(constraint::PropertyId{i});
    out += "p ";
    out += p.name;
    out += ' ';
    if (p.bound()) {
      out += "bound ";
      appendDouble(out, *p.value);
    } else {
      out += "unbound";
    }
    const interval::Interval hull = p.currentHull();
    out += " hull [";
    appendDouble(out, hull.lo());
    out += ',';
    appendDouble(out, hull.hi());
    out += "]\n";
  }

  // Known constraint statuses and the violation set.
  const std::vector<constraint::Status>& statuses = dpm.knownStatuses();
  for (std::uint32_t i = 0; i < statuses.size(); ++i) {
    out += "c ";
    appendInteger(out, i);
    out += ' ';
    out += constraint::statusName(statuses[i]);
    if (dpm.isStale(constraint::ConstraintId{i})) out += " stale";
    out += '\n';
  }
  const auto appendIds = [&out](const std::vector<constraint::ConstraintId>&
                                    ids) {
    for (const constraint::ConstraintId c : ids) {
      out += ' ';
      appendInteger(out, c.value);
    }
  };
  out += "violated";
  appendIds(dpm.knownViolations());
  out += '\n';

  // λ=T: the full mined guidance.
  if (const constraint::GuidanceReport* g = dpm.latestGuidance()) {
    for (const constraint::PropertyGuidance& pg : g->properties) {
      out += "g ";
      appendInteger(out, pg.id.value);
      out += " feasible ";
      pg.feasible.appendTo(out, util::kRoundTripDigits);
      out += " rel ";
      appendDouble(out, pg.relativeFeasibleSize);
      out += " alpha ";
      appendInteger(out, pg.alpha);
      out += " beta ";
      appendInteger(out, pg.beta);
      out += " votes ";
      appendInteger(out, pg.repairVotesUp);
      out += '/';
      appendInteger(out, pg.repairVotesDown);
      out += " inc";
      appendIds(pg.increasing);
      out += " dec";
      appendIds(pg.decreasing);
      out += '\n';
    }
    out += "gviolated";
    appendIds(g->violated);
    out += '\n';
  }
  return out;
}

Session::Session(SessionConfig config, const dpm::ScenarioSpec& spec,
                 std::unique_ptr<SegmentedLog> log)
    : Session(std::move(config), spec, std::move(log), Options{}) {}

Session::Session(SessionConfig config, const dpm::ScenarioSpec& spec,
                 std::unique_ptr<SegmentedLog> log, Options options)
    : config_(std::move(config)),
      options_(options),
      dpm_(std::make_unique<dpm::DesignProcessManager>(
          dpm::DesignProcessManager::Options{.adpm = config_.adpm})),
      log_(std::move(log)) {
  dpm::instantiate(spec, *dpm_);
  dpm_->bootstrap();
}

Session::Session(SessionConfig config, const dpm::ScenarioSpec& spec,
                 const dpm::ManagerState& state, Options options)
    : config_(std::move(config)),
      options_(options),
      dpm_(std::make_unique<dpm::DesignProcessManager>(
          dpm::DesignProcessManager::Options{.adpm = config_.adpm})) {
  dpm::instantiate(spec, *dpm_);
  dpm_->restoreState(state);
}

Session::~Session() {
  if (!log_ || dpm_->stage() == 0 || lastMarkStage_ == dpm_->stage()) return;
  try {
    log_->appendMark(dpm_->stage(), snapshot().digest);
  } catch (...) {
    // Teardown must not throw; a failed seal just means the tail of the log
    // ends on an op record, which recovery already tolerates.
  }
}

dpm::DesignProcessManager::ExecResult Session::apply(dpm::Operation op) {
  return applyImpl(std::move(op), /*journal=*/true);
}

dpm::DesignProcessManager::ExecResult Session::replayApply(dpm::Operation op) {
  return applyImpl(std::move(op), /*journal=*/false);
}

dpm::DesignProcessManager::ExecResult Session::applyImpl(dpm::Operation op,
                                                         bool journal) {
  // Write-ahead: the operation is durable before its effects exist, so a
  // crash mid-execution replays it instead of losing it.
  if (journal && log_) log_->appendOperation(op);

  dpm::DesignProcessManager::ExecResult result = dpm_->execute(std::move(op));
  if (sink_) sink_(result.notifications);

  const std::size_t stage = dpm_->stage();
  const bool markDue = journal && log_ && options_.markEvery > 0 &&
                       stage % options_.markEvery == 0;
  const bool ckptDue = journal && log_ && options_.checkpointEvery > 0 &&
                       stage % options_.checkpointEvery == 0;
  if (markDue || ckptDue) {
    // One snapshot render feeds both the mark and the checkpoint digest.
    const SessionSnapshot snap = snapshot();
    if (markDue) {
      log_->appendMark(stage, snap.digest);
      lastMarkStage_ = stage;
    }
    if (ckptDue) {
      try {
        log_->writeCheckpoint(dpm::managerStateToJson(dpm_->exportState()),
                              stage, snap.digest, options_.checkpointKeep);
      } catch (...) {
        // A checkpoint is an optimization: failing to write one must never
        // fail the operation that triggered it (the WAL already has the op).
        ++checkpointFailures_;
      }
    }
  }
  return result;
}

void Session::checkpointNow() {
  if (!log_) return;
  const SessionSnapshot snap = snapshot();
  log_->writeCheckpoint(dpm::managerStateToJson(dpm_->exportState()),
                        dpm_->stage(), snap.digest, options_.checkpointKeep);
}

SessionSnapshot Session::snapshot() const {
  SessionSnapshot snap;
  snap.id = config_.id;
  snap.stage = dpm_->stage();
  snap.complete = dpm_->designComplete();
  snap.evaluations = dpm_->network().evaluationCount();
  snap.violations = dpm_->knownViolationCount();
  snap.text = snapshotText(*dpm_);
  snap.digest = util::fnv1a64Hex(snap.text);
  return snap;
}

Session::VerifyResult Session::verify() {
  VerifyResult out;
  constraint::Network& net = dpm_->network();
  const std::size_t before = net.evaluationCount();
  for (const constraint::ConstraintId cid : net.constraintIds()) {
    if (!net.isActive(cid)) continue;
    const constraint::Constraint& c = net.constraint(cid);
    bool runnable = true;
    for (const constraint::PropertyId a : c.arguments()) {
      if (!net.property(a).bound()) {
        runnable = false;
        break;
      }
    }
    if (!runnable) continue;
    if (net.evaluate(cid) == constraint::Status::Violated) {
      out.violated.push_back(cid);
    }
  }
  out.evaluations = net.evaluationCount() - before;
  return out;
}

namespace {

/// One readable segment of the recovery chain.
struct LoadedSegment {
  std::size_t seq = 0;
  std::string path;
  OperationLog::Replay replay;
  std::size_t startStage() const noexcept { return replay.segmentStartStage; }
  std::size_t endStage() const noexcept {
    return replay.segmentStartStage + replay.operations.size();
  }
};

std::size_t fileSizeOf(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

bool sameConfig(const SessionConfig& a, const SessionConfig& b) {
  return a.id == b.id && a.adpm == b.adpm &&
         a.scenarioName == b.scenarioName &&
         a.scenarioDddl == b.scenarioDddl;
}

}  // namespace

std::unique_ptr<Session> recoverSession(const std::string& logPath,
                                        Session::Options options,
                                        RecoveryPolicy policy,
                                        SalvageOutcome* outcome) {
  const SessionFiles files = listSessionFiles(logPath);
  if (files.segments.empty() && files.checkpoints.empty()) {
    throw adpm::Error("cannot read operation log '" + logPath +
                      "': no segments or checkpoints on disk");
  }

  SalvageOutcome result;
  std::vector<std::string> reasons;
  const auto addReason = [&reasons](std::string r) {
    reasons.push_back(std::move(r));
  };

  // -- 1. read the segment chain ---------------------------------------------
  //
  // Segments are read ascending; the chain ends early (Salvage) at the first
  // segment that is unreadable, out of sequence, or discontinuous — past
  // that point the operation *sequence* can no longer be trusted, so later
  // segments are dropped.  Strict throws instead.
  std::vector<LoadedSegment> chain;
  std::vector<std::string> droppedFiles;  // removed at commit (Salvage only)
  std::size_t maxSeqSeen = 0;
  bool chainBroken = false;
  for (const SegmentRef& ref : files.segments) {
    maxSeqSeen = std::max(maxSeqSeen, ref.seq);
    if (chainBroken) {
      droppedFiles.push_back(ref.path);
      result.droppedBytes += fileSizeOf(ref.path);
      continue;
    }
    LoadedSegment seg;
    seg.seq = ref.seq;
    seg.path = ref.path;
    try {
      seg.replay = OperationLog::read(ref.path, policy);
    } catch (const adpm::Error& e) {
      // Header-level damage throws under both read policies; Salvage ends
      // the chain here and drops the file.
      if (policy == RecoveryPolicy::Strict) throw;
      chainBroken = true;
      result.salvaged = true;
      addReason(e.what());
      droppedFiles.push_back(ref.path);
      result.droppedBytes += fileSizeOf(ref.path);
      continue;
    }
    std::string problem;
    if (seg.replay.segmentSeq != ref.seq) {
      problem = "segment '" + ref.path + "' header seq " +
                std::to_string(seg.replay.segmentSeq) +
                " does not match its filename";
    } else if (!chain.empty() &&
               seg.replay.segmentStartStage != chain.back().endStage()) {
      problem = "segment '" + ref.path + "' starts at stage " +
                std::to_string(seg.replay.segmentStartStage) +
                " but the previous segment ends at stage " +
                std::to_string(chain.back().endStage());
    } else if (!chain.empty() &&
               !sameConfig(seg.replay.config, chain.front().replay.config)) {
      problem = "segment '" + ref.path +
                "' header disagrees with the chain's session config";
    }
    if (!problem.empty()) {
      if (policy == RecoveryPolicy::Strict) {
        throw adpm::Error("operation log '" + logPath + "': " + problem);
      }
      chainBroken = true;
      result.salvaged = true;
      addReason(problem);
      droppedFiles.push_back(ref.path);
      result.droppedBytes += fileSizeOf(ref.path);
      continue;
    }
    if (seg.replay.truncatedTail) {
      // Only a chain *tail* may be torn — records past a mid-chain tear are
      // unordered relative to the next segment, so the chain stops.
      result.salvaged = true;
      result.droppedBytes += seg.replay.droppedBytes;
      addReason(seg.replay.tailError);
      chainBroken = true;
    }
    chain.push_back(std::move(seg));
  }

  // -- 2. pick the recovery base: newest trustworthy checkpoint --------------
  //
  // Checkpoints degrade, never fail, under either policy: any damage (torn
  // file, bad crc, malformed state, digest mismatch against the rebuilt
  // manager) demotes to the next-older checkpoint and ultimately to full
  // replay.  Runner-up checkpoints are still crc-verified so compaction
  // accounting only tracks files recovery could actually use.
  std::unique_ptr<Session> session;
  // (seq, walSeq) of every checkpoint that verified; newest-first here.
  std::vector<std::pair<std::size_t, std::size_t>> keptCheckpoints;
  // The session's config and scenario; the restored base state is kept for
  // a rollback rebuild.
  SessionConfig config;
  dpm::ScenarioSpec spec;
  dpm::ManagerState baseState;
  std::string baseDigest;
  std::size_t baseStage = 0;
  std::size_t nextCheckpointSeq = 1;
  for (auto it = files.checkpoints.rbegin(); it != files.checkpoints.rend();
       ++it) {
    nextCheckpointSeq = std::max(nextCheckpointSeq, it->seq + 1);
    try {
      Checkpoint ckpt = readCheckpoint(it->path);
      if (ckpt.seq != it->seq) {
        throw adpm::Error("checkpoint '" + it->path +
                          "' seq does not match its filename");
      }
      if (!chain.empty() &&
          !sameConfig(ckpt.config, chain.front().replay.config)) {
        throw adpm::Error("checkpoint '" + it->path +
                          "' disagrees with the segment chain's config");
      }
      if (session == nullptr) {
        dpm::ManagerState state = dpm::managerStateFromJson(ckpt.state);
        spec = dddl::parse(ckpt.config.scenarioDddl);
        std::unique_ptr<Session> candidate(
            new Session(ckpt.config, spec, state, options));
        const SessionSnapshot snap = candidate->snapshot();
        if (snap.stage != ckpt.stage || snap.digest != ckpt.digest) {
          throw adpm::Error(
              "checkpoint '" + it->path + "' digest " + ckpt.digest +
              " does not match the rebuilt state (" + snap.digest +
              " at stage " + std::to_string(snap.stage) + ")");
        }
        session = std::move(candidate);
        if (chain.empty()) config = std::move(ckpt.config);
        baseState = std::move(state);
        baseStage = ckpt.stage;
        baseDigest = std::move(ckpt.digest);
        result.checkpointUsed = true;
        result.checkpointSeq = ckpt.seq;
        result.checkpointStage = ckpt.stage;
      }
      keptCheckpoints.emplace_back(ckpt.seq, ckpt.walSeq);
    } catch (const adpm::Error& e) {
      if (session == nullptr) ++result.checkpointFallbacks;
      addReason(e.what());
      droppedFiles.push_back(it->path);
      // Not counted in droppedBytes: checkpoints carry no operations; their
      // loss never loses session state that segments cannot reproduce.
    }
  }
  std::reverse(keptCheckpoints.begin(), keptCheckpoints.end());

  // -- 3. plan the tail replay ------------------------------------------------
  if (!chain.empty()) config = std::move(chain.front().replay.config);

  if (session == nullptr) {
    // Full replay: needs the chain to start at stage 0.
    if (chain.empty() || chain.front().startStage() != 0) {
      std::string why = "cannot recover '" + logPath +
                        "': no usable checkpoint and the surviving segments "
                        "do not start at stage 0";
      for (const std::string& r : reasons) why += "; " + r;
      throw adpm::Error(why);
    }
    spec = dddl::parse(config.scenarioDddl);
    session = std::make_unique<Session>(config, spec, nullptr, options);
  }

  // First chain segment extending past the base stage; detect a gap (ops
  // between baseStage and the oldest surviving tail are gone — segments
  // ahead of the base cannot be applied and are dropped).
  std::size_t firstTail = chain.size();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (chain[i].endStage() > baseStage) {
      firstTail = i;
      break;
    }
  }
  if (firstTail < chain.size() && chain[firstTail].startStage() > baseStage) {
    std::string why = "segments past stage " + std::to_string(baseStage) +
                      " start at stage " +
                      std::to_string(chain[firstTail].startStage()) +
                      " — the operations between are gone";
    if (policy == RecoveryPolicy::Strict) {
      throw adpm::Error("operation log '" + logPath + "': " + why);
    }
    result.salvaged = true;
    addReason(why);
    for (std::size_t i = firstTail; i < chain.size(); ++i) {
      droppedFiles.push_back(chain[i].path);
      result.droppedBytes += fileSizeOf(chain[i].path);
      result.droppedOperations += chain[i].replay.operations.size();
    }
    chain.resize(firstTail);
    firstTail = chain.size();
  }

  // -- 4. replay, verifying marks; roll back on divergence -------------------
  //
  // `cut` tracks where the on-disk chain would be truncated if we had to
  // roll back right now: the last verified mark, or the tail replay's entry
  // point.  A mark at the base stage verifies against the checkpoint digest
  // (same snapshot text); later marks verify against the replayed state.
  struct Cut {
    std::size_t segIndex = 0;
    std::size_t offset = 0;
    bool atMark = false;
  };
  std::size_t stage = baseStage;
  std::size_t lastVerifiedStage = baseStage;
  Cut lastVerifiedCut;
  bool haveCut = false;
  bool diverged = false;
  std::string divergence;

  const auto verifyMarks = [&](std::size_t segIndex, std::size_t& mi) {
    const LoadedSegment& seg = chain[segIndex];
    while (mi < seg.replay.marks.size() &&
           seg.replay.marks[mi].stage <= stage) {
      const OperationLog::Mark& mark = seg.replay.marks[mi];
      if (mark.stage == stage && stage >= baseStage) {
        const std::string digest = stage == baseStage
                                       ? baseDigest
                                       : session->snapshot().digest;
        if (!digest.empty() && digest != mark.digest) {
          divergence = "diverged at stage " + std::to_string(stage) +
                       ": snapshot digest " + digest + " != logged " +
                       mark.digest;
          return false;
        }
        if (!digest.empty()) {
          lastVerifiedStage = stage;
          lastVerifiedCut = Cut{segIndex, mark.endOffset, true};
          haveCut = true;
        }
      }
      ++mi;
    }
    return true;
  };

  for (std::size_t si = firstTail; si < chain.size() && !diverged; ++si) {
    const LoadedSegment& seg = chain[si];
    const std::size_t firstLocal = baseStage > seg.startStage()
                                       ? baseStage - seg.startStage()
                                       : 0;
    if (!haveCut) {
      // Entry point of the tail replay: everything before it is covered by
      // the checkpoint (or is the empty stage-0 state).
      lastVerifiedCut =
          Cut{si,
              firstLocal == 0 ? seg.replay.headerEndOffset
                              : seg.replay.opEndOffsets[firstLocal - 1],
              false};
      haveCut = true;
    }
    std::size_t mi = 0;
    if (!verifyMarks(si, mi)) {
      diverged = true;
      break;
    }
    ++result.segmentsReplayed;
    for (std::size_t i = firstLocal; i < seg.replay.operations.size(); ++i) {
      // Copied, not moved: a divergence needs the operations a second time
      // for the rollback rebuild.
      session->replayApply(dpm::Operation(seg.replay.operations[i]));
      ++stage;
      ++result.operationsReplayed;
      if (!verifyMarks(si, mi)) {
        diverged = true;
        break;
      }
    }
  }

  std::size_t finalStage = stage;
  if (diverged) {
    if (policy == RecoveryPolicy::Strict) {
      throw adpm::Error("operation log '" + logPath + "' " + divergence);
    }
    result.salvaged = true;
    addReason(divergence);
    // δ cannot be un-applied: rebuild from the base and replay only the
    // already-verified prefix (which re-verifies by determinism).
    finalStage = lastVerifiedStage;
    if (result.checkpointUsed) {
      session.reset(new Session(config, spec, baseState, options));
    } else {
      session = std::make_unique<Session>(config, spec, nullptr, options);
    }
    std::size_t rebuilt = baseStage;
    for (std::size_t si = firstTail; si < chain.size() && rebuilt < finalStage;
         ++si) {
      const LoadedSegment& seg = chain[si];
      const std::size_t firstLocal = rebuilt > seg.startStage()
                                         ? rebuilt - seg.startStage()
                                         : 0;
      for (std::size_t i = firstLocal;
           i < seg.replay.operations.size() && rebuilt < finalStage; ++i) {
        session->replayApply(dpm::Operation(seg.replay.operations[i]));
        ++rebuilt;
        ++result.operationsReplayed;
      }
    }
  }

  // -- 5. commit: trim/drop untrusted files (Salvage never ran this far
  // under Strict with damage — Strict throws above) ---------------------------
  std::size_t diskEnd = 0;  // global op count surviving on disk
  std::size_t keepSegments = chain.size();
  std::size_t trimOffset = 0;
  bool needTrim = false;
  if (diverged) {
    keepSegments = lastVerifiedCut.segIndex + 1;
    const LoadedSegment& seg = chain[lastVerifiedCut.segIndex];
    needTrim = lastVerifiedCut.offset < seg.replay.goodEndOffset ||
               seg.replay.truncatedTail;
    trimOffset = lastVerifiedCut.offset;
    for (std::size_t i = keepSegments; i < chain.size(); ++i) {
      droppedFiles.push_back(chain[i].path);
      result.droppedBytes += fileSizeOf(chain[i].path);
    }
    result.droppedOperations += chain.back().endStage() - finalStage;
    result.droppedBytes += seg.replay.goodEndOffset - trimOffset;
    diskEnd = finalStage;
  } else if (!chain.empty()) {
    const LoadedSegment& tail = chain.back();
    needTrim = tail.replay.truncatedTail;
    trimOffset = tail.replay.goodEndOffset;
    diskEnd = tail.endStage();
  }
  result.keptStage = finalStage;

  if (policy == RecoveryPolicy::Salvage) {
    for (const std::string& path : droppedFiles) {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
    if (needTrim && keepSegments > 0) {
      const std::string& path = chain[keepSegments - 1].path;
      std::error_code ec;
      std::filesystem::resize_file(path, trimOffset, ec);
      if (ec) {
        throw adpm::Error("cannot truncate salvaged operation log '" + path +
                          "' to offset " + std::to_string(trimOffset) + ": " +
                          ec.message());
      }
    }
  }
  chain.resize(keepSegments);

  // -- 6. reattach the append-side chain -------------------------------------
  SegmentedLog::Options logOptions;
  logOptions.sync = options.walSync;
  logOptions.segmentBytes = options.segmentBytes;
  logOptions.segmentOps = options.segmentOps;
  SegmentedLog::AttachSpec attach;
  attach.nextCheckpointSeq = nextCheckpointSeq;
  attach.checkpoints = std::move(keptCheckpoints);
  if (!chain.empty() && diskEnd == finalStage) {
    const LoadedSegment& tail = chain.back();
    attach.walSeq = tail.seq;
    attach.opsBefore = tail.startStage();
    attach.opsInSegment = finalStage - tail.startStage();
  } else {
    // The recovered stage is ahead of every surviving segment (checkpoint
    // newer than the salvageable ops), or nothing survived at all: start a
    // fresh segment so on-disk op positions stay aligned with global
    // indices.  Never reuse a dropped segment's name.
    attach.startFresh = true;
    attach.walSeq = maxSeqSeen + 1;
    attach.startStage = finalStage;
  }
  session->attachLog(std::make_unique<SegmentedLog>(
      logPath, std::move(config), logOptions, attach));

  // Remember the seal so a recover → destroy cycle does not keep appending
  // duplicate marks for the same final stage.
  if (diverged) {
    if (lastVerifiedCut.atMark) session->lastMarkStage_ = finalStage;
  } else if (!chain.empty()) {
    const OperationLog::Replay& tail = chain.back().replay;
    if (!tail.marks.empty() && tail.marks.back().stage == finalStage &&
        tail.marks.back().endOffset == tail.goodEndOffset) {
      session->lastMarkStage_ = finalStage;
    }
  }

  for (const std::string& r : reasons) {
    if (!result.reason.empty()) result.reason += "; ";
    result.reason += r;
  }
  if (outcome != nullptr) *outcome = std::move(result);
  return session;
}

}  // namespace adpm::service
