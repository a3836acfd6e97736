#include "service/wal.hpp"

#include <algorithm>
#include <filesystem>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define ADPM_WAL_POSIX 1
#else
#define ADPM_WAL_POSIX 0
#endif

#include "dpm/operation_io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace adpm::service {

namespace {

#if ADPM_WAL_POSIX
// Creating a file makes an entry in the parent directory's inode; fsyncing
// the file alone does not persist that entry.  Called once, when an
// OperationLog creates its file in sync mode, so a machine crash right after
// open() cannot forget the session's log existed.
void fsyncParentDir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}
#endif

/// Reads a whole file with one sized read; nullopt when it cannot be
/// opened or read.
std::optional<std::string> readWholeFile(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return std::nullopt;
  std::string content;
  bool ok = std::fseek(in, 0, SEEK_END) == 0;
  const long size = ok ? std::ftell(in) : -1;
  ok = size >= 0 && std::fseek(in, 0, SEEK_SET) == 0;
  if (ok) {
    content.resize(static_cast<std::size_t>(size));
    content.resize(std::fread(content.data(), 1, content.size(), in));
    ok = std::ferror(in) == 0;
  }
  std::fclose(in);
  if (!ok) return std::nullopt;
  return content;
}

/// The writer hashes a record serialized without its crc member, then
/// splices `,"crc":"<16 hex>"}` in place of the closing brace (see
/// appendRecord).  So a record verifies when its line ends in that suffix
/// and the bytes before it, with `}` appended, hash to the hex.  Any other
/// encoding of the same JSON (whitespace, `1.0` for `1`, the crc moved) is
/// not what the writer wrote and fails.
constexpr std::string_view kCrcPrefix = ",\"crc\":\"";
constexpr std::size_t kCrcSuffixSize = kCrcPrefix.size() + 16 + 2;  // hex"}

bool crcMatchesBytes(std::string_view line) {
  if (line.size() <= kCrcSuffixSize) return false;
  const std::string_view body = line.substr(0, line.size() - kCrcSuffixSize);
  const std::string_view suffix = line.substr(body.size());
  if (!suffix.starts_with(kCrcPrefix) || !suffix.ends_with("\"}")) {
    return false;
  }
  const std::uint64_t h = util::fnv1a64("}", util::fnv1a64(body));
  return suffix.substr(kCrcPrefix.size(), 16) == util::hex64(h);
}

}  // namespace

OperationLog::OperationLog(std::string path, bool sync)
    : path_(std::move(path)), sync_(sync) {
  if (ADPM_FAULT_POINT("wal.open") != util::FaultAction::None) {
    throw adpm::FaultInjectedError("injected failure opening operation log '" +
                                   path_ + "'");
  }
  const bool existed = std::filesystem::exists(path_);
  out_ = std::fopen(path_.c_str(), "a");
  if (out_ == nullptr) {
    throw adpm::Error("cannot open operation log '" + path_ + "'");
  }
  // "a" leaves the initial stream position implementation-defined; pin the
  // durable-tail offset to the real end of file.
  std::fseek(out_, 0, SEEK_END);
  const long at = std::ftell(out_);
  tail_ = at > 0 ? static_cast<std::size_t>(at) : 0;
#if ADPM_WAL_POSIX
  if (!existed && sync_) fsyncParentDir(path_);
#else
  (void)existed;
#endif
}

OperationLog::~OperationLog() {
  if (out_ != nullptr) std::fclose(out_);
}

void OperationLog::appendLine(const std::string& line) {
  if (poisoned_) {
    throw adpm::Error("operation log '" + path_ +
                      "' is poisoned by an earlier torn write");
  }
  switch (ADPM_FAULT_POINT("wal.append")) {
    case util::FaultAction::Error:
      // Fails before any byte lands: the cleanest transient failure.
      throw adpm::FaultInjectedError(
          "injected failure appending to operation log '" + path_ + "'");
    case util::FaultAction::ShortWrite: {
      // Persist a *prefix* of the record and give up — the torn tail a real
      // crash mid-write leaves.  No rollback (that is the point), so the
      // log poisons itself against further appends.
      const std::size_t cut = line.size() / 2 + 1;
      std::fwrite(line.data(), 1, cut, out_);
      std::fflush(out_);
      poisoned_ = true;
      throw adpm::Error("injected short write tore operation log '" + path_ +
                        "' at offset " + std::to_string(tail_ + cut));
    }
    default:
      break;
  }

  bool ok = std::fwrite(line.data(), 1, line.size(), out_) == line.size() &&
            std::fputc('\n', out_) != EOF;
  // fflush hands the record to the OS: a *process* crash now loses at most
  // the record being appended, but an OS crash or power loss may still drop
  // acknowledged records.  sync_ upgrades the guarantee to storage
  // durability with one fsync per record.
  ok = ok && ADPM_FAULT_POINT("wal.flush") == util::FaultAction::None &&
       std::fflush(out_) == 0;
  if (!ok) {
    // Roll the file back to the last durable record so the append is
    // all-or-nothing: reopen (the FILE buffer may hold half the record) and
    // truncate.  Success makes the failure retryable; failure poisons the
    // log — appending after an un-rolled-back tear would interleave
    // garbage into the tail.
    std::fclose(out_);
    out_ = nullptr;
    bool rolledBack = false;
#if ADPM_WAL_POSIX
    rolledBack = ::truncate(path_.c_str(), static_cast<off_t>(tail_)) == 0;
#endif
    out_ = std::fopen(path_.c_str(), "a");
    if (rolledBack && out_ != nullptr) {
      throw adpm::TransientError("write to operation log '" + path_ +
                                 "' failed; rolled back to last durable "
                                 "record (offset " +
                                 std::to_string(tail_) + ")");
    }
    poisoned_ = true;
    throw adpm::Error("write to operation log '" + path_ +
                      "' failed and could not be rolled back");
  }
  if (sync_) {
    // A failed fsync leaves the page-cache state unknowable (the kernel may
    // have dropped the dirty pages), so the error is *not* retryable:
    // poison the log instead of pretending a retry could re-durable it.
    const bool injected =
        ADPM_FAULT_POINT("wal.fsync") != util::FaultAction::None;
#if ADPM_WAL_POSIX
    if (injected || ::fsync(::fileno(out_)) != 0) {
#else
    if (injected) {
#endif
      poisoned_ = true;
      throw adpm::Error("fsync failed on operation log '" + path_ + "'");
    }
  }
  tail_ += line.size() + 1;
  ++written_;
}

void OperationLog::appendRecord(const std::string& base) {
  // base is the canonical serialization without the crc member; the crc is
  // spliced in as the final member, so a reader verifies the line's own
  // bytes (crcMatchesBytes) without re-serializing anything.
  std::string line = base.substr(0, base.size() - 1);
  line += ",\"crc\":\"";
  line += util::fnv1a64Hex(base);
  line += "\"}";
  appendLine(line);
}

void OperationLog::appendOpen(const SessionConfig& config, std::size_t seq,
                              std::size_t startStage) {
  util::json::Value v{util::json::Object{}};
  v.set("t", "open");
  v.set("v", kVersion);
  v.set("session", config.id);
  v.set("adpm", config.adpm);
  v.set("scenario", config.scenarioName);
  v.set("dddl", config.scenarioDddl);
  // Written only when nonzero, so a seq-0 header stays byte-identical to
  // logs written before segmentation existed.
  if (seq != 0) v.set("seq", seq);
  if (startStage != 0) v.set("stage", startStage);
  appendRecord(util::json::serialize(v));
}

void OperationLog::appendOperation(const dpm::Operation& op) {
  util::json::Value v{util::json::Object{}};
  v.set("t", "op");
  v.set("op", dpm::operationToJson(op));
  appendRecord(util::json::serialize(v));
}

void OperationLog::appendMark(std::size_t stage, const std::string& digest) {
  util::json::Value v{util::json::Object{}};
  v.set("t", "mark");
  v.set("stage", stage);
  v.set("digest", digest);
  appendRecord(util::json::serialize(v));
}

OperationLog::Replay OperationLog::read(const std::string& path,
                                        RecoveryPolicy policy) {
  const std::optional<std::string> file = readWholeFile(path);
  if (!file) {
    throw adpm::Error("cannot read operation log '" + path + "'");
  }
  const std::string& content = *file;

  Replay replay;
  bool sawOpen = false;
  std::size_t lineNo = 0;
  std::size_t pos = 0;

  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    ++lineNo;
    std::string err;
    util::json::Value v;
    std::string type;

    if (nl == std::string::npos) {
      // A record the writer never finished (the '\n' lands last).  Even if
      // the bytes happen to parse, appending after it would concatenate
      // records, so it is torn by definition.
      err = "line " + std::to_string(lineNo) + " is torn (no newline)";
      pos = content.size();
    } else {
      const std::string_view line(content.data() + pos, nl - pos);
      pos = nl + 1;
      if (line.empty()) {
        replay.goodEndOffset = pos;
        continue;
      }
      try {
        v = util::json::parse(line);
      } catch (const adpm::Error& e) {
        err = "line " + std::to_string(lineNo) + ": " + e.what();
      }
      if (err.empty()) {
        if (const util::json::Value* crc = v.find("crc")) {
          if (crc->kind() != util::json::Kind::String) {
            err = "line " + std::to_string(lineNo) + ": malformed crc field";
          } else if (!crcMatchesBytes(line)) {
            err = "line " + std::to_string(lineNo) +
                  ": checksum mismatch (record is corrupt)";
          }
        }
      }
      if (err.empty()) {
        const util::json::Value* t = v.find("t");
        if (t == nullptr || t->kind() != util::json::Kind::String) {
          err = "line " + std::to_string(lineNo) + ": record without a type";
        } else {
          type = t->asString();
        }
      }
    }

    if (err.empty() && type == "open") {
      if (sawOpen) {
        err = "line " + std::to_string(lineNo) + ": second header";
      } else {
        // Header problems are unrecoverable under either policy — with no
        // trustworthy (id, scenario) there is nothing to salvage.
        const int version = static_cast<int>(v.at("v").asNumber());
        if (version != kVersion) {
          throw adpm::Error("operation log '" + path +
                            "' has unsupported version " +
                            std::to_string(version));
        }
        try {
          replay.config.id = v.take("session").asString();
          replay.config.adpm = v.at("adpm").asBool();
          replay.config.scenarioName = v.take("scenario").asString();
          replay.config.scenarioDddl = v.take("dddl").asString();
          if (const util::json::Value* seq = v.find("seq")) {
            replay.segmentSeq = static_cast<std::size_t>(seq->asNumber());
          }
          if (const util::json::Value* stage = v.find("stage")) {
            replay.segmentStartStage =
                static_cast<std::size_t>(stage->asNumber());
          }
        } catch (const adpm::Error& e) {
          throw adpm::Error("operation log '" + path + "' has a malformed "
                            "header: " + e.what());
        }
        sawOpen = true;
        replay.headerEndOffset = pos;
        replay.goodEndOffset = pos;
        continue;
      }
    }
    if (err.empty() && !sawOpen) {
      throw adpm::Error("operation log '" + path +
                        "' has records before the header");
    }
    if (err.empty()) {
      if (type == "op") {
        try {
          replay.operations.push_back(dpm::operationFromJson(v.at("op")));
          replay.opEndOffsets.push_back(pos);
        } catch (const adpm::Error& e) {
          err = "line " + std::to_string(lineNo) + ": " + e.what();
        }
      } else if (type == "mark") {
        try {
          Mark mark;
          mark.stage = static_cast<std::size_t>(v.at("stage").asNumber());
          mark.digest = v.at("digest").asString();
          mark.endOffset = pos;
          replay.marks.push_back(std::move(mark));
        } catch (const adpm::Error& e) {
          err = "line " + std::to_string(lineNo) + ": " + e.what();
        }
      } else {
        err = "line " + std::to_string(lineNo) + ": unknown record type '" +
              type + "'";
      }
    }

    if (!err.empty()) {
      if (policy == RecoveryPolicy::Strict || !sawOpen) {
        throw adpm::Error("operation log '" + path + "': " + err);
      }
      // Salvage: keep the intact prefix, drop this record and everything
      // after it — past a torn/corrupt record the operation *sequence* can
      // no longer be trusted, and replay needs the exact prefix.
      replay.truncatedTail = true;
      replay.droppedBytes = content.size() - replay.goodEndOffset;
      replay.tailError = err;
      break;
    }
    replay.goodEndOffset = pos;
  }

  if (!sawOpen) {
    throw adpm::Error("operation log '" + path + "' has no header");
  }
  return replay;
}

// -- segment / checkpoint file layout -----------------------------------------

std::string segmentPath(const std::string& basePath, std::size_t seq) {
  if (seq == 0) return basePath;
  return basePath + "." + std::to_string(seq);
}

std::string checkpointPath(const std::string& basePath, std::size_t seq) {
  std::string stem = basePath;
  if (stem.size() > 4 && stem.ends_with(".wal")) {
    stem.resize(stem.size() - 4);
  }
  return stem + ".ckpt." + std::to_string(seq);
}

std::optional<WalFileName> parseWalFileName(const std::string& filename) {
  if (filename.ends_with(".tmp")) return std::nullopt;
  if (filename.size() > 4 && filename.ends_with(".wal")) {
    WalFileName out;
    out.sessionId = filename.substr(0, filename.size() - 4);
    return out;
  }
  const std::size_t lastDot = filename.rfind('.');
  if (lastDot == std::string::npos || lastDot + 1 >= filename.size()) {
    return std::nullopt;
  }
  std::size_t seq = 0;
  for (std::size_t i = lastDot + 1; i < filename.size(); ++i) {
    const char c = filename[i];
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::size_t>(c - '0');
  }
  const std::string head = filename.substr(0, lastDot);
  WalFileName out;
  out.seq = seq;
  if (head.size() > 4 && head.ends_with(".wal")) {
    if (seq == 0) return std::nullopt;  // segment 0 lives at "<id>.wal"
    out.sessionId = head.substr(0, head.size() - 4);
    return out;
  }
  if (head.size() > 5 && head.ends_with(".ckpt")) {
    out.sessionId = head.substr(0, head.size() - 5);
    out.isCheckpoint = true;
    return out;
  }
  return std::nullopt;
}

SessionFiles listSessionFiles(const std::string& basePath) {
  namespace fs = std::filesystem;
  const fs::path base(basePath);
  std::string id = base.filename().string();
  if (id.size() > 4 && id.ends_with(".wal")) id.resize(id.size() - 4);
  fs::path dir = base.parent_path();
  if (dir.empty()) dir = ".";

  SessionFiles out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::optional<WalFileName> parsed =
        parseWalFileName(entry.path().filename().string());
    if (!parsed || parsed->sessionId != id) continue;
    SegmentRef ref;
    ref.seq = parsed->seq;
    ref.path = entry.path().string();
    (parsed->isCheckpoint ? out.checkpoints : out.segments)
        .push_back(std::move(ref));
  }
  const auto bySeq = [](const SegmentRef& a, const SegmentRef& b) {
    return a.seq < b.seq;
  };
  std::sort(out.segments.begin(), out.segments.end(), bySeq);
  std::sort(out.checkpoints.begin(), out.checkpoints.end(), bySeq);
  return out;
}

void writeCheckpoint(const std::string& basePath, const Checkpoint& ckpt,
                     bool sync) {
  util::json::Value v{util::json::Object{}};
  v.set("t", "ckpt");
  v.set("v", Checkpoint::kVersion);
  v.set("session", ckpt.config.id);
  v.set("adpm", ckpt.config.adpm);
  v.set("scenario", ckpt.config.scenarioName);
  v.set("dddl", ckpt.config.scenarioDddl);
  v.set("seq", ckpt.seq);
  v.set("stage", ckpt.stage);
  v.set("walSeq", ckpt.walSeq);
  v.set("digest", ckpt.digest);
  v.set("state", ckpt.state);
  const std::string base = util::json::serialize(v);
  std::string line = base.substr(0, base.size() - 1);
  line += ",\"crc\":\"";
  line += util::fnv1a64Hex(base);
  line += "\"}\n";

  const std::string path = checkpointPath(basePath, ckpt.seq);
  const std::string tmp = path + ".tmp";
  const auto discardTmp = [&tmp] {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
  };

  switch (ADPM_FAULT_POINT("ckpt.write")) {
    case util::FaultAction::Error:
      throw adpm::TransientError("injected failure writing checkpoint '" +
                                 path + "'");
    case util::FaultAction::ShortWrite: {
      // Persist a prefix of the staging file and give up — the torn temp a
      // real crash mid-write leaves.  Recovery never reads *.tmp, so the
      // litter is harmless; it is left behind deliberately so torture tests
      // see exactly what a crash produces.
      std::FILE* torn = std::fopen(tmp.c_str(), "w");
      if (torn != nullptr) {
        std::fwrite(line.data(), 1, line.size() / 2 + 1, torn);
        std::fclose(torn);
      }
      throw adpm::TransientError("injected short write tore checkpoint temp '" +
                                 tmp + "'");
    }
    default:
      break;
  }

  std::FILE* out = std::fopen(tmp.c_str(), "w");
  if (out == nullptr) {
    throw adpm::TransientError("cannot create checkpoint temp '" + tmp + "'");
  }
  bool ok = std::fwrite(line.data(), 1, line.size(), out) == line.size() &&
            std::fflush(out) == 0;
#if ADPM_WAL_POSIX
  // The rename must only ever install fully-durable bytes: fsync the temp
  // *before* the rename regardless of `sync` — a checkpoint that might be
  // garbage after a power cut is worse than none (recovery would fall back
  // anyway, but only after paying to parse it).
  ok = ok && ::fsync(::fileno(out)) == 0;
#endif
  ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    discardTmp();
    throw adpm::TransientError("write failed for checkpoint temp '" + tmp +
                               "'");
  }

  if (ADPM_FAULT_POINT("ckpt.rename") != util::FaultAction::None) {
    // Crash-equivalent instant: the temp is durable but never installed.
    // Undo it here (an injected *error* is recoverable, unlike an abort).
    discardTmp();
    throw adpm::TransientError("injected failure installing checkpoint '" +
                               path + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    discardTmp();
    throw adpm::TransientError("cannot install checkpoint '" + path +
                               "': " + ec.message());
  }
#if ADPM_WAL_POSIX
  // The new *name* lives in the directory inode (same discipline as WAL
  // segment creation, gated on the same knob).
  if (sync) fsyncParentDir(path);
#else
  (void)sync;
#endif
}

Checkpoint readCheckpoint(const std::string& path) {
  std::optional<std::string> file = readWholeFile(path);
  if (!file) {
    throw adpm::Error("cannot read checkpoint '" + path + "'");
  }
  std::string& content = *file;
  // The trailing newline lands last; a file without one is torn by
  // definition, exactly like a WAL record.
  if (content.empty() || content.back() != '\n') {
    throw adpm::Error("checkpoint '" + path + "' is torn");
  }
  content.pop_back();
  if (content.find('\n') != std::string::npos) {
    throw adpm::Error("checkpoint '" + path + "' has trailing garbage");
  }

  util::json::Value v;
  try {
    v = util::json::parse(content);
  } catch (const adpm::Error& e) {
    throw adpm::Error("checkpoint '" + path + "': " + e.what());
  }
  const util::json::Value* crc = v.find("crc");
  if (crc == nullptr || crc->kind() != util::json::Kind::String) {
    throw adpm::Error("checkpoint '" + path + "' has no crc");
  }
  if (!crcMatchesBytes(content)) {
    throw adpm::Error("checkpoint '" + path +
                      "': checksum mismatch (file is corrupt)");
  }

  try {
    if (v.at("t").asString() != "ckpt") {
      throw adpm::Error("not a checkpoint record");
    }
    const int version = static_cast<int>(v.at("v").asNumber());
    if (version != Checkpoint::kVersion) {
      throw adpm::Error("unsupported checkpoint version " +
                        std::to_string(version));
    }
    Checkpoint ckpt;
    ckpt.config.id = v.take("session").asString();
    ckpt.config.adpm = v.at("adpm").asBool();
    ckpt.config.scenarioName = v.take("scenario").asString();
    ckpt.config.scenarioDddl = v.take("dddl").asString();
    ckpt.seq = static_cast<std::size_t>(v.at("seq").asNumber());
    ckpt.stage = static_cast<std::size_t>(v.at("stage").asNumber());
    ckpt.walSeq = static_cast<std::size_t>(v.at("walSeq").asNumber());
    ckpt.digest = v.take("digest").asString();
    ckpt.state = v.take("state");
    return ckpt;
  } catch (const adpm::Error& e) {
    throw adpm::Error("checkpoint '" + path + "' is malformed: " + e.what());
  }
}

// -- SegmentedLog -------------------------------------------------------------

SegmentedLog::SegmentedLog(std::string basePath, SessionConfig config,
                           Options options)
    : basePath_(std::move(basePath)),
      config_(std::move(config)),
      options_(options) {
  current_ = std::make_unique<OperationLog>(segmentPath(basePath_, 0),
                                            options_.sync);
  current_->appendOpen(config_);
}

SegmentedLog::SegmentedLog(std::string basePath, SessionConfig config,
                           Options options, const AttachSpec& attach)
    : basePath_(std::move(basePath)),
      config_(std::move(config)),
      options_(options),
      seq_(attach.walSeq),
      nextCheckpointSeq_(attach.nextCheckpointSeq),
      checkpoints_(attach.checkpoints) {
  if (attach.startFresh) {
    startStage_ = attach.startStage;
    current_ = std::make_unique<OperationLog>(segmentPath(basePath_, seq_),
                                              options_.sync);
    current_->appendOpen(config_, seq_, startStage_);
  } else {
    startStage_ = attach.opsBefore;
    opsInSegment_ = attach.opsInSegment;
    // No header: the recovered session continues the existing segment.
    current_ = std::make_unique<OperationLog>(segmentPath(basePath_, seq_),
                                              options_.sync);
  }
}

void SegmentedLog::rotate() {
  if (ADPM_FAULT_POINT("wal.rotate") != util::FaultAction::None) {
    throw adpm::TransientError("injected failure rotating log '" + basePath_ +
                               "' past segment " + std::to_string(seq_));
  }
  const std::size_t nextSeq = seq_ + 1;
  const std::size_t nextStart = startStage_ + opsInSegment_;
  const std::string path = segmentPath(basePath_, nextSeq);
  auto fresh = std::make_unique<OperationLog>(path, options_.sync);
  try {
    fresh->appendOpen(config_, nextSeq, nextStart);
  } catch (...) {
    // The half-born segment must not survive: a file with a torn header
    // would end the recovery chain right here.  The old segment is still
    // the append target, so the failure is transient.
    fresh.reset();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    throw;
  }
  current_ = std::move(fresh);
  seq_ = nextSeq;
  startStage_ = nextStart;
  opsInSegment_ = 0;
  ++rotations_;
}

void SegmentedLog::appendOperation(const dpm::Operation& op) {
  const bool fullByOps =
      options_.segmentOps > 0 && opsInSegment_ >= options_.segmentOps;
  const bool fullByBytes = options_.segmentBytes > 0 && opsInSegment_ > 0 &&
                           current_->tailOffset() >= options_.segmentBytes;
  if (fullByOps || fullByBytes) rotate();
  current_->appendOperation(op);
  ++opsInSegment_;
}

void SegmentedLog::appendMark(std::size_t stage, const std::string& digest) {
  current_->appendMark(stage, digest);
}

void SegmentedLog::writeCheckpoint(util::json::Value state, std::size_t stage,
                                   const std::string& digest,
                                   std::size_t keep) {
  // Rotate first so the checkpoint's walSeq names a segment starting
  // exactly at `stage` — tail replay resumes at its first record.
  if (opsInSegment_ > 0) rotate();
  Checkpoint ckpt;
  ckpt.config = config_;
  ckpt.seq = nextCheckpointSeq_;
  ckpt.stage = stage;
  ckpt.walSeq = seq_;
  ckpt.state = std::move(state);
  ckpt.digest = digest;
  service::writeCheckpoint(basePath_, ckpt, options_.sync);
  ++nextCheckpointSeq_;
  ++checkpointsWritten_;
  checkpoints_.emplace_back(ckpt.seq, ckpt.walSeq);
  compact(keep);
}

void SegmentedLog::compact(std::size_t keep) {
  if (keep == 0) keep = 1;  // at least one checkpoint always survives
  if (checkpoints_.empty()) return;
  if (ADPM_FAULT_POINT("wal.compact") != util::FaultAction::None) {
    throw adpm::TransientError("injected failure compacting log '" +
                               basePath_ + "'");
  }
  while (checkpoints_.size() > keep) {
    std::error_code ec;
    std::filesystem::remove(checkpointPath(basePath_, checkpoints_.front().first),
                            ec);
    // Deletion failure degrades: the stale file costs disk, not correctness.
    checkpoints_.erase(checkpoints_.begin());
  }
  // Segments are deleted only once the full complement of `keep`
  // checkpoints is durable: with fewer, the fallback chain still ends in a
  // full replay, which needs every segment back to seq 0.
  if (checkpoints_.size() < keep) return;
  // Every retained checkpoint must keep its tail replayable, so only
  // segments older than the *oldest* retained checkpoint's walSeq go.
  std::size_t floor = checkpoints_.front().second;
  for (const auto& [seq, walSeq] : checkpoints_) {
    floor = std::min(floor, walSeq);
  }
  for (const SegmentRef& seg : listSessionFiles(basePath_).segments) {
    if (seg.seq >= floor || seg.seq == seq_) continue;
    std::error_code ec;
    if (std::filesystem::remove(seg.path, ec) && !ec) ++segmentsCompacted_;
  }
}

}  // namespace adpm::service
