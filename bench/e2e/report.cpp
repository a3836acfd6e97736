// Metric definitions: what each reported number is computed from.
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "util/strings.hpp"

namespace adpm::bench {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Metric percentileMetric(const std::string& name, const std::string& unit,
                        const std::vector<double>& values, double q,
                        double scale = 1.0) {
  return Metric{name, unit, percentile(values, q) * scale, values.size()};
}

Metric latencyMetric(const std::string& name, const LatencyHistogram& h,
                     double q) {
  return Metric{name, "ms", h.percentile(q) * 1e-3, h.count()};
}

/// Per-request totals of the spans named in `parts`.
std::map<std::pair<std::uint32_t, std::uint32_t>, double> sumByRequest(
    const SpanSet& spans, const std::vector<std::string>& parts) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> out;
  for (const std::string& part : parts) {
    for (const auto& [request, micros] : microsByRequest(spans, part)) {
      out[request] += micros;
    }
  }
  return out;
}

/// Σ parts ÷ Σ whole over the requests both cover.
double coverage(
    const std::map<std::pair<std::uint32_t, std::uint32_t>, double>& parts,
    const std::map<std::pair<std::uint32_t, std::uint32_t>, double>& whole) {
  double partSum = 0.0, wholeSum = 0.0;
  for (const auto& [request, micros] : whole) {
    const auto it = parts.find(request);
    if (it == parts.end()) continue;
    partSum += it->second;
    wholeSum += micros;
  }
  return ratio(partSum, wholeSum);
}

}  // namespace

std::vector<Metric> endToEndMetrics(const LiveResult& live,
                                    const RecoveryResult& recovery,
                                    std::size_t failed) {
  const double ops = static_cast<double>(live.timedOps);
  const double attempted = static_cast<double>(live.attempted);
  return {
      {"ops_per_s", "ops/s", ratio(ops, live.timedWallS)},
      latencyMetric("op_latency_p50_ms", live.opLatencyUs, 0.50),
      latencyMetric("op_latency_p99_ms", live.opLatencyUs, 0.99),
      latencyMetric("read_latency_p50_ms", live.readLatencyUs, 0.50),
      latencyMetric("read_latency_p99_ms", live.readLatencyUs, 0.99),
      {"setup_s", "s", live.setupS, live.setupRepsS.size()},
      {"recovery_s", "s", recovery.medianS, recovery.sessions},
      {"cpu_ms_per_op", "ms", ratio(live.cpuS * 1e3, ops)},
      {"peak_rss_mb", "MB", live.peakRssMb},
      {"op_success_ratio", "ratio",
       ratio(std::max(0.0, attempted - static_cast<double>(failed)),
             attempted)},
      {"notify_delivery_ratio", "ratio",
       ratio(live.published - live.dropped, live.published)},
  };
}

std::vector<Metric> perLayerMetrics(const RunConfig& config,
                                    const LiveResult& live,
                                    const RecoveryResult& recovery) {
  const SpanSet& s = live.spans;
  const bool wire = config.workload.wire;
  const auto micros = [&s](const char* name) { return spanMicros(s, name); };
  const auto count = [&s](const char* name) { return counterTotal(s, name); };
  const double replayOps = count("replay.ops");
  const double adpmOps = count("replay.adpm_ops");
  double liveOps = 0.0, liveEvaluations = 0.0;
  for (const SessionResult& r : live.sessions) {
    liveOps += static_cast<double>(r.ops);
    liveEvaluations += static_cast<double>(r.evaluations);
  }

  // dpm self time: execute minus the parts the clone split accounts for.
  const auto execute = microsByRequest(s, "dpm.execute");
  const auto split =
      sumByRequest(s, {"constraint.propagate", "constraint.mine",
                       "dpm.nm_diff"});
  std::vector<double> selfMicros;
  double splitSum = 0.0, executeSum = 0.0;
  for (const auto& [request, total] : execute) {
    const auto it = split.find(request);
    if (it == split.end()) continue;
    selfMicros.push_back(total - it->second);
    splitSum += it->second;
    executeSum += total;
  }

  // The replayed parts of one apply, against the in-situ apply: the live
  // Session::apply in process, the bench-owned one for the wire server.
  std::vector<std::string> parts = {"dpm.execute", "bus.publish"};
  if (wire) {
    parts.insert(parts.end(), {"wal.append", "service.snapshot", "wal.mark",
                               "wal.checkpoint"});
  }
  const double applyCoverage =
      coverage(sumByRequest(s, parts),
               microsByRequest(s, wire ? "replay.session_apply"
                                       : "service.apply"));

  std::vector<double> rttOverhead;
  if (wire) {
    const auto whole = microsByRequest(s, "replay.session_apply");
    for (const auto& [request, rtt] : microsByRequest(s, "client.apply")) {
      const auto it = whole.find(request);
      if (it != whole.end()) rttOverhead.push_back(rtt - it->second);
    }
  }
  const std::vector<double> applyMicros =
      micros(wire ? "replay.session_apply" : "service.apply");
  const double diskBytes =
      wire ? live.walDiskBytes / std::max(1.0, live.totalOps)
           : ratio(count("wal.disk_bytes"), replayOps);

  return {
      percentileMetric("executor.strand_wait_us.p50", "us",
                       micros("executor.wait"), 0.50),
      percentileMetric("executor.strand_wait_us.p99", "us",
                       micros("executor.wait"), 0.99),
      {"executor.hops_per_op", "count",
       ratio(count("executor.hops"), count("trace.ops"))},
      percentileMetric("teamsim.propose_us.p50", "us",
                       micros("teamsim.propose"), 0.50),
      percentileMetric("teamsim.propose_us.p99", "us",
                       micros("teamsim.propose"), 0.99),
      percentileMetric("teamsim.observe_us.p50", "us",
                       micros("teamsim.observe"), 0.50),
      percentileMetric("service.apply_us.p50", "us", applyMicros, 0.50),
      percentileMetric("service.apply_us.p99", "us", applyMicros, 0.99),
      percentileMetric("service.query_guidance_us.p50", "us",
                       micros("service.query_guidance"), 0.50),
      percentileMetric("service.snapshot_us.p50", "us",
                       micros("service.snapshot"), 0.50),
      {"service.snapshot_bytes", "bytes",
       ratio(count("service.snapshot_bytes"), count("service.snapshots"))},
      percentileMetric("service.open_ms.p50", "ms", live.openMs, 0.50),
      {"service.recover_ms_per_session", "ms",
       ratio(recovery.medianS * 1e3, static_cast<double>(recovery.sessions))},
      percentileMetric("wal.append_us.p50", "us", micros("wal.append"), 0.50),
      {"wal.append_bytes_per_op", "bytes",
       ratio(count("wal.append_bytes"), replayOps)},
      percentileMetric("wal.mark_us.p50", "us", micros("wal.mark"), 0.50),
      percentileMetric("wal.checkpoint_ms.p50", "ms", micros("wal.checkpoint"),
                       0.50, 1e-3),
      {"wal.checkpoint_bytes", "bytes",
       ratio(count("wal.checkpoint_bytes"), count("wal.checkpoints"))},
      {"wal.disk_bytes_per_op", "bytes", diskBytes},
      {"wal.recover_ops_replayed_per_session", "count",
       ratio(recovery.opsReplayed, static_cast<double>(recovery.sessions))},
      percentileMetric("bus.publish_us.p50", "us", micros("bus.publish"), 0.50),
      {"bus.notifications_per_op", "count",
       ratio(live.published, live.totalOps)},
      {"bus.dropped", "count", live.dropped},
      {"bus.downgrades", "count", live.downgrades},
      percentileMetric("dpm.execute_us.p50", "us", micros("dpm.execute"), 0.50),
      percentileMetric("dpm.execute_us.p99", "us", micros("dpm.execute"), 0.99),
      percentileMetric("dpm.nm_diff_us.p50", "us", micros("dpm.nm_diff"), 0.50),
      percentileMetric("dpm.self_us.p50", "us", selfMicros, 0.50),
      {"dpm.evaluations_per_op", "count", ratio(liveEvaluations, liveOps)},
      percentileMetric("constraint.propagate_us.p50", "us",
                       micros("constraint.propagate"), 0.50),
      percentileMetric("constraint.propagate_us.p99", "us",
                       micros("constraint.propagate"), 0.99),
      {"constraint.revises_per_op", "count",
       ratio(count("constraint.revises"), adpmOps)},
      {"constraint.passes_per_op", "count",
       ratio(count("constraint.passes"), adpmOps)},
      percentileMetric("constraint.mine_us.p50", "us",
                       micros("constraint.mine"), 0.50),
      percentileMetric("constraint.mine_us.p99", "us",
                       micros("constraint.mine"), 0.99),
      {"constraint.whatif_evals_per_op", "count",
       ratio(count("constraint.whatif_evals"), adpmOps)},
      {"constraint.sweeps_per_op", "count",
       ratio(count("constraint.sweeps"), adpmOps)},
      {"constraint.active_constraints", "count",
       ratio(count("constraint.active"), replayOps)},
      percentileMetric("net.rtt_overhead_us.p50", "us", rttOverhead, 0.50),
      percentileMetric("net.rtt_overhead_us.p99", "us", rttOverhead, 0.99),
      {"net.frame_bytes_per_op", "bytes",
       ratio(count("net.frame_bytes"), replayOps)},
      percentileMetric("net.frame_codec_us.p50", "us",
                       micros("net.frame_codec"), 0.50),
      {"net.pushes_per_op", "count", ratio(live.pushes, live.totalOps)},
      {"gen.generate_ms", "ms", live.prepare.generateMs},
      {"dddl.write_ms", "ms", live.prepare.writeMs},
      {"dddl.parse_ms", "ms", live.prepare.parseMs},
      {"trace.apply_coverage", "ratio", applyCoverage},
      {"trace.execute_coverage", "ratio", ratio(splitSum, executeSum)},
      {"trace.overhead", "ratio",
       ratio(live.tracedTurnUs, live.untracedTurnUs)},
  };
}

std::string goldenText(const RunConfig& config, const LiveResult& live) {
  const WorkloadSpec& w = config.workload;
  std::size_t ops = 0, evaluations = 0, spins = 0, sessions = 0;
  std::string digests;
  for (const SessionResult& r : live.sessions) {
    if (r.index >= w.goldenSessions) break;
    if (r.index != sessions || !r.finished || r.failed) return "";
    ops += r.ops;
    evaluations += r.evaluations;
    spins += r.spins;
    digests += r.digest;
    digests += '\n';
    ++sessions;
  }
  if (sessions != w.goldenSessions) return "";
  char text[512];
  std::snprintf(text, sizeof text,
                "workload %s\nseed %llu\nsessions %zu\noperations %zu\n"
                "evaluations %zu\nspins %zu\ndigest %s\n",
                w.name.c_str(), static_cast<unsigned long long>(config.seed),
                sessions, ops, evaluations, spins,
                util::fnv1a64Hex(digests).c_str());
  return text;
}

}  // namespace adpm::bench
