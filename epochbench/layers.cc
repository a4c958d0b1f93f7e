// The traced run (--trace 1): per-layer metrics for one workload, measured from outside
// the layers. Spans from this file wrap each public call (name, start, end, parent, epoch)
// and stay in memory until the run ends, when they are written with self time to
// <out-dir>/spans_<workload>_seed<N>.json. Counters come from what the calls already
// return (AuditStats, AuditResult::phases, ClientStats/ServiceStats) and from the obs
// registry. Metrics a workload does not exercise read 0 and are listed under "absent"
// in the stamp line.
//
// The Figure 9 stack runs the in-memory audit at 1 thread one layer call at a time:
//   objects.read_s + core.prepare_s + core.plan_s + core.execute_1t_s + core.compare_s
//   + core.fig9_residual_s == core.fig9_total_s
// where the residual is everything between the calls (context set-up, final-state
// extraction) and is printed so the stack can be seen to add up.
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "bench.h"
#include "src/core/audit_plan.h"
#include "src/obs/metrics.h"
#include "src/objects/wire_format.h"
#include "src/server/collector.h"
#include "src/server/server_core.h"
#include "src/stream/stream_audit.h"

namespace epochbench {

using namespace orochi;

namespace {

// A registry counter's current value (0 when nothing registered it).
uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default()->GetCounter(name, "")->Value();
}

// Wall seconds of one audit phase, looked up by its exported name.
double PhaseSeconds(const obs::PhaseBreakdown& phases, const char* name) {
  for (int p = 0; p < obs::kNumPhases; p++) {
    if (std::strcmp(obs::PhaseName(static_cast<obs::Phase>(p)), name) == 0) {
      return phases.seconds[p];
    }
  }
  return 0;
}

// Times every re-executed chunk: Acquire/Release bracket each task on its worker thread.
class ChunkTimer : public AuditTaskGate {
 public:
  ChunkTimer(SpanLog* log, int parent, uint64_t epoch)
      : log_(log), parent_(parent), epoch_(epoch) {}
  Status Acquire(const AuditTask& task) override {
    const double now = NowSeconds();
    std::lock_guard<std::mutex> lock(mu_);
    started_[task.order] = now;
    return Status::Ok();
  }
  void Release(const AuditTask& task) override {
    const double now = NowSeconds();
    double start = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      start = started_[task.order];
      durations_.push_back(now - start);
    }
    log_->Add("core.chunk", parent_, epoch_, start, now);
  }
  const std::vector<double>& durations() const { return durations_; }

 private:
  SpanLog* const log_;
  const int parent_;
  const uint64_t epoch_;
  std::mutex mu_;
  std::map<size_t, double> started_;
  std::vector<double> durations_;
};

// Drops a spill file's pages from the page cache and returns the fraction of its pages
// still resident afterwards (0 when the eviction took).
double EvictFromPageCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return 1;
  }
  struct stat st {};
  double resident = 1;
  if (::fstat(fd, &st) == 0 && st.st_size > 0 &&
      ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED) == 0) {
    const size_t size = static_cast<size_t>(st.st_size);
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    if (map != MAP_FAILED) {
      const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
      std::vector<unsigned char> vec((size + page - 1) / page);
      if (::mincore(map, size, vec.data()) == 0) {
        size_t in_core = 0;
        for (unsigned char v : vec) {
          in_core += v & 1;
        }
        resident = static_cast<double>(in_core) / static_cast<double>(vec.size());
      }
      ::munmap(map, size);
    }
  }
  ::close(fd);
  return resident;
}

// Sum over an iteration's epochs: wall seconds, and per-phase seconds by exported name.
double TotalSeconds(const IterationResult& it) {
  double total = 0;
  for (double v : it.verdict_s) {
    total += v;
  }
  return total;
}

double PhaseSeconds(const IterationResult& it, const char* name) {
  double total = 0;
  for (const AuditResult& r : it.results) {
    total += PhaseSeconds(r.phases, name);
  }
  return total;
}

}  // namespace

Metrics RunTraced(const Config& config, Tally* tally, std::string* stamp) {
  SpanLog log;
  const bool live = config.kind == Kind::kWikiLive;
  SetUp setup = RunSetUp(config, 0, &log, tally);
  const Workload& w = *setup.workload;
  const double requests = static_cast<double>(setup.requests());
  Metrics m;
  auto add = [&](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };

  // --- server: the same items served again with recording off (Figure 8's baseline). ---
  double plain_cpu_s = 0;
  {
    ScopedSpan span(&log, "server.serve_plain");
    ServerCore plain(&w.app, w.initial, ServerOptions{.record_reports = false});
    for (size_t k = 0; k < config.epochs; k++) {
      Collector collector(/*shard_id=*/1);
      ServeEpoch(config, w, k, &plain, &collector);
    }
    plain_cpu_s = plain.TotalCpuSeconds();
  }
  add("server.serve_cpu_s", setup.serve_cpu_s, "s");
  add("server.plain_cpu_s", plain_cpu_s, "s");
  add("server.record_overhead", setup.serve_cpu_s / plain_cpu_s, "ratio");
  add("server.flush_s", setup.flush_s, "s");

  // --- objects + core: the in-memory audit at 1 thread, one layer call at a time. ---
  AuditOptions one = AuditOptionsFor(config);
  one.num_threads = 1;
  double grouped_cpu_s = 0, read_bytes = 0;
  size_t chunks = 0;
  std::vector<double> chunk_s;
  AuditStats stats;
  std::vector<Trace> traces;
  std::vector<Reports> reports;
  std::vector<InitialState> states{w.initial};
  // AuditContext keeps pointers into these: no reallocation while a context lives.
  traces.reserve(setup.epochs.size());
  reports.reserve(setup.epochs.size());
  states.reserve(setup.epochs.size() + 1);
  for (size_t k = 0; k < setup.epochs.size(); k++) {
    const EpochData& e = setup.epochs[k];
    const uint64_t epoch = k + 1;
    ScopedSpan stack(&log, "core.fig9_stack", SpanLog::kNoParent, epoch);
    Result<Trace> trace = Result<Trace>::Error("not read");
    Result<Reports> rep = Result<Reports>::Error("not read");
    {
      ScopedSpan span(&log, "objects.read", stack.id(), epoch);
      trace = ReadTraceFile(e.trace_path);
      rep = ReadReportsFile(e.reports_path);
    }
    if (!trace.ok() || !rep.ok()) {
      tally->Check(false, "objects.read of epoch " + std::to_string(epoch) + " failed");
      break;
    }
    read_bytes += static_cast<double>(e.trace_bytes + e.reports_bytes);
    traces.push_back(std::move(trace).value());
    reports.push_back(std::move(rep).value());
    const double c0 = ProcessCpuSeconds();
    AuditContext ctx(&traces.back(), &reports.back(), &w.app, &states.back(), one);
    Status prepared;
    {
      ScopedSpan span(&log, "core.prepare", stack.id(), epoch);
      prepared = ctx.Prepare();
    }
    AuditPlan plan;
    {
      ScopedSpan span(&log, "core.plan", stack.id(), epoch);
      plan = PlanAuditTasks(&ctx, reports.back(), &w.app, one);
    }
    AuditExecOutcome exec;
    {
      ScopedSpan span(&log, "core.execute_1t", stack.id(), epoch);
      ChunkTimer timer(&log, span.id(), epoch);
      exec = ExecuteAuditPlan(&ctx, &w.app, one, plan, &timer);
      chunk_s.insert(chunk_s.end(), timer.durations().begin(), timer.durations().end());
    }
    Status compared;
    {
      ScopedSpan span(&log, "core.compare", stack.id(), epoch);
      compared = ctx.CompareOutputs();
    }
    InitialState final_state = ctx.ExtractFinalState();
    grouped_cpu_s += ProcessCpuSeconds() - c0;
    chunks += plan.tasks.size();
    stats.MergeFrom(ctx.stats());
    const bool ok = prepared.ok() && exec.fail_order == kNoAuditFailure && compared.ok() &&
                    InitialStateFingerprint(final_state) == e.fingerprint;
    tally->Check(ok, "1-thread layer stack of epoch " + std::to_string(epoch));
    states.push_back(std::move(final_state));
  }
  const double read_s = log.Total("objects.read");
  const double prepare_s = log.Total("core.prepare");
  const double plan_s = log.Total("core.plan");
  const double exec1_s = log.Total("core.execute_1t");
  const double compare_s = log.Total("core.compare");
  const double total_s = log.Total("core.fig9_stack");
  const double residual_s = total_s - (read_s + prepare_s + plan_s + exec1_s + compare_s);
  std::fprintf(stderr,
               "figure 9 stack at 1 thread: read %.4f + prepare %.4f + plan %.4f + "
               "execute %.4f + compare %.4f + residual %.4f = total %.4f s\n",
               read_s, prepare_s, plan_s, exec1_s, compare_s, residual_s, total_s);

  // The same epochs' re-execution at nproc threads, on freshly prepared contexts.
  const AuditOptions wide = AuditOptionsFor(config);
  for (size_t k = 0; k < traces.size(); k++) {
    AuditContext ctx(&traces[k], &reports[k], &w.app, &states[k], wide);
    if (!ctx.Prepare().ok()) {
      tally->Check(false, "nproc prepare of epoch " + std::to_string(k + 1));
      continue;
    }
    AuditPlan plan = PlanAuditTasks(&ctx, reports[k], &w.app, wide);
    ScopedSpan span(&log, "core.execute", SpanLog::kNoParent, k + 1);
    AuditExecOutcome exec = ExecuteAuditPlan(&ctx, &w.app, wide, plan);
    tally->Check(exec.fail_order == kNoAuditFailure,
                 "nproc execute of epoch " + std::to_string(k + 1));
  }
  const double exec_s = log.Total("core.execute");

  // Simple re-execution (no grouping, no dedup) at 1 thread: the paper's baseline.
  double baseline_cpu_s = 0;
  {
    Auditor auditor(&w.app, one);
    for (size_t k = 0; k < traces.size(); k++) {
      ScopedSpan span(&log, "baseline.audit_sequential", SpanLog::kNoParent, k + 1);
      const double c0 = ProcessCpuSeconds();
      AuditResult r = auditor.AuditSequential(traces[k], reports[k], states[k]);
      baseline_cpu_s += ProcessCpuSeconds() - c0;
      tally->Check(r.accepted && InitialStateFingerprint(r.final_state) ==
                                     setup.epochs[k].fingerprint,
                   "sequential baseline of epoch " + std::to_string(k + 1));
    }
  }
  traces.clear();
  reports.clear();

  add("objects.read_s", read_s, "s");
  add("objects.read_mb_s", read_bytes / (1024.0 * 1024.0) / read_s, "MiB/s");
  double trace_bytes = 0;
  for (const EpochData& e : setup.epochs) {
    trace_bytes += static_cast<double>(e.trace_bytes);
  }
  add("objects.trace_bytes_per_req", trace_bytes / requests, "B");
  add("core.fig9_total_s", total_s, "s");
  add("core.fig9_residual_s", residual_s, "s");
  add("core.prepare_s", prepare_s, "s");
  add("core.procop_s", stats.proc_op_reports_seconds, "s");
  add("core.db_redo_s", stats.db_redo_seconds, "s");
  add("core.plan_s", plan_s, "s");
  add("core.execute_1t_s", exec1_s, "s");
  add("core.execute_s", exec_s, "s");
  add("core.parallel_speedup", exec1_s / exec_s, "ratio");
  add("core.compare_s", compare_s, "s");
  add("core.chunks", static_cast<double>(chunks), "count");
  double chunk_sum = 0, chunk_max = 0;
  for (double c : chunk_s) {
    chunk_sum += c;
    chunk_max = std::max(chunk_max, c);
  }
  add("core.chunk_max_share", chunk_sum > 0 ? chunk_max / chunk_sum : 0, "ratio");
  add("core.groups", static_cast<double>(stats.num_groups), "count");
  add("core.groups_multi", static_cast<double>(stats.groups_multi), "count");
  add("core.fallback_groups", static_cast<double>(stats.fallback_groups), "count");
  add("core.ops_checked", static_cast<double>(stats.ops_checked), "count");
  add("lang.instructions", static_cast<double>(stats.total_instructions), "count");
  add("lang.multivalent_instructions", static_cast<double>(stats.multivalent_instructions),
      "count");
  add("lang.univalent_frac",
      stats.total_instructions > 0
          ? 1.0 - static_cast<double>(stats.multivalent_instructions) /
                      static_cast<double>(stats.total_instructions)
          : 0,
      "ratio");
  add("lang.reexec_nonsql_s", stats.reexec_seconds - stats.db_query_seconds, "s");
  add("sql.select_s", stats.db_query_seconds, "s");
  add("sql.selects_issued", static_cast<double>(stats.db_selects_issued), "count");
  add("sql.selects_deduped", static_cast<double>(stats.db_selects_deduped), "count");
  const double selects = static_cast<double>(stats.db_selects_issued + stats.db_selects_deduped);
  add("sql.dedup_hit_rate",
      selects > 0 ? static_cast<double>(stats.db_selects_deduped) / selects : 0, "ratio");

  // --- stream: the workload's streamed verdict path over the direct spills. ---
  Result<uint64_t> budget_bytes = ResolveAuditBudget(AuditOptionsFor(config));
  ChunkBudget budget(budget_bytes.ok() ? budget_bytes.value() : 0);
  StreamAuditHooks hooks;
  hooks.budget = &budget;
  const uint64_t waits0 = CounterValue("orochi_budget_waits_total");
  const uint64_t oversized0 = CounterValue("orochi_budget_oversized_admissions_total");
  const uint64_t hits0 = CounterValue("orochi_prefetch_hits_total");
  const uint64_t misses0 = CounterValue("orochi_prefetch_misses_total");
  const IterationResult streamed =
      AuditSpills(config, setup, &log, tally, SpillPath::kStreamed, &hooks);
  const uint64_t hits = CounterValue("orochi_prefetch_hits_total") - hits0;
  const uint64_t misses = CounterValue("orochi_prefetch_misses_total") - misses0;
  // The read-ahead and page-cache variants run in rounds, one of each per round, so a
  // slow stretch of the machine does not land on one variant only.
  std::vector<double> warm, no_prefetch, cold, in_memory, resident;
  auto audit_s = [&](SpillPath path) {
    return TotalSeconds(AuditSpills(config, setup, nullptr, tally, path));
  };
  for (int round = 0; round < 3; round++) {
    warm.push_back(audit_s(SpillPath::kStreamed));
    setenv("OROCHI_PREFETCH_DEPTH", "0", 1);
    no_prefetch.push_back(audit_s(SpillPath::kStreamed));
    unsetenv("OROCHI_PREFETCH_DEPTH");
    for (const EpochData& e : setup.epochs) {
      resident.push_back(EvictFromPageCache(e.trace_path));
      resident.push_back(EvictFromPageCache(e.reports_path));
    }
    cold.push_back(audit_s(SpillPath::kStreamed));
    in_memory.push_back(audit_s(SpillPath::kInMemory));
  }
  const double warm_s = Median(warm);

  add("stream.verdict_s", warm_s, "s");
  add("stream.pass1_s", PhaseSeconds(streamed, "pass1_skeleton"), "s");
  add("stream.prepare_s", PhaseSeconds(streamed, "prepare"), "s");
  add("stream.pass2_io_wait_s", PhaseSeconds(streamed, "pass2_io_wait"), "s");
  add("stream.pass3_s", PhaseSeconds(streamed, "pass3_compare"), "s");
  add("stream.peak_resident_bytes", static_cast<double>(budget.peak_bytes()), "B");
  add("stream.budget_waits",
      static_cast<double>(CounterValue("orochi_budget_waits_total") - waits0), "count");
  add("stream.oversized_admissions",
      static_cast<double>(CounterValue("orochi_budget_oversized_admissions_total") -
                          oversized0),
      "count");
  add("stream.prefetch_hits", static_cast<double>(hits), "count");
  add("stream.prefetch_misses", static_cast<double>(misses), "count");
  add("stream.prefetch_acquires", static_cast<double>(hits + misses), "count");
  add("stream.prefetch_hit_rate",
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0,
      "ratio");
  add("stream.no_prefetch_verdict_s", Median(no_prefetch), "s");
  add("stream.cold_verdict_s", Median(cold), "s");
  double resident_sum = 0;
  for (double r : resident) {
    resident_sum += r;
  }
  add("stream.cold_resident_frac", resident.empty() ? 1 : resident_sum / resident.size(),
      "ratio");
  add("stream.vs_in_memory", warm_s / Median(in_memory), "ratio");

  // --- The verdict iteration itself, alternating untraced and traced (spans on). ---
  std::vector<double> untraced, traced;
  IterationResult last;
  const double start = NowSeconds();
  for (int i = 0; i < 3 || NowSeconds() - start < config.seconds; i++) {
    IterationResult plain_it = RunIteration(config, setup, nullptr, tally, 2 * i);
    untraced.insert(untraced.end(), plain_it.verdict_s.begin(), plain_it.verdict_s.end());
    last = RunIteration(config, setup, &log, tally, 2 * i + 1);
    traced.insert(traced.end(), last.verdict_s.begin(), last.verdict_s.end());
  }
  RunTamperProbe(config, setup, tally);
  std::vector<std::string> absent;
  auto add_live = [&](const char* name, double value, const char* unit) {
    add(name, live ? value : 0, unit);
    if (!live) {
      absent.push_back(name);
    }
  };
  add_live("net.send_s", last.send_s, "s");
  add_live("net.bytes_sent", static_cast<double>(last.bytes_sent), "B");
  add_live("net.acks", static_cast<double>(last.acks), "count");
  add_live("net.reconnects", static_cast<double>(last.reconnects), "count");
  add_live("service.records_spooled", static_cast<double>(last.records_spooled), "count");
  add_live("service.bytes_spooled", static_cast<double>(last.bytes_spooled), "B");
  add_live("service.records_deduped", static_cast<double>(last.records_deduped), "count");
  add_live("service.shard_merge_s", PhaseSeconds(last, "shard_merge"), "s");
  // Outside view of the audit thread: epoch k's audit starts when it has sealed and the
  // previous verdict has landed. Backlog at each seal: earlier epochs still unaudited.
  std::vector<double> busy;
  double backlog = 0;
  for (size_t k = 0; k < last.verdict_at.size(); k++) {
    const double began = k > 0 ? std::max(last.ack_at[k], last.verdict_at[k - 1])
                               : last.ack_at[k];
    busy.push_back(last.verdict_at[k] - began);
    for (size_t j = 0; j < k; j++) {
      backlog += last.verdict_at[j] > last.ack_at[k] ? 1 : 0;
    }
  }
  add_live("service.audit_s", Median(busy), "s");
  add_live("service.backlog_epochs",
           last.ack_at.empty() ? 0 : backlog / static_cast<double>(last.ack_at.size()),
           "count");
  if (live) {
    absent.push_back("stream.budget_waits");
    absent.push_back("stream.oversized_admissions");
  }

  add("baseline.cpu_s", baseline_cpu_s, "s");
  add("baseline.speedup", baseline_cpu_s / grouped_cpu_s, "ratio");
  add("obs.untraced_verdict_s", Median(untraced), "s");
  add("obs.traced_verdict_s", Median(traced), "s");
  add("obs.trace_overhead", Median(traced) / Median(untraced), "ratio");
  add("wrong_verdict_frac",
      tally->attempted > 0
          ? static_cast<double>(tally->wrong) / static_cast<double>(tally->attempted)
          : 1,
      "ratio");

  std::string absent_json = "[";
  for (size_t i = 0; i < absent.size(); i++) {
    absent_json += (i > 0 ? ", \"" : "\"") + absent[i] + "\"";
  }
  absent_json += "]";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"requests\": %" PRIu64 ", \"spill_bytes\": %" PRIu64
                ", \"epochs\": %zu, \"absent\": ",
                setup.requests(), setup.spill_bytes(), setup.epochs.size());
  *stamp += buf + absent_json;
  const std::string path = config.out_dir + "/spans_" + config.name + "_seed" +
                           std::to_string(config.seed) + ".json";
  if (!log.WriteJson(path, "{\"workload\": \"" + config.name + "\", \"seed\": " +
                               std::to_string(config.seed) + "}")) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
  return m;
}

}  // namespace epochbench
