// Epoch-to-verdict benchmark. Builds a workload's inputs from a seed, serves them
// through ServerCore/ThreadServer with recording on, spills each epoch, and measures how
// long the verifier takes from "epoch complete" to its verdict, checking every verdict
// against an in-memory reference audit and a tampered probe that must REJECT.
//
//   epoch_bench --workload forum|conf|wiki_live --seed N --seconds S --trace 0|1
//               --work-dir DIR --out-dir DIR
//
// The last line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 prints the end-to-end metrics, --trace 1 runs the
// traced per-layer measurement instead (see layers.cc). The line before it stamps the
// run's configuration. Human-readable progress goes to standard error.
#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "bench.h"
#include "src/common/crc32c.h"
#include "src/objects/object_model.h"
#include "src/objects/wire_format.h"
#include "src/server/collector.h"
#include "src/server/server_core.h"
#include "src/server/tamper.h"
#include "src/server/thread_server.h"
#include "src/service/audit_service.h"
#include "src/service/collector_client.h"
#include "src/stream/prefetch.h"
#include "src/stream/stream_audit.h"

#ifndef OROCHI_BENCH_BUILD_TYPE
#define OROCHI_BENCH_BUILD_TYPE "unknown"
#endif

namespace epochbench {

using namespace orochi;

// --- Clocks and small helpers ---

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

bool SameBytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) {
    return false;
  }
  std::vector<char> da(1 << 20), db(1 << 20);
  while (true) {
    fa.read(da.data(), static_cast<std::streamsize>(da.size()));
    fb.read(db.data(), static_cast<std::streamsize>(db.size()));
    const std::streamsize n = fa.gcount();
    if (n != fb.gcount() || std::memcmp(da.data(), db.data(), static_cast<size_t>(n)) != 0) {
      return false;
    }
    if (n < static_cast<std::streamsize>(da.size())) {
      return true;
    }
  }
}

unsigned HardwareThreads() { return std::max(1u, std::thread::hardware_concurrency()); }

bool ResetPeakRss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB.
    }
  }
  return 0;
}

void Tally::Check(bool ok, const std::string& what) {
  attempted++;
  if (!ok) {
    wrong++;
    std::fprintf(stderr, "WRONG VERDICT: %s\n", what.c_str());
  }
}

// --- Workloads ---

AuditOptions AuditOptionsFor(const Config& config) {
  AuditOptions options;
  options.num_threads = HardwareThreads();
  if (config.kind != Kind::kWikiLive) {
    options.max_resident_bytes = kOfflineBudgetBytes;
  }
  return options;
}

// Sizes follow the repo's bench presets (forum/conf at their scale-1 sizes; wiki as four
// 1500-request epochs), so one verdict takes 0.1-1 s on a 4-core machine and a run of a
// few seconds holds enough verdicts for a steady median.
uint64_t InputSeed(uint64_t seed, size_t input) { return seed * 1000 + input; }

std::unique_ptr<Workload> MakeWorkload(const Config& config, uint64_t workload_seed) {
  switch (config.kind) {
    case Kind::kForum: {
      ForumConfig c;
      c.num_topics = 8;
      c.num_users = 83;
      c.num_requests = 9000;
      c.seed = workload_seed;
      return std::make_unique<Workload>(MakeForumWorkload(c));
    }
    case Kind::kConf: {
      ConfConfig c;
      c.num_papers = 100;
      c.num_reviewers = 30;
      c.reviews_target = 300;
      c.review_length = 1200;
      c.max_updates_per_paper = 20;
      c.views_per_reviewer = 150;
      c.seed = workload_seed;
      return std::make_unique<Workload>(MakeConfWorkload(c));
    }
    case Kind::kWikiLive: {
      WikiConfig c;
      c.num_pages = 200;
      c.num_users = 100;
      c.num_requests = 1500 * config.epochs;
      c.seed = workload_seed;
      return std::make_unique<Workload>(MakeWikiWorkload(c));
    }
  }
  return nullptr;
}

uint64_t SetUp::requests() const {
  uint64_t n = 0;
  for (const EpochData& e : epochs) {
    n += e.requests;
  }
  return n;
}

uint64_t SetUp::spill_bytes() const {
  uint64_t n = 0;
  for (const EpochData& e : epochs) {
    n += e.trace_bytes + e.reports_bytes;
  }
  return n;
}

uint64_t SetUp::reports_bytes() const {
  uint64_t n = 0;
  for (const EpochData& e : epochs) {
    n += e.reports_bytes;
  }
  return n;
}

void ServeEpoch(const Config& config, const Workload& w, size_t k, ServerCore* core,
                Collector* collector) {
  const size_t per_epoch = (w.items.size() + config.epochs - 1) / config.epochs;
  const size_t end = std::min(w.items.size(), (k + 1) * per_epoch);
  ThreadServer server(core, collector, kServeWorkers);
  for (size_t i = k * per_epoch; i < end; i++) {
    // Request ids are the items' positions, unique across the epochs of an input.
    server.Submit(i + 1, w.items[i].script, w.items[i].params);
  }
  server.Drain();
}

double ServeAgain(const Config& config, const Workload& w) {
  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true});
  for (size_t k = 0; k < config.epochs; k++) {
    Collector collector(/*shard_id=*/1);
    ServeEpoch(config, w, k, &core, &collector);
    core.TakeReports();
  }
  return core.TotalCpuSeconds();
}

SetUp RunSetUp(const Config& config, size_t input, SpanLog* spans, Tally* tally) {
  const double start = NowSeconds();
  SetUp out;
  ScopedSpan setup_span(spans, "setup");
  {
    ScopedSpan span(spans, "workload.generate", setup_span.id());
    out.workload = MakeWorkload(config, InputSeed(config.seed, input));
  }
  const Workload& w = *out.workload;
  ServerCore core(&w.app, w.initial, ServerOptions{.record_reports = true});
  Auditor reference(&w.app, AuditOptionsFor(config));
  InitialState state = w.initial;
  for (size_t k = 0; k < config.epochs; k++) {
    const uint64_t epoch = k + 1;
    EpochData e;
    Collector collector(/*shard_id=*/1);
    {
      ScopedSpan span(spans, "server.serve", setup_span.id(), epoch);
      ServeEpoch(config, w, k, &core, &collector);
    }
    const Trace trace = collector.trace();
    const Reports reports = core.TakeReports();
    e.requests = trace.NumRequests();
    const std::string stem = config.work_dir + "/input_" + std::to_string(input) + "_epoch_" +
                             std::to_string(epoch);
    e.trace_path = stem + ".trace";
    e.reports_path = stem + ".reports";
    {
      ScopedSpan span(spans, "server.flush", setup_span.id(), epoch);
      const double t0 = NowSeconds();
      Status flushed = collector.Flush(e.trace_path);
      Status written = WriteReportsFile(e.reports_path, reports);
      out.flush_s += NowSeconds() - t0;
      if (!flushed.ok() || !written.ok()) {
        std::fprintf(stderr, "spill failed: %s\n",
                     (flushed.ok() ? written : flushed).error().c_str());
        std::exit(1);
      }
    }
    e.trace_bytes = FileBytes(e.trace_path);
    e.reports_bytes = FileBytes(e.reports_path);
    {
      ScopedSpan span(spans, "reference.audit", setup_span.id(), epoch);
      AuditResult r = reference.Audit(trace, reports, state);
      tally->Check(r.accepted, "reference audit of honest epoch " + std::to_string(epoch) +
                                   " rejected: " + r.reason);
      e.fingerprint = InitialStateFingerprint(r.final_state);
      state = std::move(r.final_state);
    }
    out.epochs.push_back(std::move(e));
  }
  out.serve_cpu_s = core.TotalCpuSeconds();
  out.seconds = NowSeconds() - start;
  return out;
}

// --- Measured iterations ---

namespace {

std::string OutcomeText(const Result<AuditResult>& r) {
  if (!r.ok()) {
    return "error: " + r.error();
  }
  return r.value().accepted ? "ACCEPT" : "REJECT: " + r.value().reason;
}

}  // namespace

IterationResult AuditSpills(const Config& config, const SetUp& setup, SpanLog* spans,
                            Tally* tally, SpillPath path, const StreamAuditHooks* hooks) {
  IterationResult out;
  const Workload& w = *setup.workload;
  AuditSession session = AuditSession::Open(&w.app, AuditOptionsFor(config), w.initial);
  for (size_t k = 0; k < setup.epochs.size(); k++) {
    const EpochData& e = setup.epochs[k];
    const bool streamed = path == SpillPath::kStreamed;
    ScopedSpan span(spans,
                    streamed ? "stream.feed_epoch_files_streamed" : "core.feed_epoch_files",
                    SpanLog::kNoParent, k + 1);
    const double t0 = NowSeconds();
    const double c0 = ProcessCpuSeconds();
    Result<AuditResult> r =
        streamed ? session.FeedEpochFilesStreamed(e.trace_path, e.reports_path, hooks)
                 : session.FeedEpochFiles(e.trace_path, e.reports_path);
    out.verdict_s.push_back(NowSeconds() - t0);
    out.audit_cpu_s.push_back(ProcessCpuSeconds() - c0);
    const bool ok = r.ok() && r.value().accepted &&
                    InitialStateFingerprint(r.value().final_state) == e.fingerprint;
    tally->Check(ok, std::string(streamed ? "streamed" : "in-memory") +
                         " audit of honest epoch " + std::to_string(k + 1) + ": " +
                         OutcomeText(r) +
                         (r.ok() && r.value().accepted ? " (fingerprint mismatch)" : ""));
    if (r.ok()) {
      out.results.push_back(std::move(r).value());
    }
  }
  return out;
}

namespace {

std::string SpoolPath(const std::string& dir, uint64_t epoch, const char* ext) {
  return dir + "/epoch_" + std::to_string(epoch) + "_shard_1." + ext;
}

// Reads every epoch's direct spill back into a fresh shard-1 collector (StreamEpoch takes
// the collector's trace, so each stream needs its own) and its reports.
void LoadLiveEpochs(const SetUp& setup, std::vector<std::unique_ptr<Collector>>* collectors,
                    std::vector<Reports>* reports) {
  for (const EpochData& e : setup.epochs) {
    Result<Trace> trace = ReadTraceFile(e.trace_path);
    Result<Reports> rep = ReadReportsFile(e.reports_path);
    if (!trace.ok() || !rep.ok()) {
      std::fprintf(stderr, "cannot read the spill back for streaming\n");
      std::exit(1);
    }
    collectors->push_back(std::make_unique<Collector>(/*shard_id=*/1));
    collectors->back()->Restore(std::move(trace).value());
    reports->push_back(std::move(rep).value());
  }
}

// True when the service's sealed spool of epoch k + 1 is byte-identical to the epoch's
// direct spill files.
bool SpoolMatches(const std::string& spool, size_t k, const EpochData& e) {
  return SameBytes(SpoolPath(spool, k + 1, "trace"), e.trace_path) &&
         SameBytes(SpoolPath(spool, k + 1, "reports"), e.reports_path);
}

IterationResult RunLiveIteration(const Config& config, const SetUp& setup, SpanLog* spans,
                                 Tally* tally, int iteration) {
  IterationResult out;
  const Workload& w = *setup.workload;
  const size_t n = setup.epochs.size();
  const std::string spool = config.work_dir + "/spool_" + std::to_string(iteration);
  std::filesystem::create_directories(spool);
  ServiceOptions service_options;
  service_options.spool_dir = spool;
  AuditService service(&w.app, AuditOptionsFor(config), w.initial, service_options);
  if (Status st = service.Start(); !st.ok()) {
    std::fprintf(stderr, "service start failed: %s\n", st.error().c_str());
    std::exit(1);
  }
  // The epochs' records are read back before the clock starts.
  std::vector<std::unique_ptr<Collector>> collectors;
  std::vector<Reports> reports;
  LoadLiveEpochs(setup, &collectors, &reports);
  ScopedSpan iteration_span(spans, "live.iteration");
  out.ack_at.assign(n, 0);
  out.verdict_at.assign(n, 0);
  std::vector<double> cpu_at_ack(n, 0), cpu_at_verdict(n, 0);
  std::vector<Result<AuditResult>> verdicts(n, Result<AuditResult>::Error("not reached"));
  // The verdict waiter: stamps each epoch's verdict as it lands, while the client keeps
  // streaming later epochs (the client never waits on verdicts).
  std::thread waiter([&] {
    for (size_t k = 0; k < n; k++) {
      ScopedSpan span(spans, "service.wait_epoch_verdict", iteration_span.id(), k + 1);
      verdicts[k] = service.WaitEpochVerdict(k + 1);
      out.verdict_at[k] = NowSeconds();
      cpu_at_verdict[k] = ProcessCpuSeconds();
    }
  });
  CollectorClient client(service.address());
  bool streamed_all = true;
  for (size_t k = 0; k < n && streamed_all; k++) {
    ScopedSpan span(spans, "net.stream_epoch", iteration_span.id(), k + 1);
    const double t0 = NowSeconds();
    Status st = client.StreamEpoch(k + 1, collectors[k].get(), reports[k]);
    out.ack_at[k] = NowSeconds();
    cpu_at_ack[k] = ProcessCpuSeconds();
    out.send_s += out.ack_at[k] - t0;
    if (!st.ok()) {
      tally->Check(false, "stream of epoch " + std::to_string(k + 1) + ": " + st.error());
      streamed_all = false;
    }
  }
  if (!streamed_all) {
    service.Stop();  // Unblocks the waiter on epochs that will never seal.
  }
  waiter.join();
  const ServiceStats stats = service.stats();
  service.Stop();

  const ClientStats& cs = client.stats();
  out.bytes_sent = cs.bytes_sent;
  out.acks = cs.acks_received;
  out.reconnects = cs.reconnects;
  out.records_spooled = stats.records_spooled;
  out.bytes_spooled = stats.bytes_spooled;
  out.records_deduped = stats.records_deduped;
  const bool clean_wire =
      cs.reconnects == 0 && stats.corrupt_frames == 0 && stats.shards_quarantined == 0;
  for (size_t k = 0; k < n && streamed_all; k++) {
    const EpochData& e = setup.epochs[k];
    const Result<AuditResult>& r = verdicts[k];
    const bool spool_parity = SpoolMatches(spool, k, e);
    const bool ok = r.ok() && r.value().accepted && clean_wire && spool_parity &&
                    InitialStateFingerprint(r.value().final_state) == e.fingerprint;
    tally->Check(ok, "live epoch " + std::to_string(k + 1) + ": " + OutcomeText(r) +
                         (clean_wire ? "" : " (reconnect/corrupt frame/quarantine)") +
                         (spool_parity ? "" : " (spool differs from direct spill)"));
    out.verdict_s.push_back(out.verdict_at[k] - out.ack_at[k]);
    out.audit_cpu_s.push_back(cpu_at_verdict[k] - cpu_at_ack[k]);
    if (r.ok()) {
      out.results.push_back(r.value());
    }
  }
  std::filesystem::remove_all(spool);
  return out;
}

}  // namespace

IterationResult RunIteration(const Config& config, const SetUp& setup, SpanLog* spans,
                             Tally* tally, int iteration) {
  return config.kind == Kind::kWikiLive
             ? RunLiveIteration(config, setup, spans, tally, iteration)
             : AuditSpills(config, setup, spans, tally, SpillPath::kStreamed);
}

// --- Tamper probe ---

namespace {

// splitmix64: derives independent choices from the run seed.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Applies one tamper class from src/server/tamper.h, chosen by the seed: a forged
// response body, forged logged contents of a DB operation, or a dropped DB log entry.
std::string ApplyTamper(uint64_t seed, Trace* trace, Reports* reports) {
  const uint64_t pick = Mix(seed ^ 0x7a3d);
  const int db = reports->FindObject(ObjectKind::kDb, "");
  const size_t db_len = db >= 0 ? reports->op_logs[static_cast<size_t>(db)].size() : 0;
  switch (Mix(seed) % 3) {
    case 0:
      if (db_len > 0) {
        const size_t idx = pick % db_len;
        const OpRecord& rec = reports->op_logs[static_cast<size_t>(db)][idx];
        Result<DbContents> c = ParseDbContents(rec.contents);
        if (c.ok() && !c.value().sql.empty()) {
          DbContents forged = c.value();
          forged.sql[0] += " ";
          if (TamperLogContents(reports, static_cast<size_t>(db), idx,
                                MakeDbContents(forged.sql, forged.is_txn, forged.success))) {
            return "db log contents forged at entry " + std::to_string(idx);
          }
        }
      }
      break;
    case 1:
      if (db_len > 0 && DropLogEntry(reports, static_cast<size_t>(db), pick % db_len)) {
        return "db log entry " + std::to_string(pick % db_len) + " dropped";
      }
      break;
    default:
      break;
  }
  std::vector<RequestId> rids;
  for (const TraceEvent& e : trace->events) {
    if (e.kind == TraceEvent::Kind::kResponse) {
      rids.push_back(e.rid);
    }
  }
  const RequestId rid = rids[pick % rids.size()];
  for (const TraceEvent& e : trace->events) {
    if (e.kind == TraceEvent::Kind::kResponse && e.rid == rid) {
      TamperResponseBody(trace, rid, e.body + "<!-- forged -->");
      break;
    }
  }
  return "response body of rid " + std::to_string(rid) + " forged";
}

}  // namespace

void RunTamperProbe(const Config& config, const SetUp& setup, Tally* tally) {
  const Workload& w = *setup.workload;
  const EpochData& e = setup.epochs.front();
  Result<Trace> t = ReadTraceFile(e.trace_path);
  Result<Reports> rep = ReadReportsFile(e.reports_path);
  if (!t.ok() || !rep.ok()) {
    tally->Check(false, "tamper probe could not read the spill back");
    return;
  }
  Trace trace = std::move(t).value();
  Reports reports = std::move(rep).value();
  const std::string what = ApplyTamper(config.seed, &trace, &reports);
  Result<AuditResult> r = Result<AuditResult>::Error("not run");
  if (config.kind == Kind::kWikiLive) {
    const std::string spool = config.work_dir + "/spool_tampered";
    std::filesystem::create_directories(spool);
    ServiceOptions service_options;
    service_options.spool_dir = spool;
    AuditService service(&w.app, AuditOptionsFor(config), w.initial, service_options);
    if (Status st = service.Start(); !st.ok()) {
      r = Result<AuditResult>::Error(st.error());
    } else {
      Collector collector(/*shard_id=*/1);
      collector.Restore(std::move(trace));
      CollectorClient client(service.address());
      Status st2 = client.StreamEpoch(1, &collector, reports);
      r = st2.ok() ? service.WaitEpochVerdict(1) : Result<AuditResult>::Error(st2.error());
      service.Stop();
    }
    std::filesystem::remove_all(spool);
  } else {
    const std::string tp = config.work_dir + "/tampered.trace";
    const std::string rp = config.work_dir + "/tampered.reports";
    if (!WriteTraceFile(tp, trace).ok() || !WriteReportsFile(rp, reports).ok()) {
      tally->Check(false, "tamper probe could not spill");
      return;
    }
    AuditSession session = AuditSession::Open(&w.app, AuditOptionsFor(config), w.initial);
    r = session.FeedEpochFilesStreamed(tp, rp);
  }
  const bool rejected = r.ok() && !r.value().accepted;
  std::fprintf(stderr, "tamper probe (%s): %s\n", what.c_str(), OutcomeText(r).c_str());
  tally->Check(rejected, "tamper probe (" + what + ") not rejected: " + OutcomeText(r));
}

// --- Span log ---

int SpanLog::Begin(const std::string& name, int parent, uint64_t epoch) {
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, epoch});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

int SpanLog::Add(const std::string& name, int parent, uint64_t epoch, double start,
                 double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, epoch});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::Total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += s.end - s.start;
    }
  }
  return total;
}

bool SpanLog::WriteJson(const std::string& path, const std::string& header_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Self time: the span's duration minus the union of its children's intervals (children
  // on worker threads may overlap each other).
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f, "{\"run\": %s,\n \"spans\": [\n", header_json.c_str());
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0, run_start = 0, run_end = -1;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, s.start), hi = std::min(b, s.end);
      if (hi <= lo) {
        continue;
      }
      if (lo > run_end) {
        covered += std::max(0.0, run_end - run_start);
        run_start = lo;
        run_end = hi;
      } else {
        run_end = std::max(run_end, hi);
      }
    }
    covered += std::max(0.0, run_end - run_start);
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"epoch\": %" PRIu64
                 ", \"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f}%s\n",
                 i, s.name.c_str(), s.parent, s.epoch, s.start - t0, s.end - t0,
                 (s.end - s.start) - covered, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  return std::fclose(f) == 0;
}

}  // namespace epochbench

// --- main ---

namespace {

using namespace epochbench;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "epoch_bench: %s\nusage: epoch_bench --workload forum|conf|wiki_live "
               "--seed N --seconds S --trace 0|1 --work-dir DIR --out-dir DIR\n",
               why);
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config c;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = true;
      c.name = value;
      if (value == "forum") {
        c.kind = Kind::kForum;
      } else if (value == "conf") {
        c.kind = Kind::kConf;
      } else if (value == "wiki_live") {
        c.kind = Kind::kWikiLive;
      } else {
        Usage(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed") {
      have_seed = true;
      c.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      have_seconds = true;
      c.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      have_trace = true;
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      c.trace = value == "1";
    } else if (flag == "--work-dir") {
      c.work_dir = value;
    } else if (flag == "--out-dir") {
      c.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("malformed value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || c.work_dir.empty() ||
      c.out_dir.empty() || !(c.seconds > 0)) {
    Usage("missing or invalid arguments");
  }
  if (c.kind == Kind::kWikiLive) {
    c.epochs = 4;
  }
  return c;
}

void PrintResult(const Tally& tally, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              tally.wrong == 0 ? "true" : "false", tally.attempted, tally.wrong);
  for (size_t i = 0; i < metrics.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Offline ingest: the collector closing the epoch, Collector::Flush + WriteReportsFile of
// the input's first epoch to fresh files (each rewrites and fsyncs the epoch). Returns
// MiB/s.
double SpillRate(const Config& config, const SetUp& setup) {
  const EpochData& e = setup.epochs.front();
  Result<Trace> trace = ReadTraceFile(e.trace_path);
  Result<Reports> reports = ReadReportsFile(e.reports_path);
  if (!trace.ok() || !reports.ok()) {
    std::fprintf(stderr, "cannot read the spill back for the ingest loop\n");
    std::exit(1);
  }
  Collector collector(/*shard_id=*/1);
  collector.Restore(std::move(trace).value());
  const std::string tp = config.work_dir + "/ingest.trace";
  const std::string rp = config.work_dir + "/ingest.reports";
  const double t0 = NowSeconds();
  Status flushed = collector.Flush(tp);
  Status written = WriteReportsFile(rp, reports.value());
  const double dt = NowSeconds() - t0;
  if (!flushed.ok() || !written.ok()) {
    std::fprintf(stderr, "ingest spill failed\n");
    std::exit(1);
  }
  const double rate =
      static_cast<double>(FileBytes(tp) + FileBytes(rp)) / (1024.0 * 1024.0) / dt;
  std::filesystem::remove(tp);
  std::filesystem::remove(rp);
  return rate;
}

// Live ingest: one CollectorClient streams every epoch of the input back to back into a
// fresh AuditService that waits for two shards per epoch, so shard 1's streams spool,
// seal and ack as in the timed iterations but no epoch is audited and the socket path
// runs alone. Returns each epoch's bytes spooled per second, from its first record sent
// to its EndEpoch ack, in MiB/s; the spool must match the direct spills byte for byte.
std::vector<double> LiveIngestRates(const Config& config, const SetUp& setup, Tally* tally,
                                    int run) {
  std::vector<std::unique_ptr<Collector>> collectors;
  std::vector<Reports> reports;
  LoadLiveEpochs(setup, &collectors, &reports);
  const std::string spool = config.work_dir + "/ingest_spool_" + std::to_string(run);
  std::filesystem::create_directories(spool);
  ServiceOptions service_options;
  service_options.spool_dir = spool;
  service_options.shards_per_epoch = 2;
  const Workload& w = *setup.workload;
  AuditService service(&w.app, AuditOptionsFor(config), w.initial, service_options);
  if (Status st = service.Start(); !st.ok()) {
    std::fprintf(stderr, "service start failed: %s\n", st.error().c_str());
    std::exit(1);
  }
  CollectorClient client(service.address());
  std::vector<double> rates;
  Status streamed = Status::Ok();
  uint64_t spooled = 0;
  for (size_t k = 0; k < collectors.size() && streamed.ok(); k++) {
    const double t0 = NowSeconds();
    streamed = client.StreamEpoch(k + 1, collectors[k].get(), reports[k]);
    const double dt = NowSeconds() - t0;
    const uint64_t total = service.stats().bytes_spooled;
    rates.push_back(static_cast<double>(total - spooled) / (1024.0 * 1024.0) / dt);
    spooled = total;
  }
  const ServiceStats stats = service.stats();
  service.Stop();
  bool clean = streamed.ok() && client.stats().reconnects == 0 && stats.corrupt_frames == 0 &&
               stats.shards_quarantined == 0 && stats.epochs_audited == 0;
  for (size_t k = 0; k < setup.epochs.size() && clean; k++) {
    clean = SpoolMatches(spool, k, setup.epochs[k]);
  }
  tally->Check(clean, "live ingest: " + (streamed.ok() ? "streamed, but a reconnect, corrupt "
                                                          "frame, quarantine, audit or spool "
                                                          "difference showed"
                                                        : streamed.error()));
  std::filesystem::remove_all(spool);
  return rates;
}

// Samples of one metric, kept per input: the run's figure is the mean over inputs of
// each input's median, so every input weighs the same whatever its sample count.
struct PerInput {
  std::vector<std::vector<double>> samples = std::vector<std::vector<double>>(kInputs);
  void Add(size_t input, double v) { samples[input].push_back(v); }
  void Add(size_t input, const std::vector<double>& v) {
    samples[input].insert(samples[input].end(), v.begin(), v.end());
  }
  double Value() const {
    double sum = 0;
    for (const std::vector<double>& s : samples) {
      sum += Median(s);
    }
    return sum / static_cast<double>(samples.size());
  }
  size_t Count() const {
    size_t n = 0;
    for (const std::vector<double>& s : samples) {
      n += s.size();
    }
    return n;
  }
};

// The end-to-end run: kInputs set-ups (setup_s is their median), one untimed warm-up
// verdict, then measured rounds for --seconds. Spill files are page-cached throughout,
// which is what the daemon sees right after ingest.
Metrics RunTimed(const Config& config, Tally* tally, std::string* stamp) {
  const bool live = config.kind == Kind::kWikiLive;
  std::vector<double> setup_s;
  std::vector<SetUp> inputs;
  PerInput verdict_s, audit_cpu_s, ingest_mb_s, peak_rss_mib, serve_cpu_s;
  double reports_bytes = 0, requests = 0, spill_bytes = 0;
  for (size_t i = 0; i < kInputs; i++) {
    inputs.push_back(RunSetUp(config, i, nullptr, tally));
    setup_s.push_back(inputs.back().seconds);
    serve_cpu_s.Add(i, inputs.back().serve_cpu_s);
    reports_bytes += static_cast<double>(inputs.back().reports_bytes());
    requests += static_cast<double>(inputs.back().requests());
    spill_bytes += static_cast<double>(inputs.back().spill_bytes());
  }
  RunIteration(config, inputs.front(), nullptr, tally, -1);  // Warm-up, untimed.
  bool rss_reset = true;
  // Peak RSS of one audit, from a trimmed heap and a reset high-water mark so earlier
  // work does not carry into the reading.
  auto audit_peak_rss = [&](size_t input, const std::function<IterationResult()>& audit) {
    rss_reset = ResetPeakRss() && rss_reset;
    IterationResult it = audit();
    peak_rss_mib.Add(input, PeakRssMiB());
    return it;
  };
  // The measured time is shared among activities by fixed shares: the activity furthest
  // behind its share runs next, cycling through the inputs, and each runs at least once
  // per input. Every metric's samples so spread over the whole run, and a slow stretch of
  // the machine does not land on one metric only.
  auto verdict = [&](size_t input, int run) {
    auto iterate = [&] { return RunIteration(config, inputs[input], nullptr, tally, run); };
    IterationResult it = live ? iterate() : audit_peak_rss(input, iterate);
    verdict_s.Add(input, it.verdict_s);
    audit_cpu_s.Add(input, it.audit_cpu_s);
  };
  auto serve = [&](size_t input, int) {
    serve_cpu_s.Add(input, ServeAgain(config, *inputs[input].workload));
  };
  // wiki_live's iteration overlaps each audit with the next epoch's ingest; its audit
  // alone is the chained streamed audit of the sealed epochs (byte-identical to the
  // direct spills) under the daemon's options.
  auto audit_alone = [&](size_t input, int) {
    audit_peak_rss(input, [&] {
      return AuditSpills(config, inputs[input], nullptr, tally, SpillPath::kStreamed);
    });
  };
  auto ingest = [&](size_t input, int run) {
    if (live) {
      ingest_mb_s.Add(input, LiveIngestRates(config, inputs[input], tally, run));
    } else {
      ingest_mb_s.Add(input, SpillRate(config, inputs[input]));
    }
  };
  struct Activity {
    double share;
    std::function<void(size_t input, int run)> run;
    double spent = 0;
    int runs = 0;
  };
  std::vector<Activity> activities = {
      {live ? 0.55 : 0.65, verdict}, {0.25, serve}, {0.1, ingest}};
  if (live) {
    activities.push_back({0.1, audit_alone});
  }
  const double start = NowSeconds();
  while (true) {
    const bool time_left = NowSeconds() - start < config.seconds;
    Activity* next = nullptr;
    for (Activity& a : activities) {
      if ((time_left || a.runs < static_cast<int>(kInputs)) &&
          (next == nullptr || a.spent / a.share < next->spent / next->share)) {
        next = &a;
      }
    }
    if (next == nullptr) {
      break;
    }
    const double t0 = NowSeconds();
    next->run(static_cast<size_t>(next->runs) % kInputs, next->runs);
    next->spent += NowSeconds() - t0;
    next->runs++;
  }
  const double measured_s = NowSeconds() - start;
  RunTamperProbe(config, inputs.front(), tally);

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"inputs\": %zu, \"verdicts_timed\": %zu, "
                "\"serve_samples\": %zu, \"ingest_samples\": %zu, \"rss_samples\": %zu, "
                "\"measured_s\": %.3f, \"peak_rss_reset\": %s, \"requests\": %.0f, "
                "\"spill_bytes\": %.0f, \"epochs_per_input\": %zu",
                kInputs, verdict_s.Count(), serve_cpu_s.Count(), ingest_mb_s.Count(),
                peak_rss_mib.Count(), measured_s, rss_reset ? "true" : "false", requests,
                spill_bytes, config.epochs);
  *stamp += buf;

  Metrics m;
  m.push_back({"setup_s", Median(setup_s), "s"});
  m.push_back({"verdict_s", verdict_s.Value(), "s"});
  m.push_back({"audit_cpu_s", audit_cpu_s.Value(), "s"});
  m.push_back({"audit_peak_rss_mb", peak_rss_mib.Value(), "MiB"});
  m.push_back({"serve_cpu_s", serve_cpu_s.Value(), "s"});
  m.push_back({"reports_bytes_per_req", reports_bytes / requests, "B"});
  // wiki_live: socket ingest (first record sent -> last EndEpoch ack); offline workloads
  // ingest by spilling (SpillRate).
  m.push_back({"ingest_mb_s", ingest_mb_s.Value(), "MiB/s"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  // The benchmark fixes every knob itself; inherited OROCHI_* settings would change what
  // is measured.
  for (const char* knob :
       {"OROCHI_AUDIT_THREADS", "OROCHI_AUDIT_BUDGET", "OROCHI_PREFETCH_DEPTH",
        "OROCHI_LISTEN_ADDRESS", "OROCHI_MAX_INFLIGHT_BYTES", "OROCHI_ACK_INTERVAL",
        "OROCHI_SHARDS_PER_EPOCH", "OROCHI_TRACE_FILE", "OROCHI_STATS_ADDRESS"}) {
    unsetenv(knob);
  }
  Config config = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);
  std::filesystem::create_directories(config.out_dir);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", config.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  const AuditOptions options = AuditOptionsFor(config);
  const orochi::Result<size_t> read_ahead = orochi::ResolvePrefetchDepth(options);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d, "
                "\"nproc\": %u, \"build_type\": \"%s\", \"crc32c_backend\": \"%s\", "
                "\"audit_threads\": %zu, \"budget_bytes\": %zu, \"read_ahead_depth\": %zu, "
                "\"spill_page_cache\": \"warm\", ",
                config.name.c_str(), config.seed, config.trace ? 1 : 0, HardwareThreads(),
                OROCHI_BENCH_BUILD_TYPE, orochi::Crc32cBackendName(), options.num_threads,
                options.max_resident_bytes, read_ahead.ok() ? read_ahead.value() : 0);
  std::string stamp = buf;

  Tally tally;
  Metrics metrics = config.trace ? RunTraced(config, &tally, &stamp)
                                 : RunTimed(config, &tally, &stamp);
  stamp += "}";
  std::filesystem::remove_all(config.work_dir, ec);

  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(stderr, "wrong_verdict_frac = %" PRIu64 "/%" PRIu64 "\n", tally.wrong,
               tally.attempted);
  std::printf("{\"stamp\": %s}\n", stamp.c_str());
  PrintResult(tally, metrics);
  return 0;
}
