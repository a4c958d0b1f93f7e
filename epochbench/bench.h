// Shared pieces of the epoch-to-verdict benchmark: workload set-up, one measured verdict
// iteration per workload, the correctness tally, the in-memory span log of the traced
// run, and the metric list every run prints. epoch_bench.cc holds main() and the timed
// (untraced) run; layers.cc holds the traced per-layer run.
//
// The benchmark only measures the layers from outside: it times calls into their public
// functions and reads the counters those functions already return.
#ifndef EPOCHBENCH_BENCH_H_
#define EPOCHBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/audit_session.h"
#include "src/objects/reports.h"
#include "src/objects/trace.h"
#include "src/workload/workloads.h"

namespace orochi {
class Collector;
class ServerCore;
}  // namespace orochi

namespace epochbench {

using orochi::AuditOptions;
using orochi::Reports;
using orochi::Trace;
using orochi::Workload;

// --- Clocks and small helpers ---

double NowSeconds();         // steady_clock, seconds.
double ProcessCpuSeconds();  // CLOCK_PROCESS_CPUTIME_ID: all threads of the process.
double Median(std::vector<double> v);
uint64_t FileBytes(const std::string& path);
bool SameBytes(const std::string& a, const std::string& b);
unsigned HardwareThreads();
// Returns glibc's free heap to the kernel and resets the kernel's peak-RSS mark
// (/proc/self/clear_refs "5"); false when the mark could not be reset.
bool ResetPeakRss();
double PeakRssMiB();  // VmHWM.

// --- Workloads ---

enum class Kind { kForum, kConf, kWikiLive };

struct Config {
  Kind kind = Kind::kForum;
  std::string name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // This run's own spill/spool directory, removed at exit.
  std::string out_dir;   // Where the traced run writes its span file.
  size_t epochs = 1;     // Consecutive epochs with chained state (wiki_live: several).
};

// A timed run sets up kInputs different inputs of the same workload shape (generator
// seeds InputSeed(seed, 0..kInputs-1)) and cycles its verdicts through them, so one
// input's random content (forum: how many replies the hot topic collects) weighs a
// third in a run's figures. The traced run uses input 0 only.
inline constexpr size_t kInputs = 3;
uint64_t InputSeed(uint64_t seed, size_t input);

// The audit configuration each workload is verified under. Offline workloads: nproc
// threads and a 256 KiB resident budget; wiki_live: the daemon defaults (budget unset)
// at nproc threads. Read-ahead is the built-in default everywhere.
AuditOptions AuditOptionsFor(const Config& config);
inline constexpr size_t kOfflineBudgetBytes = 256 * 1024;
// Serving runs on one ThreadServer worker: a single worker serves in submission order,
// so a seed always yields the same trace and reports, byte for byte, and run-to-run
// differences in the audit come from the machine, not from a different interleaving.
inline constexpr int kServeWorkers = 1;

std::unique_ptr<Workload> MakeWorkload(const Config& config, uint64_t workload_seed);

// One epoch as set-up leaves it: direct spill files written by Collector::Flush and
// WriteReportsFile, and the final-state fingerprint of the in-memory reference audit.
struct EpochData {
  std::string trace_path;
  std::string reports_path;
  uint64_t requests = 0;
  uint64_t trace_bytes = 0;
  uint64_t reports_bytes = 0;
  std::string fingerprint;
};

struct SetUp {
  std::unique_ptr<Workload> workload;
  std::vector<EpochData> epochs;
  double seconds = 0;        // Wall time of this set-up.
  double serve_cpu_s = 0;    // ServerCore::TotalCpuSeconds() over all epochs, recording on.
  double flush_s = 0;        // Collector::Flush + WriteReportsFile over all epochs.
  uint64_t requests() const;
  uint64_t spill_bytes() const;
  uint64_t reports_bytes() const;
};

class SpanLog;

// Counts verdicts and the wrong ones among them. A wrong verdict is an honest epoch that
// did not ACCEPT with the reference fingerprint, a tampered epoch that did not REJECT, or
// any I/O-error outcome.
struct Tally {
  uint64_t attempted = 0;
  uint64_t wrong = 0;
  void Check(bool ok, const std::string& what);
};

// Generates the workload from the seed, serves it through ServerCore/ThreadServer with
// recording on, spills every epoch, and audits each epoch in memory with Auditor::Audit
// (chained through the final states) as the correctness reference. Only the spill files
// and the fingerprints outlive the call.
SetUp RunSetUp(const Config& config, size_t input, SpanLog* spans, Tally* tally);

// Serves epoch k (0-based) of the input's items on one ThreadServer worker; request ids
// are the items' positions, so every serving of an input sees the same requests.
void ServeEpoch(const Config& config, const Workload& w, size_t k, orochi::ServerCore* core,
                orochi::Collector* collector);
// Serves every epoch of the input again with recording on, as set-up does, and returns
// ServerCore::TotalCpuSeconds(); the trace and reports are dropped.
double ServeAgain(const Config& config, const Workload& w);

// One measured iteration. Offline workloads: one streamed audit of the spill files on a
// fresh session. wiki_live: one CollectorClient streams every epoch back to back into a
// fresh AuditService. Checks every verdict into `tally`.
struct IterationResult {
  std::vector<double> verdict_s;    // Per epoch.
  std::vector<double> audit_cpu_s;  // Per epoch.
  // wiki_live: per-epoch timestamps and client/service counters of the iteration.
  std::vector<double> ack_at;
  std::vector<double> verdict_at;
  std::vector<orochi::AuditResult> results;
  double send_s = 0;
  uint64_t bytes_sent = 0, acks = 0, reconnects = 0;
  uint64_t records_spooled = 0, bytes_spooled = 0, records_deduped = 0;
};
IterationResult RunIteration(const Config& config, const SetUp& setup, SpanLog* spans,
                             Tally* tally, int iteration);

// Audits every epoch's direct spill files in order on a fresh chained session, checking
// each verdict against the reference: streamed (FeedEpochFilesStreamed, the offline
// workloads' timed verdict) or in memory (FeedEpochFiles: read, then audit).
enum class SpillPath { kStreamed, kInMemory };
IterationResult AuditSpills(const Config& config, const SetUp& setup, SpanLog* spans,
                            Tally* tally, SpillPath path,
                            const orochi::StreamAuditHooks* hooks = nullptr);

// The untimed tamper probe: a seed-chosen tamper class applied to a copy of the first
// epoch, fed on the same streamed path as the timed verdicts; it must REJECT.
void RunTamperProbe(const Config& config, const SetUp& setup, Tally* tally);

// --- Traced run ---

// In-memory span log: name, start, end, parent span and epoch id per span; written as
// JSON (with self time) when the run ends. A null SpanLog* disables every span.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;
  int Begin(const std::string& name, int parent, uint64_t epoch);
  void End(int id);
  // Records an already-timed span (e.g. a chunk bracketed by an audit task gate).
  int Add(const std::string& name, int parent, uint64_t epoch, double start, double end);
  // Sum of the durations of every span called `name`.
  double Total(const std::string& name) const;
  bool WriteJson(const std::string& path, const std::string& header_json) const;

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = kNoParent;
    uint64_t epoch = 0;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int parent = SpanLog::kNoParent,
             uint64_t epoch = 0)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent, epoch) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* const log_;
  const int id_;
};

// --- Output ---

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// The traced run: per-layer metrics, the span file, and the Figure 9 stack check.
Metrics RunTraced(const Config& config, Tally* tally, std::string* stamp_extra);

}  // namespace epochbench

#endif  // EPOCHBENCH_BENCH_H_
