// prany_bench: one run of one workload of the paper's mixed federation.
//
//   prany_bench --workload W --seed N --seconds S --trace 0|1
//               --shm-dir DIR --disk-dir DIR [--out FILE] [--source-id ID]
//
// The binary mounts a private tmpfs on --shm-dir. Untraced (--trace 0)
// runs measure the end-to-end metrics; traced runs (--trace 1) alternate
// untraced and traced half-second slices through the window, run the
// layer probes, write a Chrome trace to
// .bench_build/traces/<workload>.trace.json under the working directory,
// and report the per-layer metrics. Every run checks correctness: the
// outcome of every transaction, the history checkers, and on the
// failure-free workloads the exact forced-write and message counts the
// simulator charges for the same transactions. The last line of stdout is
// the result JSON; run.py builds the binary and supplies the directories.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "driver.h"
#include "federation.h"
#include "probes.h"
#include "spans.h"

namespace prany {
namespace bench {
namespace {

/// Set-up is timed this many times per run; the median is reported.
constexpr int kSetupRepeats = 15;
/// Open loop: the latency limit a ladder step must meet.
constexpr double kSloP99Us = 5000.0;
/// A run is flagged when the driver is busier than this.
constexpr double kDriverBusyLimit = 0.5;
/// ... or its generation lag p99 exceeds this.
constexpr double kDriverLagLimitUs = 1000.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string shm_dir;
  std::string disk_dir;
  std::string out;
  std::string source_id = "unknown";
};

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "prany_bench: %s\n"
               "usage: prany_bench --workload W --seed N --seconds S "
               "--trace 0|1 --shm-dir DIR --disk-dir DIR [--out FILE] "
               "[--source-id ID]\n"
               "workloads:",
               error.c_str());
  for (const WorkloadSpec& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Parses `--flag value` and `--flag=value`. Returns an error message.
std::string ParseOptions(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return "unexpected argument " + arg;
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    if (!has_value) {
      if (i + 1 >= argc) return arg + " needs a value";
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      opts->workload = value;
    } else if (arg == "--seed") {
      opts->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return "bad --seed " + value;
    } else if (arg == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opts->seconds >= 0.5) ||
          opts->seconds > 600.0) {
        return "--seconds must be a number in [0.5, 600]";
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return "--trace must be 0 or 1";
      opts->trace = value == "1";
    } else if (arg == "--shm-dir") {
      opts->shm_dir = value;
    } else if (arg == "--disk-dir") {
      opts->disk_dir = value;
    } else if (arg == "--out") {
      opts->out = value;
    } else if (arg == "--source-id") {
      opts->source_id = value;
    } else {
      return "unknown flag " + arg;
    }
  }
  if (FindWorkload(opts->workload) == nullptr) {
    return "unknown workload '" + opts->workload + "'";
  }
  if (opts->shm_dir.empty() || opts->disk_dir.empty()) {
    return "--shm-dir and --disk-dir are required";
  }
  return "";
}

/// Deletes the WAL files and sockets a federation left in `dir`.
void RemoveFilesIn(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_directory()) std::filesystem::remove(entry.path());
  }
}

// ---------------------------------------------------------------------------
// Result assembly

/// Completions selected for one latency statistic.
struct Selection {
  std::vector<double> latency_us;  ///< Committed only.
  std::vector<double> submit_us;
  std::vector<double> path_us;
  std::vector<double> wakeup_us;
};

Selection Select(const DriverResult& r,
                 const std::function<bool(const Completion&)>& keep) {
  Selection s;
  for (const Completion& c : r.completions) {
    if (!c.committed || !keep(c)) continue;
    s.latency_us.push_back(c.latency_us);
    s.submit_us.push_back(c.submit_us);
    s.path_us.push_back(c.path_us);
    s.wakeup_us.push_back(c.wakeup_us);
  }
  return s;
}

/// Open loop: the step the latency metrics are taken at, [first, second).
std::pair<Clock::time_point, Clock::time_point> ReportStep(
    const WorkloadSpec& spec, const DriverResult& r) {
  const int64_t steps = static_cast<int64_t>(spec.ladder.size());
  const Clock::duration step_len = (r.measure_end - r.measure_begin) / steps;
  const int64_t index =
      std::find(spec.ladder.begin(), spec.ladder.end(), spec.report_rate) -
      spec.ladder.begin();
  const Clock::time_point begin = r.measure_begin + step_len * index;
  return {begin, begin + step_len};
}

/// One open-loop ladder step.
struct StepReport {
  double rate = 0.0;
  uint64_t arrivals = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  bool backlog_grows = false;
  bool meets_slo = false;
};

/// Latency (untraced completions, by due time) and backlog per step.
std::vector<StepReport> LadderReport(const WorkloadSpec& spec,
                                     const DriverResult& r) {
  std::vector<StepReport> steps;
  const size_t n = spec.ladder.size();
  const Clock::duration step_len = (r.measure_end - r.measure_begin) /
                                   static_cast<int64_t>(n);
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point begin =
        r.measure_begin + step_len * static_cast<int64_t>(i);
    const Clock::time_point end = begin + step_len;
    StepReport step;
    step.rate = spec.ladder[i];
    std::vector<double> latency;
    for (const Completion& c : r.completions) {
      if (c.due < begin || c.due >= end) continue;
      ++step.arrivals;
      if (c.committed && !c.traced) {
        latency.push_back(c.latency_us);
      }
    }
    step.p50_us = Quantile(&latency, 0.5);
    step.p99_us = Quantile(&latency, 0.99);
    // A growing backlog: the outstanding count over the step's last
    // quarter is well above its first quarter's.
    std::vector<double> first;
    std::vector<double> last;
    const Clock::duration quarter = step_len / 4;
    for (const auto& [when, count] : r.outstanding) {
      if (when >= begin && when < begin + quarter) {
        first.push_back(static_cast<double>(count));
      }
      if (when >= end - quarter && when < end) {
        last.push_back(static_cast<double>(count));
      }
    }
    step.backlog_grows = Mean(last) > 2.0 * Mean(first) + 8.0;
    step.meets_slo = !latency.empty() && step.p99_us <= kSloP99Us &&
                     !step.backlog_grows;
    steps.push_back(step);
  }
  return steps;
}

struct RecoveryReport {
  double restart_ms_p50 = 0.0;
  double records_replayed_mean = 0.0;
  double torn_tail_frac = 0.0;
  double unavail_ms_p50 = 0.0;
};

/// The crash cycles whose kill fell inside the measured window.
std::vector<CrashCycle> CyclesInWindow(const DriverResult& r) {
  std::vector<CrashCycle> cycles;
  for (const CrashCycle& c : r.cycles) {
    if (c.kill >= r.measure_begin && c.kill < r.measure_end) {
      cycles.push_back(c);
    }
  }
  return cycles;
}

RecoveryReport SummarizeCycles(const std::vector<CrashCycle>& cycles) {
  RecoveryReport report;
  std::vector<double> restart;
  std::vector<double> records;
  std::vector<double> unavail;
  double torn = 0.0;
  for (const CrashCycle& c : cycles) {
    restart.push_back(c.restart_ms);
    records.push_back(static_cast<double>(c.records_replayed));
    if (c.torn_tail) torn += 1.0;
    if (c.unavail_ms >= 0.0) unavail.push_back(c.unavail_ms);
  }
  report.restart_ms_p50 = Median(restart);
  report.records_replayed_mean = Mean(records);
  report.torn_tail_frac =
      cycles.empty() ? 0.0 : torn / static_cast<double>(cycles.size());
  report.unavail_ms_p50 = Median(unavail);
  return report;
}

/// What one live run of a workload leaves behind.
struct LiveRun {
  std::unique_ptr<DriverResult> driver;
  double setup_s = 0.0;
  CostTotals live_costs;
  uint64_t fsyncs = 0;
  uint64_t bytes = 0;
  uint64_t frames_dropped = 0;
  std::vector<double> batch_forces;
  std::vector<double> batch_window_us;
};

/// Sets up a fresh federation `setup_repeats` times, drives the load on
/// the last one, settles it and checks its history; appends any
/// correctness failure to `failures`.
LiveRun RunLive(const WorkloadSpec& spec, const std::string& wal_dir,
                const DriverPlan& plan, uint64_t seed, Clock::time_point epoch,
                int setup_repeats, std::vector<std::string>* failures) {
  LiveRun run;
  DecisionBoard board(spec.open_loop ? 1 : spec.driver_threads);
  auto hook = [&board](const SigEvent& event) { board.OnDecide(event); };
  // Set-up: construction until every site is added and serving. Repeated,
  // keeping the last federation, so one slow thread start does not decide
  // the metric.
  std::vector<double> setup_s;
  std::unique_ptr<Federation> federation;
  for (int i = 0; i < setup_repeats; ++i) {
    if (federation != nullptr) {
      federation->Stop();
      federation.reset();
      RemoveFilesIn(wal_dir);
    }
    const Clock::time_point start = Clock::now();
    federation = std::make_unique<Federation>(spec, wal_dir, hook);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
  }
  run.setup_s = Median(setup_s);

  run.driver = std::make_unique<DriverResult>(
      RunDriver(spec, *federation, board, plan, seed, epoch));
  const DriverResult& r = *run.driver;
  if (r.failed() > 0) {
    failures->push_back(StrFormat(
        "%s: %llu of %llu transactions failed (%llu refused, %llu timed out, "
        "%llu wrong outcome)",
        spec.name.c_str(), static_cast<unsigned long long>(r.failed()),
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.refused),
        static_cast<unsigned long long>(r.timeouts),
        static_cast<unsigned long long>(r.wrong_outcomes)));
  }
  if (!federation->Settle(15.0)) {
    failures->push_back(spec.name + ": federation did not settle: some site "
                                    "still holds transactions");
  }
  run.live_costs = federation->ExactCosts();
  run.fsyncs = federation->Fsyncs();
  run.bytes = federation->BytesSent();
  run.frames_dropped = federation->FramesDropped();
  run.batch_forces = federation->Samples("wal.batch_forces");
  run.batch_window_us = federation->Samples("wal.batch_window_us");
  const std::string history = federation->CheckHistory();
  if (!history.empty()) failures->push_back(spec.name + ": " + history);
  if (run.frames_dropped > 0) {
    failures->push_back(StrFormat(
        "%s: %llu socket frames dropped", spec.name.c_str(),
        static_cast<unsigned long long>(run.frames_dropped)));
  }
  federation->Stop();
  federation.reset();
  RemoveFilesIn(wal_dir);
  return run;
}

struct Report {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricList metrics;
  MetricList info;  ///< Informational numbers outside the metric contract.
  std::vector<std::string> failures;
  std::vector<StepReport> ladder;
  std::map<std::string, std::vector<double>> self_times;
  std::vector<CrashCycle> cycles;
  bool driver_flagged = false;
};

void WriteDetail(const std::string& path, const Options& opts,
                 const HostInfo& host, const Report& report) {
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::string out = "{\n";
  out += "  \"workload\": " + JsonString(opts.workload) + ",\n";
  out += "  \"seed\": " + std::to_string(opts.seed) + ",\n";
  out += "  \"seconds\": " + JsonNumber(opts.seconds) + ",\n";
  out += std::string("  \"trace\": ") + (opts.trace ? "1" : "0") + ",\n";
  out += "  \"source_id\": " + JsonString(opts.source_id) + ",\n";
  out += "  \"host\": {\"nproc\": " + std::to_string(host.nproc) +
         ", \"cpu_model\": " + JsonString(host.cpu_model) +
         ", \"kernel\": " + JsonString(host.kernel) +
         ", \"shm_dir_fs\": " + JsonString(FilesystemType(opts.shm_dir)) +
         ", \"disk_dir_fs\": " + JsonString(FilesystemType(opts.disk_dir)) +
         ", \"disk_fdatasync_us_p50\": " +
         JsonNumber(host.disk_fdatasync_us_p50) +
         ", \"disk_fdatasync_us_p99\": " +
         JsonNumber(host.disk_fdatasync_us_p99) + "},\n";
  out += std::string("  \"correct\": ") + (report.correct ? "true" : "false") +
         ",\n";
  out += "  \"attempted\": " + std::to_string(report.attempted) + ",\n";
  out += "  \"failed\": " + std::to_string(report.failed) + ",\n";
  out += "  \"failures\": [";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    out += (i ? ", " : "") + JsonString(report.failures[i]);
  }
  out += "],\n";
  out += std::string("  \"driver_flagged\": ") +
         (report.driver_flagged ? "true" : "false") + ",\n";
  out += "  \"metrics\": " + report.metrics.ToJson() + ",\n";
  out += "  \"info\": " + report.info.ToJson() + ",\n";
  out += "  \"ladder\": [";
  for (size_t i = 0; i < report.ladder.size(); ++i) {
    const StepReport& s = report.ladder[i];
    out += StrFormat(
        "%s{\"rate_per_s\": %s, \"arrivals\": %llu, \"p50_us\": %s, "
        "\"p99_us\": %s, \"backlog_grows\": %s, \"meets_slo\": %s}",
        i ? ", " : "", JsonNumber(s.rate).c_str(),
        static_cast<unsigned long long>(s.arrivals),
        JsonNumber(s.p50_us).c_str(), JsonNumber(s.p99_us).c_str(),
        s.backlog_grows ? "true" : "false", s.meets_slo ? "true" : "false");
  }
  out += "],\n  \"crash_cycles\": [";
  for (size_t i = 0; i < report.cycles.size(); ++i) {
    const CrashCycle& c = report.cycles[i];
    out += StrFormat(
        "%s{\"site\": %u, \"restart_ms\": %s, \"records_replayed\": %llu, "
        "\"torn_tail\": %s, \"unavail_ms\": %s}",
        i ? ", " : "", c.site, JsonNumber(c.restart_ms).c_str(),
        static_cast<unsigned long long>(c.records_replayed),
        c.torn_tail ? "true" : "false", JsonNumber(c.unavail_ms).c_str());
  }
  out += "],\n  \"self_time_us_p50\": {";
  bool first = true;
  for (const auto& [name, values] : report.self_times) {
    out += (first ? "" : ", ") + JsonString(name) + ": " +
           JsonNumber(Median(values));
    first = false;
  }
  out += "}\n}\n";
  std::fputs(out.c_str(), f);
  std::fclose(f);
}

void PrintHuman(const Options& opts, const Report& report) {
  std::printf("prany_bench %s seed=%llu seconds=%g trace=%d: %s\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0,
              report.correct ? "correct" : "INCORRECT");
  for (const Metric& m : report.metrics.items()) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : report.info.items()) {
    std::printf("  (info) %-27s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const StepReport& s : report.ladder) {
    std::printf("  ladder %6.0f/s: %6llu arrivals  p50 %9.1f us  p99 %9.1f "
                "us%s%s\n",
                s.rate, static_cast<unsigned long long>(s.arrivals), s.p50_us,
                s.p99_us, s.backlog_grows ? "  backlog grows" : "",
                s.meets_slo ? "  meets SLO" : "");
  }
  const Metric* p50 = report.info.Find("commit_p50_us.untraced");
  if (!report.self_times.empty()) {
    std::printf("  layer self time (median us, share of untraced "
                "commit_p50_us):\n");
    for (const auto& [name, values] : report.self_times) {
      const double median = Median(values);
      if (p50 != nullptr && p50->value > 0.0 &&
          (name == "txn" || name.rfind("runtime.", 0) == 0)) {
        std::printf("    %-28s %10.2f  %5.1f%%\n", name.c_str(), median,
                    100.0 * median / p50->value);
      } else {
        std::printf("    %-28s %10.2f\n", name.c_str(), median);
      }
    }
  }
  for (const std::string& failure : report.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
}

int Run(const Options& opts) {
  const WorkloadSpec& spec = *FindWorkload(opts.workload);
  for (const std::string& dir : {opts.shm_dir, opts.disk_dir}) {
    std::error_code error;
    std::filesystem::create_directories(dir, error);
    if (error) return Usage("cannot create " + dir + ": " + error.message());
  }
  Status mounted = MountPrivateTmpfs(opts.shm_dir);
  if (!mounted.ok()) {
    std::fprintf(stderr, "prany_bench: %s\n", mounted.ToString().c_str());
    return 3;
  }
  // Refuse to measure the wrong device.
  if (!IsTmpfs(opts.shm_dir)) {
    std::fprintf(stderr, "prany_bench: --shm-dir %s is %s, not tmpfs\n",
                 opts.shm_dir.c_str(), FilesystemType(opts.shm_dir).c_str());
    return 2;
  }
  if (spec.disk_wal && IsTmpfs(opts.disk_dir)) {
    std::fprintf(stderr,
                 "prany_bench: %s needs a real disk, but --disk-dir %s is "
                 "tmpfs\n",
                 spec.name.c_str(), opts.disk_dir.c_str());
    return 2;
  }
  Clock::time_point phase_start = Clock::now();
  auto phase_done = [&phase_start](const char* what) {
    const Clock::time_point now = Clock::now();
    std::fprintf(stderr, "prany_bench: %s took %.2f s\n", what,
                 SecondsBetween(phase_start, now));
    phase_start = now;
  };
  const std::string wal_dir = spec.disk_wal ? opts.disk_dir : opts.shm_dir;
  const Clock::time_point epoch = Clock::now();

  DriverPlan plan;
  plan.warmup_s = std::min(3.0, std::max(0.3, 0.2 * opts.seconds));
  plan.measure_s = opts.seconds;
  plan.alternate_trace = opts.trace;

  Report report;
  LiveRun live = RunLive(spec, wal_dir, plan, opts.seed, epoch,
                         kSetupRepeats, &report.failures);
  const DriverResult& r = *live.driver;
  phase_done("live run and history checks");
  // After the live run: the fdatasync probe's writeback would otherwise
  // still be in flight during set-up.
  const HostInfo host = CollectHostInfo(opts.disk_dir);
  report.attempted = r.attempted;
  report.failed = r.failed();

  // Exact protocol costs against the simulator, on the failure-free
  // workloads (crash recovery adds resends and re-inquiries).
  if (!spec.crash) {
    double sim_wall_s = 0.0;
    const CostTotals sim = SimulateCosts(spec, r.submitted, &sim_wall_s);
    if (sim.forced_appends != live.live_costs.forced_appends ||
        sim.messages != live.live_costs.messages) {
      report.failures.push_back(StrFormat(
          "%s: live costs differ from the simulator's for the same %zu "
          "transactions: forced writes %llu vs %llu, messages %llu vs %llu",
          spec.name.c_str(), r.submitted.size(),
          static_cast<unsigned long long>(live.live_costs.forced_appends),
          static_cast<unsigned long long>(sim.forced_appends),
          static_cast<unsigned long long>(live.live_costs.messages),
          static_cast<unsigned long long>(sim.messages)));
    }
    phase_done("simulator replay");
  }

  // The measured window: every completion seen inside it.
  auto in_window = [&r](const Completion& c) {
    return c.seen >= r.measure_begin && c.seen < r.measure_end;
  };
  uint64_t decided_total = 0;
  uint64_t commits_in_window = 0;
  std::vector<double> gen_lag_us;
  for (const Completion& c : r.completions) {
    ++decided_total;
    if (!in_window(c)) continue;
    if (c.committed) ++commits_in_window;
    gen_lag_us.push_back(c.gen_lag_us);
  }
  // Latency selection: the window (open loop: the report step), split
  // into untraced and traced completions.
  std::function<bool(const Completion&)> in_latency_set = in_window;
  if (spec.open_loop) {
    report.ladder = LadderReport(spec, r);
    const auto [begin, end] = ReportStep(spec, r);
    in_latency_set = [begin, end](const Completion& c) {
      return c.due >= begin && c.due < end;
    };
  }
  Selection untraced = Select(r, [&](const Completion& c) {
    return in_latency_set(c) && !c.traced;
  });
  Selection traced = Select(r, [&](const Completion& c) {
    return in_latency_set(c) && c.traced;
  });
  const double p50 = Quantile(&untraced.latency_us, 0.5);
  const double commits = static_cast<double>(commits_in_window);
  const double gen_lag_p99 = Quantile(&gen_lag_us, 0.99);
  report.driver_flagged =
      r.busy_frac_max > kDriverBusyLimit || gen_lag_p99 > kDriverLagLimitUs;
  if (report.driver_flagged) {
    std::fprintf(stderr,
                 "prany_bench: warning: driver busy %.0f%%, generation lag "
                 "p99 %.0f us; the load generator may limit this run\n",
                 100.0 * r.busy_frac_max, gen_lag_p99);
  }

  if (!opts.trace) {
    report.metrics.Add("setup_s", "s", live.setup_s);
    report.metrics.Add("commits_per_s", "1/s",
                       commits / SecondsBetween(r.measure_begin,
                                                r.measure_end));
    report.metrics.Add("commit_p50_us", "us", p50);
    report.metrics.Add("commit_p99_us", "us",
                       Quantile(&untraced.latency_us, 0.99));
    report.metrics.Add("cpu_us_per_commit", "us",
                       r.process_cpu.total_us() / commits);
    report.metrics.Add("mem_bytes_per_commit", "B",
                       static_cast<double>(r.rss_peak - r.rss_begin) /
                           commits);
  } else {
    const double decided = static_cast<double>(decided_total);
    const double traced_p50 = Quantile(&traced.latency_us, 0.5);
    report.metrics.Add("runtime.submit_us.p50", "us",
                       Quantile(&traced.submit_us, 0.5));
    report.metrics.Add("runtime.submit_us.p99", "us",
                       Quantile(&traced.submit_us, 0.99));
    report.metrics.Add("runtime.commit_path_us.p50", "us",
                       Quantile(&traced.path_us, 0.5));
    report.metrics.Add("runtime.commit_path_us.p99", "us",
                       Quantile(&traced.path_us, 0.99));
    report.metrics.Add("runtime.client_wakeup_us.p50", "us",
                       Quantile(&traced.wakeup_us, 0.5));
    report.metrics.Add("runtime.client_wakeup_us.p99", "us",
                       Quantile(&traced.wakeup_us, 0.99));
    report.metrics.Add(
        "runtime.user_cpu_us_per_commit", "us",
        (r.process_cpu.user_us - r.driver_cpu.user_us) / commits);
    report.metrics.Add("runtime.sys_cpu_us_per_commit", "us",
                       (r.process_cpu.sys_us - r.driver_cpu.sys_us) / commits);
    report.metrics.Add(
        "wal.forced_per_txn", "count",
        static_cast<double>(live.live_costs.forced_appends) / decided);
    report.metrics.Add("wal.fsyncs_per_txn", "count",
                       static_cast<double>(live.fsyncs) / decided);
    report.metrics.Add("wal.batch_forces.mean", "count",
                       Mean(live.batch_forces));
    report.metrics.Add("net.msgs_per_txn", "count",
                       static_cast<double>(live.live_costs.messages) / decided);
    report.metrics.Add("net.bytes_per_txn", "B",
                       static_cast<double>(live.bytes) / decided);
    report.metrics.Add("driver.busy_frac", "frac", r.busy_frac_max);
    report.metrics.Add("driver.gen_lag_us.p99", "us", gen_lag_p99);
    report.metrics.Add(
        "trace.stage_sum_frac", "frac",
        (Median(traced.submit_us) + Median(traced.path_us) +
         Median(traced.wakeup_us)) /
            p50);
    report.metrics.Add("trace_overhead_frac", "frac", traced_p50 / p50 - 1.0);
    report.info.Add("commit_p50_us.untraced", "us", p50);
    report.info.Add("commit_p50_us.traced", "us", traced_p50);

    // Crash cycles: the workload's own, or a recovery probe's.
    std::vector<CrashCycle> cycles = CyclesInWindow(r);
    if (!spec.crash) {
      WorkloadSpec probe = *FindWorkload("mixed_crash_shm");
      probe.name = "recovery_probe";
      probe.clients = 8;
      probe.driver_threads = 1;
      DriverPlan probe_plan;
      probe_plan.warmup_s = 0.3;
      probe_plan.measure_s = 1.5;
      const std::string probe_dir = opts.shm_dir + "/recovery";
      std::filesystem::create_directories(probe_dir);
      LiveRun recovery = RunLive(probe, probe_dir, probe_plan, opts.seed,
                                 epoch, 1, &report.failures);
      cycles = CyclesInWindow(*recovery.driver);
    }
    report.cycles = cycles;
    phase_done("recovery cycles");
    const RecoveryReport rec = SummarizeCycles(cycles);
    report.metrics.Add("recovery.restart_ms.p50", "ms", rec.restart_ms_p50);
    report.metrics.Add("recovery.records_replayed.mean", "count",
                       rec.records_replayed_mean);
    report.metrics.Add("recovery.torn_tail_frac", "frac", rec.torn_tail_frac);
    report.metrics.Add("recovery.unavail_ms.p50", "ms", rec.unavail_ms_p50);

    // Layer probes.
    SpanRecorder probe_spans(epoch);
    ProbeWal(opts.shm_dir, "shm", 0.25, &report.metrics, &probe_spans);
    ProbeWal(opts.disk_dir, "disk", 0.4, &report.metrics, &probe_spans);
    ProbeCodec(&report.metrics, &probe_spans);
    ProbeHops(opts.shm_dir, &report.metrics, &probe_spans);
    ProbeHistory(&report.metrics, &probe_spans);
    {
      constexpr uint64_t kSimTxns = 20'000;
      const TxnStream stream(opts.seed,
                             static_cast<uint32_t>(spec.participants.size()),
                             spec.no_vote_fraction);
      std::vector<TxnSpec> first;
      for (uint64_t i = 0; i < kSimTxns; ++i) first.push_back(stream.At(i));
      const Clock::time_point start = Clock::now();
      double wall_s = 0.0;
      SimulateCosts(spec, first, &wall_s);
      probe_spans.Add("engine.sim_20k_txns", 204, start, Clock::now(), 0);
      report.metrics.Add("engine.sim_us_per_txn", "us",
                         1e6 * wall_s / static_cast<double>(kSimTxns));
    }

    phase_done("layer probes");
    SpanRecorder all_spans(epoch);
    all_spans.Merge(r.spans);
    all_spans.Merge(probe_spans);
    report.self_times = SelfTimesUs(all_spans.spans());
    const std::string trace_dir = ".bench_build/traces";
    const std::string trace_path = trace_dir + "/" + spec.name + ".trace.json";
    std::error_code error;
    std::filesystem::create_directories(trace_dir, error);
    if (error || !WriteChromeTrace(trace_path, all_spans.spans(), 5000)) {
      report.failures.push_back("cannot write the Chrome trace " + trace_path);
    } else {
      std::fprintf(stderr, "prany_bench: wrote %s\n", trace_path.c_str());
    }
  }

  // Informational: the open ladder and the run's failure share.
  if (spec.open_loop) {
    double slo_rate = 0.0;
    for (const StepReport& s : report.ladder) {
      if (s.meets_slo) slo_rate = std::max(slo_rate, s.rate);
      if (s.rate == spec.high_rate) {
        report.info.Add("commit_p99_us.high", "us", s.p99_us);
      }
    }
    report.info.Add("slo_rate_per_s", "1/s", slo_rate);
  }
  if (spec.crash && !opts.trace) {
    report.cycles = CyclesInWindow(r);
    report.info.Add("unavail_ms.p50", "ms",
                    SummarizeCycles(report.cycles).unavail_ms_p50);
  }
  report.info.Add("failed_frac", "frac",
                  r.attempted > 0 ? static_cast<double>(r.failed()) /
                                        static_cast<double>(r.attempted)
                                  : 0.0);
  report.info.Add("net.frames_dropped", "count",
                  static_cast<double>(live.frames_dropped));
  report.info.Add("wal.batch_window_us.mean", "us",
                  Mean(live.batch_window_us));
  report.correct = report.failures.empty();

  PrintHuman(opts, report);
  WriteDetail(opts.out, opts, host, report);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.metrics.ToJson().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace prany

int main(int argc, char** argv) {
  prany::bench::Options opts;
  const std::string error = prany::bench::ParseOptions(argc, argv, &opts);
  if (!error.empty()) return prany::bench::Usage(error);
  return prany::bench::Run(opts);
}
