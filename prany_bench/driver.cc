#include "driver.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <random>
#include <thread>

#include "common/status.h"

namespace prany {
namespace bench {

// ---------------------------------------------------------------------------
// Mailbox and DecisionBoard

void Mailbox::Push(Pending* pending) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    items_.push_back(pending);
    wake = waiting_;
  }
  if (wake) cv_.notify_one();
}

void Mailbox::Poke() {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    poked_ = true;
    wake = waiting_;
  }
  if (wake) cv_.notify_one();
}

void Mailbox::Take(std::vector<Pending*>* out, Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  waiting_ = true;
  cv_.wait_until(lock, deadline,
                 [this]() { return !items_.empty() || poked_; });
  waiting_ = false;
  poked_ = false;
  out->insert(out->end(), items_.begin(), items_.end());
  items_.clear();
}

DecisionBoard::DecisionBoard(int threads) {
  for (int i = 0; i < threads; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
}

void DecisionBoard::Register(Pending* pending) {
  Shard& shard = shards_[pending->id % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.pending[pending->id] = pending;
}

bool DecisionBoard::Unregister(TxnId txn) {
  Shard& shard = shards_[txn % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.pending.erase(txn) > 0;
}

void DecisionBoard::OnDecide(const SigEvent& event) {
  const Clock::time_point now = Clock::now();
  Pending* pending = nullptr;
  {
    Shard& shard = shards_[event.txn % kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.pending.find(event.txn);
    if (it == shard.pending.end()) return;  // timed out, or not ours
    pending = it->second;
    shard.pending.erase(it);
  }
  pending->decided = now;
  pending->outcome = event.outcome.value_or(Outcome::kAbort);
  boxes_[static_cast<size_t>(pending->owner)]->Push(pending);
}

void DecisionBoard::PokeAll() {
  for (auto& box : boxes_) box->Poke();
}

// ---------------------------------------------------------------------------
// RunDriver

namespace {

constexpr uint32_t kCrashTrack = 100;
/// Traced runs alternate untraced and traced slices this long.
constexpr double kTraceSliceS = 0.5;
/// A transaction undecided this long after submission has failed.
constexpr double kDecisionTimeoutS = 5.0;
constexpr auto kPollInterval = std::chrono::milliseconds(20);
constexpr auto kTimeoutScanInterval = std::chrono::milliseconds(100);

/// What one driver thread produced.
struct ThreadOut {
  explicit ThreadOut(Clock::time_point epoch) : spans(epoch) {}

  // Deques: a vector's regrowth would copy every record on the driver
  // thread mid-run and stall the load it is generating.
  std::deque<Completion> completions;
  std::deque<TxnSpec> submitted;
  uint64_t attempted = 0;
  uint64_t refused = 0;
  uint64_t timeouts = 0;
  uint64_t wrong_outcomes = 0;
  bool have_cpu_begin = false;
  bool have_cpu_end = false;
  CpuTimes cpu_begin;
  CpuTimes cpu_end;
  SpanRecorder spans;
  std::unordered_map<TxnId, Pending*> owned;
};

class DriverRun {
 public:
  DriverRun(const WorkloadSpec& spec, Federation& federation,
            DecisionBoard& board, const DriverPlan& plan, uint64_t seed,
            Clock::time_point epoch)
      : spec_(spec),
        federation_(federation),
        board_(board),
        plan_(plan),
        seed_(seed),
        epoch_(epoch),
        stream_(seed, static_cast<uint32_t>(federation.site_count()),
                spec.no_vote_fraction),
        inflight_(federation.site_count()) {
    start_ = Clock::now();
    measure_begin_ = start_ + Seconds(plan.warmup_s);
    measure_end_ = measure_begin_ + Seconds(plan.measure_s);
  }

  DriverResult Execute();

 private:
  static Clock::duration Seconds(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  /// Closed loop: this thread's logical clients.
  struct Client {
    int index = 0;
    bool busy = false;
    bool held = false;
    bool has_spec = false;
    TxnSpec spec;
    Clock::time_point ready;
  };

  void ClosedThread(int thread, ThreadOut* out);
  void OpenThread(ThreadOut* out);
  /// Samples CPU, memory and the outstanding count until the drivers end.
  void Monitor(DriverResult* result);
  /// Crash-restarts a rotating site every spec_.crash_every_commits.
  void CrashLoop(SpanRecorder* crash_spans);
  void RunCrashCycle(SiteId victim, SpanRecorder* crash_spans);

  bool TracedAt(Clock::time_point now) const {
    if (!plan_.alternate_trace || now < measure_begin_ || now >= measure_end_) {
      return false;
    }
    const double since = SecondsBetween(measure_begin_, now);
    return static_cast<int64_t>(since / kTraceSliceS) % 2 == 1;
  }

  /// Crash gate: counts the transaction against its sites, or refuses it
  /// while one of them is being drained for a crash.
  bool EnterGate(const TxnSpec& txn);
  void LeaveGate(const TxnSpec& txn);

  /// Submits `txn`; null when the coordinator refused it.
  Pending* Submit(ThreadOut* out, const TxnSpec& txn, int thread, int client,
                  Clock::time_point due);
  void Complete(ThreadOut* out, Pending* pending, int thread,
                Clock::time_point now);
  /// Fails every owned transaction older than the decision timeout;
  /// `on_failed` runs for each before it is deleted.
  template <typename F>
  void ScanTimeouts(ThreadOut* out, Clock::time_point now, F on_failed);
  void NoteWindow(ThreadOut* out, Clock::time_point now);
  void NoteCommitForUnavailability(SiteId coordinator,
                                   Clock::time_point submit_begin,
                                   Clock::time_point decided);

  const WorkloadSpec& spec_;
  Federation& federation_;
  DecisionBoard& board_;
  const DriverPlan plan_;
  const uint64_t seed_;
  const Clock::time_point epoch_;
  const TxnStream stream_;
  Clock::time_point start_;
  Clock::time_point measure_begin_;
  Clock::time_point measure_end_;

  std::atomic<uint64_t> next_index_{0};
  std::atomic<int64_t> outstanding_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<int> threads_running_{0};

  // Crash gate (seq_cst throughout: a driver increments a site's counter
  // then reads the blocked site, the crash thread stores the blocked site
  // then reads the counter; one of them always sees the other).
  std::atomic<int> blocked_site_{-1};
  std::vector<std::atomic<int64_t>> inflight_;

  std::mutex crash_mu_;
  std::vector<CrashCycle> cycles_;  // guarded by crash_mu_
  std::atomic<bool> awaiting_unavail_{false};
  SiteId unavail_site_ = 0;          // guarded by crash_mu_
  Clock::time_point unavail_kill_;   // guarded by crash_mu_
  Clock::time_point unavail_ready_;  // guarded by crash_mu_
};

bool DriverRun::EnterGate(const TxnSpec& txn) {
  if (!spec_.crash) return true;
  const SiteId sites[3] = {txn.coordinator, txn.participants[0],
                           txn.participants[1]};
  for (SiteId s : sites) inflight_[s].fetch_add(1);
  const int blocked = blocked_site_.load();
  if (blocked >= 0 && txn.Involves(static_cast<SiteId>(blocked))) {
    for (SiteId s : sites) inflight_[s].fetch_sub(1);
    return false;
  }
  return true;
}

void DriverRun::LeaveGate(const TxnSpec& txn) {
  if (!spec_.crash) return;
  inflight_[txn.coordinator].fetch_sub(1);
  inflight_[txn.participants[0]].fetch_sub(1);
  inflight_[txn.participants[1]].fetch_sub(1);
}

Pending* DriverRun::Submit(ThreadOut* out, const TxnSpec& txn, int thread,
                           int client, Clock::time_point due) {
  auto pending = std::make_unique<Pending>();
  Transaction transaction = federation_.Make(txn);
  pending->id = transaction.id;
  pending->spec = txn;
  pending->owner = thread;
  pending->client = client;
  pending->due = due;
  pending->traced = TracedAt(Clock::now());
  board_.Register(pending.get());
  ++out->attempted;
  outstanding_.fetch_add(1);
  pending->submit_begin = Clock::now();
  const bool accepted = federation_.Submit(transaction);
  pending->submit_end = Clock::now();
  if (!accepted && board_.Unregister(pending->id)) {
    ++out->refused;
    outstanding_.fetch_sub(1);
    LeaveGate(txn);
    return nullptr;
  }
  out->submitted.push_back(txn);
  Pending* raw = pending.release();
  out->owned[raw->id] = raw;
  return raw;
}

void DriverRun::Complete(ThreadOut* out, Pending* pending, int thread,
                         Clock::time_point now) {
  const Clock::time_point decided =
      std::max(pending->decided, pending->submit_end);
  Completion c;
  c.due = pending->due;
  c.seen = now;
  c.submit_us = MicrosBetween(pending->submit_begin, pending->submit_end);
  c.path_us = MicrosBetween(pending->submit_end, decided);
  c.wakeup_us = MicrosBetween(decided, now);
  c.gen_lag_us = MicrosBetween(pending->due, pending->submit_begin);
  const Clock::time_point origin =
      spec_.open_loop ? pending->due : pending->submit_begin;
  c.latency_us = MicrosBetween(origin, now);
  c.committed = pending->outcome == Outcome::kCommit;
  c.traced = pending->traced;
  if (c.committed != pending->spec.AllYes()) ++out->wrong_outcomes;
  out->completions.push_back(c);
  if (c.traced) {
    const uint32_t track = static_cast<uint32_t>(thread);
    const int64_t root =
        out->spans.Add("txn", track, origin, now, pending->id);
    out->spans.Add("runtime.submit", track, pending->submit_begin,
                   pending->submit_end, pending->id, root);
    out->spans.Add("runtime.commit_path", track, pending->submit_end, decided,
                   pending->id, root);
    out->spans.Add("runtime.client_wakeup", track, decided, now, pending->id,
                   root);
  }
  if (c.committed && spec_.crash) {
    commits_.fetch_add(1);
    NoteCommitForUnavailability(pending->spec.coordinator,
                                pending->submit_begin, pending->decided);
  }
  LeaveGate(pending->spec);
  outstanding_.fetch_sub(1);
  out->owned.erase(pending->id);
}

template <typename F>
void DriverRun::ScanTimeouts(ThreadOut* out, Clock::time_point now,
                             F on_failed) {
  std::vector<Pending*> expired;
  for (const auto& [id, pending] : out->owned) {
    if (SecondsBetween(pending->submit_begin, now) > kDecisionTimeoutS) {
      expired.push_back(pending);
    }
  }
  for (Pending* pending : expired) {
    // Lost the race with the observer: the decision is in the mailbox.
    if (!board_.Unregister(pending->id)) continue;
    ++out->timeouts;
    LeaveGate(pending->spec);
    outstanding_.fetch_sub(1);
    out->owned.erase(pending->id);
    on_failed(pending);
    delete pending;
  }
}

void DriverRun::NoteWindow(ThreadOut* out, Clock::time_point now) {
  if (!out->have_cpu_begin && now >= measure_begin_) {
    out->cpu_begin = ThreadCpu();
    out->have_cpu_begin = true;
  }
  if (!out->have_cpu_end && now >= measure_end_) {
    out->cpu_end = ThreadCpu();
    out->have_cpu_end = true;
  }
}

void DriverRun::NoteCommitForUnavailability(SiteId coordinator,
                                            Clock::time_point submit_begin,
                                            Clock::time_point decided) {
  if (!awaiting_unavail_.load()) return;
  std::lock_guard<std::mutex> lock(crash_mu_);
  if (!awaiting_unavail_.load() || coordinator != unavail_site_ ||
      submit_begin < unavail_ready_) {
    return;
  }
  cycles_.back().unavail_ms = MicrosBetween(unavail_kill_, decided) / 1000.0;
  awaiting_unavail_.store(false);
}

void DriverRun::ClosedThread(int thread, ThreadOut* out) {
  const int threads = spec_.driver_threads;
  std::vector<Client> clients;
  for (int i = thread; i < spec_.clients; i += threads) {
    Client c;
    c.index = i;
    c.ready = start_;
    clients.push_back(c);
  }
  auto try_submit = [&](Client& c) {
    if (!c.has_spec) {
      c.spec = stream_.At(next_index_.fetch_add(1));
      c.has_spec = true;
    }
    if (!EnterGate(c.spec)) {
      c.held = true;  // until the crash gate opens
      return;
    }
    // A held client's lag starts when the gate lets it through.
    if (c.held) c.ready = Clock::now();
    c.held = false;
    c.has_spec = false;
    c.busy = Submit(out, c.spec, thread, c.index, c.ready) != nullptr;
  };
  auto client_of = [&](const Pending* p) -> Client& {
    return clients[static_cast<size_t>(p->client / threads)];
  };
  Mailbox& box = board_.mailbox(thread);
  std::vector<Pending*> batch;
  Clock::time_point next_scan = start_ + kTimeoutScanInterval;
  while (true) {
    Clock::time_point now = Clock::now();
    NoteWindow(out, now);
    const bool stopping = now >= measure_end_;
    if (!stopping) {
      for (Client& c : clients) {
        if (!c.busy) try_submit(c);
      }
    }
    if (stopping && out->owned.empty()) break;
    Clock::time_point deadline = now + kPollInterval;
    for (Clock::time_point edge : {measure_begin_, measure_end_}) {
      if (edge > now) deadline = std::min(deadline, edge);
    }
    batch.clear();
    box.Take(&batch, deadline);
    now = Clock::now();
    for (Pending* p : batch) {
      Complete(out, p, thread, now);
      Client& c = client_of(p);
      c.busy = false;
      c.ready = now;
      delete p;
      if (now < measure_end_) try_submit(c);
    }
    if (now >= next_scan) {
      ScanTimeouts(out, now, [&](Pending* p) {
        Client& c = client_of(p);
        c.busy = false;
        c.ready = now;
      });
      next_scan = now + kTimeoutScanInterval;
    }
  }
}

void DriverRun::OpenThread(ThreadOut* out) {
  std::mt19937_64 rng(seed_ * 0x2545f4914f6cdd1dull + 1);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const size_t steps = spec_.ladder.size();
  const double step_s = plan_.measure_s / static_cast<double>(steps);
  auto rate_at = [&](Clock::time_point t) {
    if (t < measure_begin_) return spec_.ladder.front();
    size_t step = static_cast<size_t>(SecondsBetween(measure_begin_, t) /
                                      step_s);
    return spec_.ladder[std::min(step, steps - 1)];
  };
  auto next_gap = [&](Clock::time_point t) {
    const double mean_us = 1e6 / rate_at(t);
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::micro>(
            -std::log(1.0 - uniform(rng)) * mean_us));
  };
  Mailbox& box = board_.mailbox(0);
  std::vector<Pending*> batch;
  Clock::time_point next_due = start_;
  Clock::time_point next_scan = start_ + kTimeoutScanInterval;
  while (true) {
    Clock::time_point now = Clock::now();
    NoteWindow(out, now);
    while (next_due <= now && next_due < measure_end_) {
      Submit(out, stream_.At(next_index_.fetch_add(1)), 0, 0, next_due);
      next_due += next_gap(next_due);
      now = Clock::now();
    }
    const bool arrivals_done = next_due >= measure_end_;
    if (arrivals_done && now >= measure_end_ && out->owned.empty()) break;
    Clock::time_point deadline = now + kPollInterval;
    if (!arrivals_done) deadline = std::min(deadline, next_due);
    for (Clock::time_point edge : {measure_begin_, measure_end_}) {
      if (edge > now) deadline = std::min(deadline, edge);
    }
    batch.clear();
    box.Take(&batch, deadline);
    now = Clock::now();
    for (Pending* p : batch) {
      Complete(out, p, 0, now);
      delete p;
    }
    if (now >= next_scan) {
      ScanTimeouts(out, now, [](Pending*) {});
      next_scan = now + kTimeoutScanInterval;
    }
  }
}

void DriverRun::RunCrashCycle(SiteId victim, SpanRecorder* crash_spans) {
  // Drain: hold new transactions that touch the victim and wait out the
  // ones in flight, so every transaction the driver submitted still
  // decides. The kill then lands on a site with protocol work pending
  // only after the decision (acks, decision delivery, forgetting).
  blocked_site_.store(static_cast<int>(victim));
  const Clock::time_point drain_deadline =
      Clock::now() + Seconds(kDecisionTimeoutS + 1.0);
  while (inflight_[victim].load() > 0 && Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const Clock::time_point kill = Clock::now();
  const WalRecoveryInfo info =
      federation_.CrashRestart(victim, spec_.crash_downtime_us);
  const Clock::time_point restarted = Clock::now();
  CrashCycle cycle;
  cycle.site = victim;
  cycle.kill = kill;
  cycle.restart_ms = MicrosBetween(kill, restarted) / 1000.0 -
                     static_cast<double>(spec_.crash_downtime_us) / 1000.0;
  cycle.records_replayed = info.records_recovered;
  cycle.torn_tail = info.tail_truncated;
  size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(crash_mu_);
    cycles_.push_back(cycle);
    index = cycles_.size();
    unavail_site_ = victim;
    unavail_kill_ = kill;
    unavail_ready_ = restarted;
    awaiting_unavail_.store(true);
  }
  if (plan_.alternate_trace) {
    crash_spans->Add("recovery.crash_restart", kCrashTrack, kill, restarted,
                     index);
  }
  blocked_site_.store(-1);
  board_.PokeAll();
}

void DriverRun::Monitor(DriverResult* result) {
  bool began = false;
  bool ended = false;
  while (threads_running_.load() > 0) {
    const Clock::time_point now = Clock::now();
    if (!began && now >= measure_begin_) {
      result->process_cpu = ProcessCpu();
      result->rss_begin = ResidentBytes();
      result->rss_peak = result->rss_begin;
      began = true;
    }
    if (began && !ended && now >= measure_end_) {
      const CpuTimes end = ProcessCpu();
      result->process_cpu.user_us = end.user_us - result->process_cpu.user_us;
      result->process_cpu.sys_us = end.sys_us - result->process_cpu.sys_us;
      ended = true;
    }
    if (began && !ended) {
      result->rss_peak = std::max(result->rss_peak, ResidentBytes());
      if (spec_.open_loop) {
        result->outstanding.emplace_back(now, outstanding_.load());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!ended) {
    // The drivers drained before the monitor saw the window close.
    const CpuTimes end = ProcessCpu();
    result->process_cpu.user_us = end.user_us - result->process_cpu.user_us;
    result->process_cpu.sys_us = end.sys_us - result->process_cpu.sys_us;
  }
}

void DriverRun::CrashLoop(SpanRecorder* crash_spans) {
  // Cycles start with the warm-up, so no site ever replays more than the
  // few rotations' worth of WAL the measured window sees.
  uint64_t next_crash = spec_.crash_every_commits;
  SiteId victim = 0;
  while (Clock::now() < measure_end_) {
    if (commits_.load() >= next_crash) {
      RunCrashCycle(victim, crash_spans);
      victim = static_cast<SiteId>((victim + 1) % federation_.site_count());
      next_crash = commits_.load() + spec_.crash_every_commits;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

DriverResult DriverRun::Execute() {
  DriverResult result(epoch_);
  result.measure_begin = measure_begin_;
  result.measure_end = measure_end_;
  const int threads = spec_.open_loop ? 1 : spec_.driver_threads;
  std::vector<std::unique_ptr<ThreadOut>> outs;
  for (int t = 0; t < threads; ++t) {
    outs.push_back(std::make_unique<ThreadOut>(epoch_));
  }
  threads_running_.store(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([this, t, &outs]() {
      if (spec_.open_loop) {
        OpenThread(outs[0].get());
      } else {
        ClosedThread(t, outs[static_cast<size_t>(t)].get());
      }
      if (!outs[static_cast<size_t>(t)]->have_cpu_end) {
        outs[static_cast<size_t>(t)]->cpu_end = ThreadCpu();
      }
      threads_running_.fetch_sub(1);
    });
  }
  SpanRecorder crash_spans(epoch_);
  std::thread crasher;
  if (spec_.crash) crasher = std::thread([&]() { CrashLoop(&crash_spans); });
  Monitor(&result);
  for (std::thread& w : workers) w.join();
  if (crasher.joinable()) crasher.join();

  const double window_us = MicrosBetween(measure_begin_, measure_end_);
  for (const auto& out : outs) {
    result.completions.insert(result.completions.end(),
                              out->completions.begin(),
                              out->completions.end());
    result.submitted.insert(result.submitted.end(), out->submitted.begin(),
                            out->submitted.end());
    result.attempted += out->attempted;
    result.refused += out->refused;
    result.timeouts += out->timeouts;
    result.wrong_outcomes += out->wrong_outcomes;
    const double user_us = out->cpu_end.user_us - out->cpu_begin.user_us;
    const double sys_us = out->cpu_end.sys_us - out->cpu_begin.sys_us;
    result.driver_cpu.user_us += user_us;
    result.driver_cpu.sys_us += sys_us;
    result.busy_frac_max =
        std::max(result.busy_frac_max, (user_us + sys_us) / window_us);
    result.spans.Merge(out->spans);
  }
  result.spans.Merge(crash_spans);
  {
    std::lock_guard<std::mutex> lock(crash_mu_);
    result.cycles = cycles_;
  }
  return result;
}

}  // namespace

DriverResult RunDriver(const WorkloadSpec& spec, Federation& federation,
                       DecisionBoard& board, const DriverPlan& plan,
                       uint64_t seed, Clock::time_point epoch) {
  DriverRun run(spec, federation, board, plan, seed, epoch);
  return run.Execute();
}

}  // namespace bench
}  // namespace prany
