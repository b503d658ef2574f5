// The load driver: multiplexes a workload's logical clients over at most
// two threads, submits with LiveSystem::SubmitTransaction and learns of
// decisions through the history observer (kCoordDecide), never Await.
//
// Per transaction it stamps four times: due (closed loop: when the client
// became ready; open loop: the Poisson arrival), submit begin and end
// around SubmitTransaction, the decide observer, and the moment the
// driver thread sees the decision. These give the runtime stage times
// (submit, commit path, client wakeup) and, in traced slices, the spans.

#ifndef PRANY_BENCH_DRIVER_H_
#define PRANY_BENCH_DRIVER_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "federation.h"
#include "spans.h"

namespace prany {
namespace bench {

/// One submitted transaction while its decision is outstanding.
struct Pending {
  TxnId id = kInvalidTxn;
  TxnSpec spec;
  int owner = 0;   ///< Driver thread that submitted it.
  int client = 0;  ///< Logical client (closed loop).
  bool traced = false;
  Clock::time_point due;
  Clock::time_point submit_begin;
  Clock::time_point submit_end;
  Clock::time_point decided;  ///< Written by the decide observer.
  Outcome outcome = Outcome::kAbort;
};

/// A driver thread's inbox of decided transactions.
class Mailbox {
 public:
  void Push(Pending* pending);
  /// Wakes the owner without an item (a crash gate opened).
  void Poke();
  /// Appends queued items to `out`, first waiting until there is one, a
  /// poke, or `deadline`.
  void Take(std::vector<Pending*>* out, Clock::time_point deadline);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Pending*> items_;
  bool waiting_ = false;
  bool poked_ = false;
};

/// Routes kCoordDecide events to the driver thread that submitted the
/// transaction. Replaces the runtime's await registry.
class DecisionBoard {
 public:
  explicit DecisionBoard(int threads);

  /// Call before SubmitTransaction: the decision can arrive before the
  /// submit call returns.
  void Register(Pending* pending);
  /// Takes `txn` back (refused or timed out). False if its decision was
  /// already delivered, in which case the mailbox owns it.
  bool Unregister(TxnId txn);
  /// The history observer body.
  void OnDecide(const SigEvent& event);

  Mailbox& mailbox(int thread) { return *boxes_[static_cast<size_t>(thread)]; }
  void PokeAll();

 private:
  struct Shard {
    std::mutex mu;
    std::unordered_map<TxnId, Pending*> pending;
  };
  static constexpr size_t kShards = 16;
  Shard shards_[kShards];
  std::vector<std::unique_ptr<Mailbox>> boxes_;
};

/// One decided transaction as the driver saw it.
struct Completion {
  Clock::time_point due;
  Clock::time_point seen;
  /// Closed loop: submit begin to seen. Open loop: due to seen.
  double latency_us = 0.0;
  double submit_us = 0.0;
  double path_us = 0.0;    ///< Submit end to decide (0 if decided first).
  double wakeup_us = 0.0;  ///< Decide to seen.
  double gen_lag_us = 0.0; ///< Due to submit begin.
  bool committed = false;
  bool traced = false;
};

/// One crash-restart cycle.
struct CrashCycle {
  SiteId site = 0;
  Clock::time_point kill;
  double restart_ms = 0.0;  ///< CrashRestartSite call time minus downtime.
  uint64_t records_replayed = 0;
  bool torn_tail = false;
  /// Kill to the decide of the first commit the victim coordinated after
  /// restarting; negative if none was seen.
  double unavail_ms = -1.0;
};

struct DriverPlan {
  double warmup_s = 1.0;
  double measure_s = 10.0;
  /// Alternate untraced and traced half-second slices through the
  /// measured window.
  bool alternate_trace = false;
};

struct DriverResult {
  Clock::time_point measure_begin;
  Clock::time_point measure_end;
  std::vector<Completion> completions;  ///< Warm-up included.
  std::vector<TxnSpec> submitted;       ///< Accepted submissions.
  uint64_t attempted = 0;
  uint64_t refused = 0;
  uint64_t timeouts = 0;
  uint64_t wrong_outcomes = 0;
  std::vector<CrashCycle> cycles;
  /// CPU time of the busiest driver thread over the measured window, as
  /// a share of the window.
  double busy_frac_max = 0.0;
  CpuTimes driver_cpu;         ///< Driver threads, measured window.
  CpuTimes process_cpu;        ///< Whole process, measured window.
  int64_t rss_begin = 0;
  int64_t rss_peak = 0;
  /// Open loop: outstanding transactions sampled every 10 ms.
  std::vector<std::pair<Clock::time_point, int64_t>> outstanding;
  SpanRecorder spans;

  explicit DriverResult(Clock::time_point epoch) : spans(epoch) {}
  uint64_t failed() const { return refused + timeouts + wrong_outcomes; }
};

/// Runs `spec`'s load against `federation` for plan.warmup_s +
/// plan.measure_s, then drains every outstanding transaction. The
/// federation's decide observer must forward to `board`.
DriverResult RunDriver(const WorkloadSpec& spec, Federation& federation,
                       DecisionBoard& board, const DriverPlan& plan,
                       uint64_t seed, Clock::time_point epoch);

}  // namespace bench
}  // namespace prany

#endif  // PRANY_BENCH_DRIVER_H_
