// The workloads of prany_bench and the live federation each one runs on.
//
// Every workload runs the paper's mixed federation: participants speaking
// different presumption protocols, a PrAny coordinator at every site, two
// participants per transaction. The transaction stream is a pure function
// of the seed and the transaction's index, so two driver threads can draw
// from it concurrently and a run can be replayed through the simulator.

#ifndef PRANY_BENCH_FEDERATION_H_
#define PRANY_BENCH_FEDERATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "history/event_log.h"
#include "runtime/live_system.h"

namespace prany {
namespace bench {

/// One benchmark workload. Why each exists is in README.md.
struct WorkloadSpec {
  std::string name;
  /// Open loop: Poisson arrivals stepping up `ladder`. Closed loop:
  /// `clients` logical clients, each submitting after its last decision.
  bool open_loop = false;
  /// One single-site LiveSystem per site, every message over UDS.
  bool socket = false;
  /// Crash-restarts a rotating site every `crash_every_commits` commits.
  bool crash = false;
  /// WAL on the checkout's filesystem instead of the private tmpfs.
  bool disk_wal = false;
  int clients = 0;
  int driver_threads = 1;
  /// Share of transactions carrying one planned No vote.
  double no_vote_fraction = 0.0;
  /// Participant protocol of each site; site i is index i.
  std::vector<ProtocolKind> participants;
  /// Open loop: offered rates, transactions per second, lowest first.
  std::vector<double> ladder;
  /// Open loop: the step commit_p50_us and commit_p99_us are taken at,
  /// and the higher step reported as commit_p99_us.high.
  double report_rate = 0.0;
  double high_rate = 0.0;
  /// Counted in commits, not seconds: recovery replays every WAL record
  /// written since the site's last restart, so a fixed commit count
  /// keeps the work of each cycle the same from run to run.
  uint64_t crash_every_commits = 0;
  uint64_t crash_downtime_us = 0;
};

const std::vector<WorkloadSpec>& Workloads();
/// The workload called `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One generated transaction: coordinator, two participants and the
/// participant that votes No (kInvalidSite when all vote yes).
struct TxnSpec {
  SiteId coordinator = 0;
  SiteId participants[2] = {0, 0};
  SiteId no_voter = kInvalidSite;

  bool AllYes() const { return no_voter == kInvalidSite; }
  bool Involves(SiteId site) const {
    return coordinator == site || participants[0] == site ||
           participants[1] == site;
  }
};

/// The seeded transaction stream: At(i) depends only on (seed, i).
class TxnStream {
 public:
  TxnStream(uint64_t seed, uint32_t sites, double no_vote_fraction);
  TxnSpec At(uint64_t index) const;

 private:
  uint64_t seed_;
  uint32_t sites_;
  uint64_t no_vote_threshold_;
};

/// Live-runtime settings every workload shares: the default config with
/// the wall-clock timings the throughput bench uses.
runtime::LiveSystemConfig BaseConfig();

/// Protocol-cost totals, read once the federation is quiescent.
struct CostTotals {
  uint64_t forced_appends = 0;
  uint64_t messages = 0;
};

/// The live federation of one workload.
class Federation {
 public:
  /// Builds and starts the federation. `on_decide` is installed as the
  /// history observer of every node before its first site is added, and
  /// sees each kCoordDecide event.
  Federation(const WorkloadSpec& spec, const std::string& wal_dir,
             std::function<void(const SigEvent&)> on_decide);
  ~Federation();

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  size_t site_count() const { return participants_.size(); }
  /// The node hosting `site` (the only node unless socket mode).
  runtime::LiveSystem& NodeOf(SiteId site);
  runtime::LiveSite* LiveSiteOf(SiteId site) {
    return NodeOf(site).live_site(site);
  }

  /// MakeTransaction + SubmitTransaction on the coordinator's node, split
  /// so the caller can register the id before the decision can arrive.
  Transaction Make(const TxnSpec& spec);
  bool Submit(const Transaction& txn);

  // Counters that may be read while traffic runs.
  uint64_t Fsyncs();
  uint64_t MessagesSent();
  uint64_t BytesSent();
  uint64_t FramesDropped();
  /// The samples of distribution `name` of every node, concatenated.
  std::vector<double> Samples(const std::string& name);

  /// Exact per-WAL and per-transport totals; quiescent use only.
  CostTotals ExactCosts();

  /// Waits until every transport and worker queue is idle and every site
  /// has forgotten every transaction (Definition 1's end state). False on
  /// timeout.
  bool Settle(double timeout_s);

  /// Atomicity, safe state (Def. 2) and operational correctness (Def. 1)
  /// over the merged history of all nodes. Empty string when all pass,
  /// else the failing reports. Quiescent use only.
  std::string CheckHistory();

  WalRecoveryInfo CrashRestart(SiteId site, uint64_t downtime_us);

  /// Stops every node. Idempotent.
  void Stop();

 private:
  std::vector<ProtocolKind> participants_;
  std::vector<std::unique_ptr<runtime::LiveSystem>> nodes_;
  bool socket_ = false;
};

}  // namespace bench
}  // namespace prany

#endif  // PRANY_BENCH_FEDERATION_H_
