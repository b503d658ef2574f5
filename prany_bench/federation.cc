#include "federation.h"

#include <chrono>
#include <thread>

#include "common/status.h"
#include "core/safe_state.h"
#include "history/operational_checker.h"

namespace prany {
namespace bench {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<WorkloadSpec> MakeWorkloads() {
  const std::vector<ProtocolKind> paper_mix = {
      ProtocolKind::kPrN, ProtocolKind::kPrA, ProtocolKind::kPrC,
      ProtocolKind::kPrN};
  std::vector<WorkloadSpec> all;

  WorkloadSpec closed;
  closed.name = "mixed_closed_shm";
  closed.clients = 16;
  closed.driver_threads = 2;
  closed.no_vote_fraction = 0.10;
  closed.participants = paper_mix;
  all.push_back(closed);

  // Not in BENCHMARK.json: its latency follows the shared virtual disk,
  // whose fdatasync time moves between runs by more than any bound the
  // benchmark may set (see README.md).
  WorkloadSpec disk;
  disk.name = "mixed_open_disk";
  disk.open_loop = true;
  disk.disk_wal = true;
  disk.driver_threads = 1;
  disk.participants = paper_mix;
  disk.ladder = {2000.0, 4000.0, 6000.0, 8000.0};
  disk.report_rate = 4000.0;
  disk.high_rate = 6000.0;
  all.push_back(disk);

  WorkloadSpec socket;
  socket.name = "mixed_socket_uds";
  socket.socket = true;
  socket.clients = 12;
  socket.driver_threads = 2;
  socket.no_vote_fraction = 0.10;
  socket.participants = {ProtocolKind::kPrN, ProtocolKind::kPrA,
                         ProtocolKind::kPrC};
  all.push_back(socket);

  WorkloadSpec crash = closed;
  crash.name = "mixed_crash_shm";
  crash.crash = true;
  crash.crash_every_commits = 1000;
  crash.crash_downtime_us = 20'000;
  all.push_back(crash);
  return all;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

TxnStream::TxnStream(uint64_t seed, uint32_t sites, double no_vote_fraction)
    : seed_(SplitMix64(seed)),
      sites_(sites),
      no_vote_threshold_(static_cast<uint64_t>(no_vote_fraction * 65536.0)) {
  PRANY_CHECK(sites >= 3);
}

TxnSpec TxnStream::At(uint64_t index) const {
  const uint64_t h = SplitMix64(seed_ ^ SplitMix64(index));
  TxnSpec spec;
  spec.coordinator = static_cast<SiteId>(h % sites_);
  // Two distinct participants among the other sites_ - 1 sites.
  const uint64_t others = sites_ - 1;
  uint64_t a = (h >> 16) % others;
  uint64_t b = (h >> 32) % (others - 1);
  if (b >= a) ++b;
  auto other_site = [&](uint64_t k) {
    return static_cast<SiteId>((spec.coordinator + 1 + k) % sites_);
  };
  spec.participants[0] = other_site(a);
  spec.participants[1] = other_site(b);
  if (((h >> 48) & 0xffff) < no_vote_threshold_) {
    spec.no_voter = spec.participants[(h >> 8) & 1];
  }
  return spec;
}

runtime::LiveSystemConfig BaseConfig() {
  runtime::LiveSystemConfig config;
  config.timing.vote_timeout = 10'000'000;
  config.timing.decision_resend_interval = 2'000'000;
  config.timing.inquiry_interval = 2'000'000;
  return config;
}

Federation::Federation(const WorkloadSpec& spec, const std::string& wal_dir,
                       std::function<void(const SigEvent&)> on_decide)
    : participants_(spec.participants), socket_(spec.socket) {
  const SiteId sites = static_cast<SiteId>(participants_.size());
  auto hook = [on_decide](const SigEvent& event) {
    if (event.type == SigEventType::kCoordDecide) on_decide(event);
  };
  CoordinatorSpec prany;
  prany.kind = ProtocolKind::kPrAny;
  if (!socket_) {
    runtime::LiveSystemConfig config = BaseConfig();
    config.log_dir = wal_dir;
    nodes_.push_back(std::make_unique<runtime::LiveSystem>(config));
    nodes_[0]->history().SetObserver(hook);
    for (SiteId s = 0; s < sites; ++s) {
      nodes_[0]->AddSiteWithSpec(participants_[s], prany);
    }
    return;
  }
  auto address = [&](SiteId s) {
    return "uds:" + wal_dir + "/s" + std::to_string(s) + ".sock";
  };
  for (SiteId s = 0; s < sites; ++s) {
    runtime::LiveSystemConfig config = BaseConfig();
    config.log_dir = wal_dir;
    config.listen_address = address(s);
    config.txn_id_base = static_cast<TxnId>(s + 1) << 40;
    for (SiteId peer = 0; peer < sites; ++peer) {
      if (peer == s) continue;
      config.remote_sites.push_back(runtime::LiveSystemConfig::RemoteSite{
          peer, participants_[peer], address(peer)});
    }
    nodes_.push_back(std::make_unique<runtime::LiveSystem>(config));
    nodes_.back()->history().SetObserver(hook);
    nodes_.back()->AddSiteWithId(s, participants_[s], prany);
  }
}

Federation::~Federation() { Stop(); }

runtime::LiveSystem& Federation::NodeOf(SiteId site) {
  return socket_ ? *nodes_.at(site) : *nodes_[0];
}

Transaction Federation::Make(const TxnSpec& spec) {
  std::map<SiteId, Vote> votes;
  if (!spec.AllYes()) votes[spec.no_voter] = Vote::kNo;
  return NodeOf(spec.coordinator)
      .MakeTransaction(spec.coordinator,
                       {spec.participants[0], spec.participants[1]}, votes);
}

bool Federation::Submit(const Transaction& txn) {
  return NodeOf(txn.coordinator).SubmitTransaction(txn);
}

uint64_t Federation::Fsyncs() {
  uint64_t total = 0;
  for (SiteId s = 0; s < site_count(); ++s) {
    total += LiveSiteOf(s)->wal()->fsyncs();
  }
  return total;
}

uint64_t Federation::MessagesSent() {
  uint64_t total = 0;
  for (auto& node : nodes_) {
    total += socket_ ? node->socket_transport()->stats().messages_sent
                     : node->transport().stats().messages_sent;
  }
  return total;
}

uint64_t Federation::BytesSent() {
  uint64_t total = 0;
  for (auto& node : nodes_) {
    total += socket_ ? node->socket_transport()->stats().bytes_sent
                     : node->transport().stats().bytes_sent;
  }
  return total;
}

uint64_t Federation::FramesDropped() {
  if (!socket_) return 0;
  uint64_t total = 0;
  for (auto& node : nodes_) {
    runtime::SocketTransportStats stats = node->socket_transport()->stats();
    total += stats.frames_dropped_backlog + stats.frames_dropped_corrupt;
  }
  return total;
}

std::vector<double> Federation::Samples(const std::string& name) {
  std::vector<double> all;
  for (auto& node : nodes_) {
    std::vector<double> samples = node->metrics().samples(name);
    all.insert(all.end(), samples.begin(), samples.end());
  }
  return all;
}

CostTotals Federation::ExactCosts() {
  CostTotals totals;
  for (SiteId s = 0; s < site_count(); ++s) {
    totals.forced_appends += LiveSiteOf(s)->wal()->stats().forced_appends;
  }
  totals.messages = MessagesSent();
  return totals;
}

bool Federation::Settle(double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (true) {
    // A frame can be in flight between two nodes while one of them looks
    // idle, so every node must be seen idle in one sweep.
    bool idle = true;
    for (auto& node : nodes_) idle = node->Quiesce(500'000) && idle;
    bool forgotten = idle;
    for (SiteId s = 0; forgotten && s < site_count(); ++s) {
      runtime::LiveSite* ls = LiveSiteOf(s);
      SiteEndState state;
      ls->RunInline([&]() { state = ls->site()->EndState(); });
      forgotten = state.coord_table_size == 0 &&
                  state.participant_entries == 0 &&
                  state.unreleased_txns.empty();
    }
    if (forgotten) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

std::string Federation::CheckHistory() {
  // The two checkers only read the history, so they run side by side.
  // Operational correctness (Def. 1) includes atomicity as its first
  // clause.
  auto check = [](const EventLog& history,
                  const std::vector<SiteEndState>& states) {
    SafeStateReport safe;
    std::thread safe_thread(
        [&history, &safe]() { safe = SafeStateChecker::Check(history); });
    OperationalReport operational =
        OperationalChecker::Check(history, states);
    safe_thread.join();
    std::string failures;
    if (!operational.ok()) failures += operational.ToString();
    if (!safe.ok()) failures += safe.ToString();
    return failures;
  };
  if (!socket_) return check(nodes_[0]->history(), nodes_[0]->EndStates());
  // The checkers' view of a multi-node run: the per-node partial
  // histories concatenated. Sound because the criteria never rely on
  // cross-site event order.
  EventLog merged;
  std::vector<SiteEndState> states;
  for (auto& node : nodes_) {
    for (const SigEvent& event : node->history().events()) {
      merged.Record(event);
    }
    for (const SiteEndState& state : node->EndStates()) {
      states.push_back(state);
    }
  }
  return check(merged, states);
}

WalRecoveryInfo Federation::CrashRestart(SiteId site, uint64_t downtime_us) {
  return NodeOf(site).CrashRestartSite(site, downtime_us);
}

void Federation::Stop() {
  for (auto& node : nodes_) node->Stop();
}

}  // namespace bench
}  // namespace prany
