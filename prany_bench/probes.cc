#include "probes.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "common/status.h"
#include "common/string_util.h"
#include "harness/system.h"
#include "history/event_log.h"
#include "net/message.h"
#include "net/wire.h"
#include "runtime/live_loop.h"
#include "runtime/live_transport.h"
#include "runtime/socket_transport.h"
#include "wal/file_stable_log.h"

namespace prany {
namespace bench {

namespace {

constexpr uint32_t kWalTrack = 200;
constexpr uint32_t kCodecTrack = 201;
constexpr uint32_t kHopTrack = 202;
constexpr uint32_t kHistoryTrack = 203;

/// Keeps the optimizer from discarding timed work.
std::atomic<uint64_t> g_sink{0};

// ---------------------------------------------------------------------------
// WAL

struct WalDepthResult {
  double p50_us = 0.0;
  double ops_per_s = 0.0;
};

WalDepthResult ProbeWalDepth(const std::string& path, int depth,
                             double seconds, SpanRecorder* spans) {
  FileStableLog wal(path, "probe");
  Status opened = wal.Open();
  PRANY_CHECK_MSG(opened.ok(), opened.ToString());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Clock::time_point> appended;  // FIFO: callbacks run in LSN order
  std::vector<double> latency_us;
  int outstanding = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  TxnId txn = 1;
  while (Clock::now() < deadline) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&]() { return outstanding < depth; });
      appended.push_back(Clock::now());
      ++outstanding;
    }
    wal.AppendPipelined(LogRecord::Commit(txn++), [&]() {
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      latency_us.push_back(MicrosBetween(appended.front(), now));
      spans->Add("wal.append_to_durable", kWalTrack, appended.front(), now,
                 latency_us.size());
      appended.pop_front();
      --outstanding;
      cv.notify_one();
    });
    // The probe thread is the log's engine thread: fold durability into
    // the mirror now and then, as the engines' completion tasks do.
    if (txn % 1024 == 0) wal.ReconcileDurability();
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return outstanding == 0; });
  }
  const double elapsed_s = SecondsBetween(start, Clock::now());
  wal.Close();
  ::unlink(path.c_str());
  WalDepthResult result;
  result.ops_per_s = static_cast<double>(latency_us.size()) / elapsed_s;
  result.p50_us = Quantile(&latency_us, 0.5);
  return result;
}

// ---------------------------------------------------------------------------
// Network

std::vector<Message> SampleMessages() {
  std::vector<Message> msgs;
  for (TxnId i = 0; i < 64; ++i) {
    const TxnId txn = 1'000'000 + i * 7919;
    const SiteId a = static_cast<SiteId>(i % 4);
    const SiteId b = static_cast<SiteId>((i + 1) % 4);
    switch (i % 6) {
      case 0: msgs.push_back(Message::Prepare(txn, a, b)); break;
      case 1: msgs.push_back(Message::MakeVote(txn, a, b, Vote::kYes)); break;
      case 2:
        msgs.push_back(Message::Decision(txn, a, b, Outcome::kCommit));
        break;
      case 3: msgs.push_back(Message::Ack(txn, a, b, Outcome::kCommit)); break;
      case 4: msgs.push_back(Message::Inquiry(txn, a, b)); break;
      default:
        msgs.push_back(
            Message::InquiryReply(txn, a, b, Outcome::kAbort, true));
    }
  }
  return msgs;
}

/// Times `op` (which processes `per_op` items) in batches of `batch` calls
/// for ~`seconds`; returns the median nanoseconds per item.
template <typename Op>
double TimeBatches(const char* span_name, size_t per_op, double seconds,
                   SpanRecorder* spans, Op op) {
  constexpr int kBatch = 256;
  std::vector<double> ns_per_item;
  const Clock::time_point start = Clock::now();
  uint64_t batch_index = 0;
  while (SecondsBetween(start, Clock::now()) < seconds) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) op();
    const Clock::time_point t1 = Clock::now();
    spans->Add(span_name, kCodecTrack, t0, t1, ++batch_index);
    ns_per_item.push_back(MicrosBetween(t0, t1) * 1000.0 /
                          static_cast<double>(kBatch * per_op));
  }
  return Median(ns_per_item);
}

/// A bench endpoint answering every message with an ACK.
class PongEndpoint : public NetworkEndpoint {
 public:
  PongEndpoint(ITransport* net, SiteId self) : net_(net), self_(self) {}
  void OnMessage(const Message& msg) override {
    net_->Send(Message::Ack(msg.txn, self_, msg.from, Outcome::kCommit));
  }
  bool IsUp() const override { return true; }

 private:
  ITransport* net_;
  SiteId self_;
};

/// A bench endpoint publishing the id of the last reply it received.
class PingEndpoint : public NetworkEndpoint {
 public:
  void OnMessage(const Message& msg) override {
    last_.store(msg.txn, std::memory_order_release);
  }
  bool IsUp() const override { return true; }
  TxnId last() const { return last_.load(std::memory_order_acquire); }

 private:
  std::atomic<TxnId> last_{0};
};

/// Ping-pongs site 0 -> site 1 -> site 0 over `net` and returns the
/// median one-way time (half the round trip), microseconds.
double PingPong(ITransport* net, PingEndpoint* ping, const char* span_name,
                SpanRecorder* spans) {
  constexpr int kWarmup = 200;
  constexpr double kSeconds = 0.3;
  std::vector<double> one_way_us;
  const Clock::time_point start = Clock::now();
  for (TxnId i = 1;; ++i) {
    const bool warm = i > kWarmup;
    if (warm && SecondsBetween(start, Clock::now()) > kSeconds) break;
    const Clock::time_point t0 = Clock::now();
    net->Send(Message::Prepare(i, 0, 1));
    for (int spins = 0; ping->last() != i; ++spins) {
      if (spins > 200) std::this_thread::yield();
      PRANY_CHECK_MSG(SecondsBetween(t0, Clock::now()) < 5.0,
                      "ping-pong probe lost a message");
    }
    const Clock::time_point t1 = Clock::now();
    if (!warm) continue;
    spans->Add(span_name, kHopTrack, t0, t1, i);
    one_way_us.push_back(MicrosBetween(t0, t1) / 2.0);
  }
  return Median(one_way_us);
}

/// Two distinct loopback TCP ports that were free a moment ago.
std::pair<uint16_t, uint16_t> FreeTcpPorts() {
  int fds[2];
  uint16_t ports[2];
  for (int i = 0; i < 2; ++i) {
    fds[i] = ::socket(AF_INET, SOCK_STREAM, 0);
    PRANY_CHECK(fds[i] >= 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    PRANY_CHECK(::bind(fds[i], reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) == 0);
    socklen_t len = sizeof addr;
    PRANY_CHECK(::getsockname(fds[i], reinterpret_cast<sockaddr*>(&addr),
                              &len) == 0);
    ports[i] = ntohs(addr.sin_port);
  }
  ::close(fds[0]);
  ::close(fds[1]);
  return {ports[0], ports[1]};
}

double SocketHop(const std::string& address_a, const std::string& address_b,
                 const char* span_name, SpanRecorder* spans) {
  runtime::LiveEventLoop loop;
  runtime::SocketTransportConfig config_a;
  config_a.listen_address = address_a;
  config_a.peers[1] = address_b;
  runtime::SocketTransportConfig config_b;
  config_b.listen_address = address_b;
  config_b.peers[0] = address_a;
  runtime::SocketTransport a(&loop, nullptr, config_a);
  runtime::SocketTransport b(&loop, nullptr, config_b);
  PingEndpoint ping;
  PongEndpoint pong(&b, 1);
  a.RegisterEndpoint(0, &ping);
  b.RegisterEndpoint(1, &pong);
  for (runtime::SocketTransport* t : {&a, &b}) {
    Status started = t->Start();
    PRANY_CHECK_MSG(started.ok(), started.ToString());
  }
  const double one_way = PingPong(&a, &ping, span_name, spans);
  a.Stop();
  b.Stop();
  return one_way;
}

}  // namespace

void ProbeWal(const std::string& dir, const std::string& label,
              double seconds_per_depth, MetricList* metrics,
              SpanRecorder* spans) {
  for (int depth : {1, 8, 64}) {
    WalDepthResult r = ProbeWalDepth(dir + "/probe.wal", depth,
                                     seconds_per_depth, spans);
    metrics->Add(StrFormat("wal.durable_us.d%d.%s", depth, label.c_str()),
                 "us", r.p50_us);
    if (depth == 64 && label == "disk") {
      metrics->Add("wal.forces_per_s.d64.disk", "1/s", r.ops_per_s);
    }
  }
}

void ProbeCodec(MetricList* metrics, SpanRecorder* spans) {
  constexpr double kSeconds = 0.15;
  const std::vector<Message> msgs = SampleMessages();
  std::vector<std::vector<uint8_t>> encoded;
  std::vector<uint8_t> chunk;
  for (const Message& m : msgs) {
    encoded.push_back(m.Encode());
    net::AppendFrame(&chunk, net::FrameType::kMessage, encoded.back());
  }
  std::vector<uint8_t> buf;
  metrics->Add("net.encode_ns", "ns",
               TimeBatches("net.encode", msgs.size(), kSeconds, spans, [&]() {
                 for (const Message& m : msgs) {
                   m.EncodeInto(&buf);
                   g_sink.fetch_add(buf.size(), std::memory_order_relaxed);
                 }
               }));
  metrics->Add("net.decode_ns", "ns",
               TimeBatches("net.decode", msgs.size(), kSeconds, spans, [&]() {
                 for (const std::vector<uint8_t>& bytes : encoded) {
                   Result<Message> m = Message::Decode(bytes);
                   g_sink.fetch_add(m->txn, std::memory_order_relaxed);
                 }
               }));
  net::FrameParser parser;
  net::Frame frame;
  metrics->Add(
      "net.frame_parse_ns", "ns",
      TimeBatches("net.frame_parse", msgs.size(), kSeconds, spans, [&]() {
        parser.Feed(chunk.data(), chunk.size());
        bool got = true;
        while (got) {
          PRANY_CHECK(parser.Next(&frame, &got).ok());
          g_sink.fetch_add(frame.body.size(), std::memory_order_relaxed);
        }
      }));
}

void ProbeHops(const std::string& socket_dir, MetricList* metrics,
               SpanRecorder* spans) {
  {
    runtime::LiveEventLoop loop;
    runtime::LiveTransport live(&loop, nullptr);
    PingEndpoint ping;
    PongEndpoint pong(&live, 1);
    live.RegisterEndpoint(0, &ping);
    live.RegisterEndpoint(1, &pong);
    metrics->Add("net.hop_us.live", "us",
                 PingPong(&live, &ping, "net.hop.live", spans));
    live.Stop();
  }
  const std::string uds_a = socket_dir + "/hop_a.sock";
  const std::string uds_b = socket_dir + "/hop_b.sock";
  metrics->Add("net.hop_us.uds", "us",
               SocketHop("uds:" + uds_a, "uds:" + uds_b, "net.hop.uds", spans));
  ::unlink(uds_a.c_str());
  ::unlink(uds_b.c_str());
  const auto [port_a, port_b] = FreeTcpPorts();
  metrics->Add("net.hop_us.tcp", "us",
               SocketHop(StrFormat("tcp:127.0.0.1:%u", port_a),
                         StrFormat("tcp:127.0.0.1:%u", port_b), "net.hop.tcp",
                         spans));
}

void ProbeHistory(MetricList* metrics, SpanRecorder* spans) {
  constexpr uint64_t kPerThread = 100'000;
  constexpr uint64_t kBatch = 1024;
  constexpr int kRepeats = 3;
  std::mutex spans_mu;
  for (int threads : {1, 4}) {
    std::vector<double> ns_per_record;
    for (int rep = 0; rep < kRepeats; ++rep) {
      EventLog log;
      std::atomic<int> ready{0};
      std::vector<double> thread_ns(static_cast<size_t>(threads));
      std::vector<std::thread> workers;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t]() {
          std::vector<std::pair<Clock::time_point, Clock::time_point>> batches;
          ready.fetch_add(1);
          while (ready.load() < threads) {
          }
          const Clock::time_point start = Clock::now();
          Clock::time_point batch_start = start;
          for (uint64_t i = 0; i < kPerThread; ++i) {
            SigEvent event;
            event.type = SigEventType::kPartEnforce;
            event.site = static_cast<SiteId>(t);
            event.txn = i;
            event.outcome = Outcome::kCommit;
            log.Record(event);
            if ((i + 1) % kBatch == 0) {
              const Clock::time_point now = Clock::now();
              batches.emplace_back(batch_start, now);
              batch_start = now;
            }
          }
          thread_ns[static_cast<size_t>(t)] =
              MicrosBetween(start, Clock::now()) * 1000.0 /
              static_cast<double>(kPerThread);
          std::lock_guard<std::mutex> lock(spans_mu);
          for (size_t b = 0; b < batches.size(); ++b) {
            spans->Add(threads == 1 ? "history.record.t1" : "history.record.t4",
                       kHistoryTrack + static_cast<uint32_t>(t),
                       batches[b].first, batches[b].second, b);
          }
        });
      }
      for (std::thread& w : workers) w.join();
      ns_per_record.push_back(Mean(thread_ns));
    }
    metrics->Add(StrFormat("history.record_ns.t%d", threads), "ns",
                 Median(ns_per_record));
  }
}

CostTotals SimulateCosts(const WorkloadSpec& spec,
                         const std::vector<TxnSpec>& txns, double* wall_s) {
  // Chunks bound the simulator's memory; they run on up to four threads
  // because the live federation is stopped by now.
  constexpr size_t kChunk = 20'000;
  constexpr size_t kThreads = 4;
  const size_t chunks = (txns.size() + kChunk - 1) / kChunk;
  std::vector<CostTotals> per_chunk(chunks);
  std::atomic<size_t> next_chunk{0};
  auto worker = [&]() {
    for (size_t c = next_chunk.fetch_add(1); c < chunks;
         c = next_chunk.fetch_add(1)) {
      SystemConfig config;
      config.timing = BaseConfig().timing;
      System system(config);
      for (ProtocolKind p : spec.participants) {
        system.AddSite(p, ProtocolKind::kPrAny);
      }
      const size_t end = std::min(txns.size(), (c + 1) * kChunk);
      SimTime at = 0;
      for (size_t i = c * kChunk; i < end; ++i) {
        const TxnSpec& t = txns[i];
        std::map<SiteId, Vote> votes;
        if (!t.AllYes()) votes[t.no_voter] = Vote::kNo;
        system.SubmitAt(
            at, system.MakeTransaction(
                    t.coordinator, {t.participants[0], t.participants[1]},
                    votes));
        at += 100;
      }
      system.Run();
      CostTotals& totals = per_chunk[c];
      for (size_t s = 0; s < system.site_count(); ++s) {
        totals.forced_appends +=
            system.site(static_cast<SiteId>(s))->wal()->stats().forced_appends;
      }
      for (const auto& [name, value] : system.metrics().counters()) {
        if (name.rfind("net.msg.", 0) == 0) {
          totals.messages += static_cast<uint64_t>(value);
        }
      }
    }
  };
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t t = 1; t < std::min(kThreads, chunks); ++t) {
    threads.emplace_back(worker);
  }
  worker();
  for (std::thread& t : threads) t.join();
  *wall_s = SecondsBetween(start, Clock::now());
  CostTotals totals;
  for (const CostTotals& c : per_chunk) {
    totals.forced_appends += c.forced_appends;
    totals.messages += c.messages;
  }
  return totals;
}

}  // namespace bench
}  // namespace prany
