// Layer probes: each times one public entry point of a layer in
// isolation, outside the workload's federation, and records one span per
// probe operation.

#ifndef PRANY_BENCH_PROBES_H_
#define PRANY_BENCH_PROBES_H_

#include <string>
#include <vector>

#include "bench_util.h"
#include "federation.h"
#include "spans.h"

namespace prany {
namespace bench {

/// wal.durable_us.{d1,d8,d64}.<label>: FileStableLog::AppendPipelined to
/// its on_durable callback with 1, 8 or 64 appends outstanding from one
/// engine thread, and (for the disk directory) wal.forces_per_s.d64.disk.
void ProbeWal(const std::string& dir, const std::string& label,
              double seconds_per_depth, MetricList* metrics,
              SpanRecorder* spans);

/// net.encode_ns / net.decode_ns / net.frame_parse_ns: the message codec
/// and FrameParser over 64-frame chunks.
void ProbeCodec(MetricList* metrics, SpanRecorder* spans);

/// net.hop_us.{live,uds,tcp}: one-way time of a ping-pong between two
/// bench endpoints on LiveTransport and SocketTransport.
void ProbeHops(const std::string& socket_dir, MetricList* metrics,
               SpanRecorder* spans);

/// history.record_ns.{t1,t4}: EventLog::Record from 1 and 4 threads.
void ProbeHistory(MetricList* metrics, SpanRecorder* spans);

/// Runs `txns` through the simulator (harness::System) on the workload's
/// federation, in chunks of at most 20k transactions, and returns the
/// forced writes and messages it charges. `*wall_s` gets the wall time;
/// a single chunk runs on the calling thread alone.
CostTotals SimulateCosts(const WorkloadSpec& spec,
                         const std::vector<TxnSpec>& txns, double* wall_s);

}  // namespace bench
}  // namespace prany

#endif  // PRANY_BENCH_PROBES_H_
