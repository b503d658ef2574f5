// Bench-side spans for the traced run: recorded around the calls the
// benchmark makes into each layer, kept in memory, and written at exit as
// a Chrome trace (chrome://tracing, Perfetto).

#ifndef PRANY_BENCH_SPANS_H_
#define PRANY_BENCH_SPANS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace prany {
namespace bench {

struct Span {
  const char* name = "";  ///< Static string: the layer boundary.
  int64_t start_ns = 0;   ///< Since the recorder's epoch.
  int64_t dur_ns = 0;
  uint32_t track = 0;     ///< Chrome "tid": driver thread or probe.
  uint64_t id = 0;        ///< Transaction id or probe operation index.
  int64_t parent = -1;    ///< Index of the enclosing span, -1 for roots.
};

/// Single-writer span buffer; one per recording thread, merged at exit.
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}

  /// Appends a span and returns its index (a parent for later spans).
  int64_t Add(const char* name, uint32_t track, Clock::time_point start,
              Clock::time_point end, uint64_t id, int64_t parent = -1);

  /// Appends `other`'s spans, re-basing their parent indices.
  void Merge(const SpanRecorder& other);

  const std::deque<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::deque<Span> spans_;
};

/// Self time of every span, microseconds, grouped by span name: the
/// span's duration minus the part of it its children cover.
std::map<std::string, std::vector<double>> SelfTimesUs(
    const std::deque<Span>& spans);

/// Writes a Chrome trace JSON of `spans`, keeping at most
/// `max_per_name` spans of each name (children follow their parent).
/// Returns false if the file cannot be written.
bool WriteChromeTrace(const std::string& path, const std::deque<Span>& spans,
                      size_t max_per_name);

}  // namespace bench
}  // namespace prany

#endif  // PRANY_BENCH_SPANS_H_
