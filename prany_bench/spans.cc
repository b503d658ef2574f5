#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace prany {
namespace bench {

int64_t SpanRecorder::Add(const char* name, uint32_t track,
                          Clock::time_point start, Clock::time_point end,
                          uint64_t id, int64_t parent) {
  Span span;
  span.name = name;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  span.dur_ns = std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
             .count());
  span.track = track;
  span.id = id;
  span.parent = parent;
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::Merge(const SpanRecorder& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::map<std::string, std::vector<double>> SelfTimesUs(
    const std::deque<Span>& spans) {
  // Children of one span do not overlap (they are consecutive stages), so
  // the covered part is the sum of their durations clipped to the parent.
  std::vector<int64_t> covered(spans.size(), 0);
  for (const Span& child : spans) {
    if (child.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(child.parent)];
    const int64_t begin = std::max(child.start_ns, parent.start_ns);
    const int64_t end = std::min(child.start_ns + child.dur_ns,
                                 parent.start_ns + parent.dur_ns);
    if (end > begin) covered[static_cast<size_t>(child.parent)] += end - begin;
  }
  std::map<std::string, std::vector<double>> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t own = std::max<int64_t>(0, spans[i].dur_ns - covered[i]);
    self[spans[i].name].push_back(static_cast<double>(own) / 1000.0);
  }
  return self;
}

bool WriteChromeTrace(const std::string& path, const std::deque<Span>& spans,
                      size_t max_per_name) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::map<std::string, size_t> roots_kept;
  std::vector<bool> kept(spans.size(), false);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0) {
      kept[i] = kept[static_cast<size_t>(s.parent)];
    } else {
      kept[i] = roots_kept[s.name]++ < max_per_name;
    }
    if (!kept[i]) continue;
    std::fprintf(f,
                 "%s{\"name\": %s, \"cat\": \"prany_bench\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %llu}}",
                 first ? "" : ",\n", JsonString(s.name).c_str(),
                 static_cast<double>(s.start_ns) / 1000.0,
                 static_cast<double>(s.dur_ns) / 1000.0, s.track,
                 static_cast<unsigned long long>(s.id));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace bench
}  // namespace prany
