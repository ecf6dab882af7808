#pragma once
// The benchmark's own in-memory span recorder.
//
// Spans sit only in the benchmark's files, around the calls it makes into
// the program's modules (the program's own obs::ScopedSpan hierarchy is not
// installed).  A span records its name, start, end and parent; nothing is
// aggregated while the workload runs, so the recorder's cost is two clock
// reads and one vector append per span.  The recorder is off unless a
// SpanScope installs one: untimed runs pay one null-pointer test per call.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
std::int64_t now_ns();

struct Span {
  int name = 0;        ///< index into SpanRecorder::names()
  int parent = -1;     ///< index of the enclosing span, -1 at the root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name totals over a recorded span set.
struct SpanTotals {
  std::int64_t count = 0;
  double total_s = 0.0;  ///< summed durations, children included
  double self_s = 0.0;   ///< summed durations minus their children's
};

class SpanRecorder {
 public:
  /// Stable small integer for `name` (spans store the index, not a copy).
  int intern(const std::string& name);
  /// Open a span under the innermost open span; returns its index.
  int open(int name);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Count, total and self time per span name.
  std::map<std::string, SpanTotals> totals() const;
  /// One JSON object per span ({"name","parent","start_ns","end_ns"}).
  std::string to_jsonl() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  int open_ = -1;
};

/// The installed recorder, or null when tracing is off.
SpanRecorder* active_recorder();

/// Installs `recorder` for the scope's lifetime (single-threaded use: the
/// benchmark opens spans only on its main thread).
class SpanScope {
 public:
  explicit SpanScope(SpanRecorder* recorder);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* previous_;
};

/// RAII span around one call into a layer.  When `seconds` is given the
/// call's wall time is added to it whether or not tracing is on; otherwise
/// the span is a no-op with tracing off.
class LayerSpan {
 public:
  explicit LayerSpan(const char* name, double* seconds = nullptr);
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  double* seconds_;
  std::int64_t start_ns_ = 0;
  int index_ = -1;
};

}  // namespace perfbench
