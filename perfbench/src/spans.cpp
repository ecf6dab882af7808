#include "spans.hpp"

#include <chrono>
#include <sstream>

namespace perfbench {

namespace {
SpanRecorder* g_recorder = nullptr;
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::intern(const std::string& name) {
  const auto [it, inserted] =
      ids_.emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

int SpanRecorder::open(int name) {
  spans_.push_back({name, open_, now_ns(), 0});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void SpanRecorder::close(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  open_ = span.parent;
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::int64_t total = span.end_ns - span.start_ns;
    SpanTotals& entry = totals[names_[static_cast<std::size_t>(span.name)]];
    ++entry.count;
    entry.total_s += static_cast<double>(total) * 1e-9;
    entry.self_s += static_cast<double>(total - child_ns[i]) * 1e-9;
  }
  return totals;
}

std::string SpanRecorder::to_jsonl() const {
  std::ostringstream out;
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << names_[static_cast<std::size_t>(span.name)]
        << "\",\"parent\":" << span.parent << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return out.str();
}

SpanRecorder* active_recorder() { return g_recorder; }

SpanScope::SpanScope(SpanRecorder* recorder) : previous_(g_recorder) {
  g_recorder = recorder;
}

SpanScope::~SpanScope() { g_recorder = previous_; }

LayerSpan::LayerSpan(const char* name, double* seconds)
    : recorder_(g_recorder), seconds_(seconds) {
  if (seconds_ != nullptr) start_ns_ = now_ns();
  if (recorder_ != nullptr) index_ = recorder_->open(recorder_->intern(name));
}

LayerSpan::~LayerSpan() {
  if (recorder_ != nullptr) recorder_->close(index_);
  if (seconds_ != nullptr) {
    *seconds_ += static_cast<double>(now_ns() - start_ns_) * 1e-9;
  }
}

}  // namespace perfbench
