#include "spans.h"

#include <cstdio>

namespace hido {
namespace perfbench {

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::Enable(std::string run_id) {
  std::lock_guard<std::mutex> lock(mu_);
  run_id_ = std::move(run_id);
  origin_ = std::chrono::steady_clock::now();
  enabled_ = true;
}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::Open(const char* name) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord record;
  record.name = name;
  record.start = now;
  record.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(record));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::Close(int index) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = now;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double SpanRecorder::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) total += span.end - span.start;
  }
  return total;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const SpanRecord& span : spans_) {
    // Span names are identifiers from this directory; no escaping needed.
    std::fprintf(file,
                 "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %d, \"run\": \"%s\"}\n",
                 span.name.c_str(), span.start, span.end, span.parent,
                 run_id_.c_str());
  }
  return std::fclose(file) == 0;
}

Span::Span(const char* name) {
  SpanRecorder& recorder = SpanRecorder::Global();
  if (recorder.enabled()) index_ = recorder.Open(name);
}

Span::~Span() {
  if (index_ >= 0) SpanRecorder::Global().Close(index_);
}

}  // namespace perfbench
}  // namespace hido
