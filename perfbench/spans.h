#ifndef HIDO_PERFBENCH_SPANS_H_
#define HIDO_PERFBENCH_SPANS_H_

// The benchmark's own tracing: spans recorded from the benchmark's files
// around each call into a library layer (ReadCsv, Detect, SaveSnapshot,
// PublishFromFile, ...). The library's obs::TraceSpan tree is left alone.
// Spans live in memory and are written once, as JSON lines, when the
// process ends. With tracing off a Span costs one flag test.

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

namespace hido {
namespace perfbench {

/// One closed span. Times are seconds since the recorder was enabled.
struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at the root
};

/// Process-wide span store; everything is recorded by the thread that
/// drives the workload, the mutex only guards against misuse.
class SpanRecorder {
 public:
  static SpanRecorder& Global();

  /// Turns recording on; `run_id` tags every span of this process.
  void Enable(std::string run_id);
  bool enabled() const { return enabled_; }

  /// Sum of the durations of every closed span called `name`.
  double TotalSeconds(const std::string& name) const;

  /// Writes one JSON object per span: name, start, end, parent, run.
  bool WriteJsonLines(const std::string& path) const;

 private:
  friend class Span;
  int Open(const char* name);
  void Close(int index);
  double Now() const;

  bool enabled_ = false;
  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  std::vector<int> open_;          // guarded by mu_; innermost last
};

/// RAII span; a no-op unless the recorder is enabled.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

}  // namespace perfbench
}  // namespace hido

#endif  // HIDO_PERFBENCH_SPANS_H_
