// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark opens a span around every call it makes into a layer's
// public functions (`module.function`, e.g. `symexec.explore`), tagged with
// the unit of work it belongs to (an app, file, entry, commit or request).
// Spans nest per thread: a span opened while another is open on the same
// thread becomes its child, and a layer's self time is its span minus the
// part covered by its children. Spans stay in memory; at the end of the run
// they are summarised as per-layer metrics and slowest-unit tables.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;     // "module.function".
  std::string unit;     // Work-unit id; empty when the span has none.
  int64_t parent = -1;  // Index of the enclosing span on the same thread.
  uint32_t thread = 0;  // Small per-process thread number.
  double start = 0.0;   // Seconds since the recorder was created.
  double end = 0.0;
};

class Recorder {
 public:
  // A disabled recorder records nothing; the same benchmark code then runs
  // untraced. Each workload is one function, and its timed run passes a
  // disabled recorder.
  explicit Recorder(bool enabled);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // RAII span: open on construction, closed on destruction.
  class Scope {
   public:
    Scope(Recorder& recorder, std::string_view name, std::string_view unit = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder& recorder_;
    int64_t index_ = -1;
    int64_t saved_parent_ = -1;
  };

  bool enabled() const { return enabled_; }

  // Records a finished top-level span from timestamps taken elsewhere (a
  // request's due and resolve times).
  void Record(std::string_view name, std::string_view unit,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);

  // Read these only after every thread that records into this recorder has
  // finished (the pool regions that record have returned).
  const std::deque<Span>& spans() const { return spans_; }
  // Self seconds per span, parallel to spans().
  std::vector<double> SelfSeconds() const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mutex_;
  std::deque<Span> spans_;  // Guarded by mutex_; a deque never relocates.
};

// Summed self seconds and call counts per span name.
struct LayerTotals {
  double self_seconds = 0.0;
  size_t calls = 0;
};
std::map<std::string, LayerTotals> TotalsByName(const Recorder& recorder);

// The `n` slowest units among spans called `name`, by inclusive duration
// (for leaf spans, such as symexec entries, that equals self time).
struct UnitTime {
  std::string unit;
  double seconds = 0.0;
  double self_seconds = 0.0;
};
std::vector<UnitTime> SlowestUnits(const Recorder& recorder, std::string_view name,
                                   size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
