#include "perfbench/trace.h"

#include <algorithm>
#include <atomic>

namespace perfbench {
namespace {

// Innermost open span of the calling thread (-1 at top level).
thread_local int64_t current_span = -1;

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

Recorder::Recorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

Recorder::Scope::Scope(Recorder& recorder, std::string_view name, std::string_view unit)
    : recorder_(recorder) {
  if (!recorder_.enabled_) {
    return;
  }
  Span span;
  span.name = std::string(name);
  span.unit = std::string(unit);
  span.parent = current_span;
  span.thread = ThreadNumber();
  span.start = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             recorder_.epoch_)
                   .count();
  saved_parent_ = current_span;
  {
    std::lock_guard<std::mutex> lock(recorder_.mutex_);
    index_ = static_cast<int64_t>(recorder_.spans_.size());
    recorder_.spans_.push_back(std::move(span));
  }
  current_span = index_;
}

Recorder::Scope::~Scope() {
  if (index_ < 0) {
    return;
  }
  const double end = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - recorder_.epoch_)
                         .count();
  current_span = saved_parent_;
  std::lock_guard<std::mutex> lock(recorder_.mutex_);
  recorder_.spans_[static_cast<size_t>(index_)].end = end;
}

void Recorder::Record(std::string_view name, std::string_view unit,
                      std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end) {
  if (!enabled_) {
    return;
  }
  Span span;
  span.name = std::string(name);
  span.unit = std::string(unit);
  span.thread = ThreadNumber();
  span.start = std::chrono::duration<double>(start - epoch_).count();
  span.end = std::chrono::duration<double>(end - epoch_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<double> Recorder::SelfSeconds() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start, span.end);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the span.
    double covered = 0.0;
    double reach = span.start;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, span.end);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = std::max(0.0, span.end - span.start - covered);
  }
  return self;
}

std::map<std::string, LayerTotals> TotalsByName(const Recorder& recorder) {
  const std::vector<double> self = recorder.SelfSeconds();
  std::map<std::string, LayerTotals> totals;
  for (size_t i = 0; i < recorder.spans().size(); ++i) {
    const Span& span = recorder.spans()[i];
    LayerTotals& t = totals[span.name];
    t.self_seconds += self[i];
    ++t.calls;
  }
  return totals;
}

std::vector<UnitTime> SlowestUnits(const Recorder& recorder, std::string_view name,
                                   size_t n) {
  const std::vector<double> self = recorder.SelfSeconds();
  std::vector<UnitTime> units;
  for (size_t i = 0; i < recorder.spans().size(); ++i) {
    const Span& span = recorder.spans()[i];
    if (span.name == name) {
      units.push_back({span.unit, span.end - span.start, self[i]});
    }
  }
  std::sort(units.begin(), units.end(), [](const UnitTime& a, const UnitTime& b) {
    return a.seconds != b.seconds ? a.seconds > b.seconds : a.unit < b.unit;
  });
  if (units.size() > n) {
    units.resize(n);
  }
  return units;
}

}  // namespace perfbench
