// Spans and sample statistics for the benchmark. Spans are recorded from
// the benchmark's own code around calls into each layer's public API; a
// disabled tracer records nothing and never reads the clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One boundary call, a loop of per-packet calls over one batch, or a
// coalesced run of callbacks (the apps). `busy_ns` is the time the calls
// themselves took: end - start for a span, the summed call durations for a
// coalesced run. A span's self time is its busy time minus its children's
// busy time.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t count = 0;  // boundary calls covered
  std::int32_t parent = -1;
  std::uint32_t epoch = 0;  // the shared request id
  std::uint32_t rep = 0;
};

// Per-thread span recorder; spans stay in memory until the run ends.
class Tracer {
 public:
  explicit Tracer(std::string thread) : thread_(std::move(thread)) {}

  void enable(bool on) { on_ = on; }
  void set_rep(std::uint32_t rep) { rep_ = rep; }

  // Passed as an epoch: take the enclosing span's request id.
  static constexpr std::uint32_t kParentEpoch = 0xFFFFFFFF;

  // Opens a span under the innermost open one; -1 when disabled.
  int open(const char* name, std::uint32_t epoch) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.start_ns = now_ns();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.epoch = epoch;
    if (epoch == kParentEpoch) {
      s.epoch =
          s.parent < 0 ? 0 : spans_[static_cast<std::size_t>(s.parent)].epoch;
    }
    s.rep = rep_;
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int index, std::uint64_t count = 1) {
    if (index < 0) return;
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    s.busy_ns = s.end_ns - s.start_ns;
    s.count = count;
    stack_.pop_back();
  }

  // Labels a span with its request id once the id is known.
  void set_epoch(int index, std::uint32_t epoch) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].epoch = epoch;
  }

  // Records a coalesced run of calls under the innermost open span.
  void add_coalesced(const char* name, std::int64_t start_ns,
                     std::int64_t end_ns, std::int64_t busy_ns,
                     std::uint64_t count, std::uint32_t epoch) {
    if (!on_ || count == 0) return;
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.busy_ns = busy_ns;
    s.count = count;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.epoch = epoch;
    s.rep = rep_;
    spans_.push_back(s);
  }

  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string thread_;
  bool on_ = false;
  std::uint32_t rep_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t epoch,
             std::uint64_t count = 1)
      : tracer_(tracer), index_(tracer.open(name, epoch)), count_(count) {}
  ~ScopedSpan() { tracer_.close(index_, count_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
  std::uint64_t count_;
};

// Nearest-rank quantile (sorts a copy).
double quantile(std::vector<double> values, double q);

struct WeightedSample {
  double value = 0;
  std::uint32_t weight = 0;
  std::uint32_t epoch = 0;
};

// Nearest-rank quantile over samples that each stand for `weight` records.
double weighted_quantile(std::vector<WeightedSample> samples, double q);

}  // namespace perfbench
