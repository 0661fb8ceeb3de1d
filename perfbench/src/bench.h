// Shared pieces of the repository benchmark: options, metric sink, sample
// statistics, span recorder and the workload entry points.
//
// The benchmark is a separate program that drives the memcom libraries only
// through their public headers. Every workload runs in its own process and
// ends by printing one JSON line (see main.cpp); everything else it prints
// is a human-readable report.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory (inside the checkout) for model files (`models/`, removed at
  // the end of the run), spans and the result stamp. Created by main().
  std::string work_dir;
  // Self-test: corrupt part of the reference outputs so the output check
  // must report failures.
  bool corrupt_reference = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload process reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // shed + refused + thrown + output mismatch
  bool correct = true;       // false when any check failed
  std::vector<Metric> metrics;
  void set(const std::string& name, double value, const std::string& unit);
};

// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}
double mean(const std::vector<double>& samples);
// Median over 8 equal segments (in sample order) of each segment's p-th
// percentile: a stall moves one segment, not the reported figure.
double segmented_percentile(const std::vector<double>& samples, double p);

// Bitwise equality of two float arrays (outputs must match exactly, and
// == would call -0.0 equal to 0.0).
bool same_bits(const float* a, const float* b, std::size_t n);

// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();

// Microseconds between two steady-clock points.
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Times `reps` calls of `fn`, one sample (µs) per call.
template <class Fn>
std::vector<double> time_us(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(us_between(t0, Clock::now()));
  }
  return samples;
}

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files around calls into each layer; they are written out
// once, when the run ends. A span's self time is its duration minus the
// union of its children's intervals.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }
  // Records a finished span; returns its id (0 when tracing is off).
  std::uint64_t record(const char* name, std::uint64_t parent,
                       Clock::time_point start, Clock::time_point end);
  std::size_t size() const { return spans_.size(); }
  // Self time per span name, summed over all spans (ms), in name order.
  std::vector<std::pair<std::string, double>> self_ms_by_name() const;
  // Chrome trace-event JSON (at most `max_spans` spans, the earliest).
  void write(const std::string& path, std::size_t max_spans) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t parent;
    double start_us;
    double end_us;
  };
  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Stable per-index randomness: workloads derive every input from
// (seed, stream, index) so a request's content does not depend on how many
// requests ran before it.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t i);

// Removes and recreates `path` (a directory inside the work dir).
void fresh_dir(const std::string& path);

// Session interactions (session id, item) with Zipf session popularity over
// `sessions` distinct ids and Zipf item popularity over [1, vocab).
std::vector<std::pair<std::uint64_t, std::int32_t>> zipf_session_stream(
    std::uint64_t seed, std::size_t count, std::int64_t sessions,
    std::int64_t vocab);

// Histories of `length` slots: a real prefix of 16..length Zipf-popular ids
// in [1, vocab) followed by padding (id 0).
std::vector<std::vector<std::int32_t>> zipf_histories(std::uint64_t seed,
                                                      std::size_t count,
                                                      std::int64_t length,
                                                      std::int64_t vocab);

// Throws unless every id is padding or in [1, vocab): inputs come from the
// serving model's own vocabulary, and set-up fails loudly otherwise.
void check_ids(const std::vector<std::vector<std::int32_t>>& histories,
               std::int64_t vocab, const std::string& what);

// Prints a one-line summary of a latency sample.
void print_latency(const std::string& label, std::vector<double> samples_ms);

Outcome run_classify_mt(const Options& options, Tracer& tracer);
Outcome run_session_rank(const Options& options, Tracer& tracer);
Outcome run_cold_boot(const Options& options, Tracer& tracer);

}  // namespace perfbench
