// Open-loop load generator shared by the serving workloads.
//
// One generator thread releases request i at its due time t0 + i / rate,
// whatever happened to earlier requests, and between due times polls the
// outstanding futures for completions. Each request is timed from its due
// time to the moment the generator saw its future ready, so a stall of the
// server or of the generator itself shows in the latency of every request
// it delayed; the generator's own lateness is reported next to it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "bench.h"
#include "ondevice/serving.h"

namespace perfbench {

// A workload's request stream. Request i must not depend on anything but i
// (and the workload's seed), so every phase replays the same stream.
class LoadSource {
 public:
  virtual ~LoadSource() = default;
  // Called on the generator thread just before request i is submitted
  // (the classify workload hot-swaps a tenant here).
  virtual void before_submit(std::size_t i) { (void)i; }
  virtual std::future<memcom::AsyncResult> submit(std::size_t i) = 0;
  // Output check of request i; false counts the request as failed.
  virtual bool check(std::size_t i, memcom::AsyncResult& result) = 0;
};

struct PhaseConfig {
  std::string name;
  double rate = 0.0;     // requests per second
  double seconds = 0.0;  // schedule length (requests = rate * seconds)
  // Requests due in the first `warmup_seconds` are checked but left out of
  // the latency samples.
  double warmup_seconds = 0.0;
  // Stop releasing requests once this many are outstanding (the rung is
  // already lost); 0 = never.
  std::size_t abort_outstanding = 0;
};

struct PhaseStats {
  std::string name;
  double rate = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t late = 0;  // released more than one period after due
  bool aborted = false;
  double elapsed_s = 0.0;  // first due -> last completion seen
  // Per measured request: warm-up and failed requests excluded (a failed
  // request counts in `failed`, which fails any ladder rung).
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;     // due -> submit call
  std::vector<double> submit_us;  // submit call duration
  std::vector<double> wait_ms;    // AsyncResult::queue_wait_ms
  std::vector<double> service_ms; // AsyncResult::service_ms
  std::vector<double> resolve_ms; // server completion -> future seen ready
  std::vector<double> batch;      // micro-batch size per request
  // Latencies of the last quarter of the measured requests, in order.
  std::vector<double> tail_latency_ms;

  double completed_qps() const {
    return elapsed_s > 0.0 ? static_cast<double>(attempted - failed) / elapsed_s
                           : 0.0;
  }
};

// Runs one phase against `source`. With a tracer, every request records a
// span from due time to completion with children for the generator lag,
// the submit call, and the queue wait / service / resolve intervals placed
// from the AsyncResult fields (anchored at the submit call).
PhaseStats run_phase(LoadSource& source, const PhaseConfig& config,
                     Tracer* tracer);

// Prints a phase's counts and latency percentiles to the report.
void print_phase(const PhaseStats& stats);

// Appends `more`'s measured latencies to `into` (one fixed rate run in two
// halves at different times of the run).
inline void append_latencies(PhaseStats& into, const PhaseStats& more) {
  into.latency_ms.insert(into.latency_ms.end(), more.latency_ms.begin(),
                         more.latency_ms.end());
}

// Fixed rate ladder: rungs bottom * step^k up to top. A rung passes when its
// p95 meets `limit_ms` with no failed request and no growing backlog.
//
// Near the knee a rung passes or fails by chance on a shared machine, so
// one bisection lands a rung or two either way. The ladder is walked as a
// staircase instead: from `start`, climb 4 rungs per pass until the first
// failure, then step up 1 rung on a pass and down 2 on a failure, which
// settles where a rung passes about two times in three. max_ok_qps is the
// median completed qps over the passing probes after the first failure
// (over every passing probe when no probe failed).
struct LadderConfig {
  double bottom = 0.0;
  double top = 0.0;
  double step = 1.05;
  double start = 0.0;
  double limit_ms = 1.0;
  double rung_seconds = 1.0;
  double warmup_seconds = 0.1;
  int probes = 20;
};

struct LadderResult {
  double max_ok_qps = 0.0;  // 0 when no probe passed
  std::vector<double> passed_rungs;  // offered rate of each counted pass
};

// `make_source` is called once per probe and must return a fresh stream
// (a fresh server) as a unique_ptr, so probes do not inherit each other's
// backlog; `on_rung(source, stats)` sees each probe before its source is
// destroyed.
template <class MakeSource, class OnRung>
LadderResult search_ladder(const LadderConfig& config,
                           MakeSource&& make_source, OnRung&& on_rung);

bool rung_passes(const PhaseStats& stats, double limit_ms);
std::vector<double> ladder_rungs(const LadderConfig& config);

template <class MakeSource, class OnRung>
LadderResult search_ladder(const LadderConfig& config,
                           MakeSource&& make_source, OnRung&& on_rung) {
  const std::vector<double> rungs = ladder_rungs(config);
  const long last = static_cast<long>(rungs.size()) - 1;
  long at = 0;
  while (at < last && rungs[static_cast<std::size_t>(at)] < config.start) {
    ++at;
  }
  bool climbing = true;
  std::vector<double> counted;
  std::vector<double> climb_passes;
  LadderResult result;
  for (int probe = 0; probe < config.probes; ++probe) {
    PhaseConfig phase;
    phase.name = "rung";
    phase.rate = rungs[static_cast<std::size_t>(at)];
    phase.seconds = config.rung_seconds;
    phase.warmup_seconds = config.warmup_seconds;
    // Healthy outstanding work is rate * latency; twenty limits' worth
    // means the backlog is growing without bound.
    phase.abort_outstanding = static_cast<std::size_t>(
        std::max(256.0, phase.rate * config.limit_ms * 20.0 / 1000.0));
    auto source = make_source();
    const PhaseStats stats = run_phase(*source, phase, nullptr);
    const bool pass = rung_passes(stats, config.limit_ms);
    on_rung(*source, stats);
    if (pass) {
      (climbing ? climb_passes : counted).push_back(stats.completed_qps());
      if (!climbing) {
        result.passed_rungs.push_back(phase.rate);
      }
      at = std::min(last, at + (climbing ? 4 : 1));
    } else {
      climbing = false;
      at = std::max(0L, at - 2);
    }
  }
  if (counted.empty() && !climb_passes.empty()) {
    counted.push_back(*std::max_element(climb_passes.begin(),
                                        climb_passes.end()));
  }
  result.max_ok_qps = median(counted);
  return result;
}

}  // namespace perfbench
