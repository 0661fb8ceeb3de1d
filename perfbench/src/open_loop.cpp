#include "open_loop.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

namespace perfbench {

namespace {

// Futures polled per sweep, oldest first. Completions further out are
// picked up once the window slides; a bounded window keeps a sweep cheap
// when a backlog builds.
constexpr std::size_t kWindow = 64;

struct Slot {
  std::future<memcom::AsyncResult> future;
  Clock::time_point submit_start;
  Clock::time_point submit_end;
  double latency_ms = 0.0;
  double wait_ms = 0.0;
  double service_ms = 0.0;
  double resolve_ms = 0.0;
  double batch = 0.0;
  bool ok = false;
  bool done = false;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

PhaseStats run_phase(LoadSource& source, const PhaseConfig& config,
                     Tracer* tracer) {
  PhaseStats stats;
  stats.name = config.name;
  stats.rate = config.rate;
  const std::size_t n = static_cast<std::size_t>(
      std::max(1.0, std::round(config.rate * config.seconds)));
  const std::chrono::duration<double> period(1.0 / config.rate);
  const auto period_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(period);
  std::vector<Slot> slots(n);
  const Clock::time_point t0 = Clock::now() + std::chrono::microseconds(200);
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    period * static_cast<double>(i));
  };
  const bool tracing = tracer != nullptr && tracer->enabled();

  std::size_t released = 0;
  std::size_t front = 0;
  std::size_t done_count = 0;
  bool stop = false;
  Clock::time_point last_seen = t0;

  // The first few failures are described on stderr; all are counted.
  std::uint64_t described = 0;
  const auto describe = [&](std::size_t k, const std::string& why) {
    if (described++ < 5) {
      std::cerr << "perfbench: " << config.name << " request " << k
                << " failed: " << why << "\n";
    }
  };
  const auto harvest = [&](std::size_t k) {
    Slot& slot = slots[k];
    const Clock::time_point seen = Clock::now();
    bool ok = false;
    try {
      memcom::AsyncResult result = slot.future.get();
      if (result.status != memcom::RequestStatus::kOk) {
        describe(k, "shed");
      } else if (!source.check(k, result)) {
        describe(k, "output mismatch");
      } else {
        ok = true;
      }
      slot.wait_ms = result.queue_wait_ms;
      slot.service_ms = result.service_ms;
      slot.batch = static_cast<double>(result.batch);
      slot.resolve_ms =
          std::max(0.0, ms_between(slot.submit_start, seen) - result.total_ms);
      if (tracing) {
        const Clock::time_point d = due(k);
        const std::uint64_t id = tracer->record("request", 0, d, seen);
        tracer->record("driver.lag", id, d, slot.submit_start);
        tracer->record("serving.submit", id, slot.submit_start,
                       slot.submit_end);
        const auto at = [&](double ms) {
          return slot.submit_start +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(ms));
        };
        tracer->record("serving.queue_wait", id, slot.submit_start,
                       at(result.queue_wait_ms));
        tracer->record("serving.service", id, at(result.queue_wait_ms),
                       at(result.total_ms));
        tracer->record("serving.resolve", id, at(result.total_ms), seen);
      }
    } catch (const std::exception& e) {
      describe(k, std::string("threw: ") + e.what());
    }
    slot.ok = ok;
    slot.latency_ms = ms_between(due(k), seen);
    if (!ok) {
      ++stats.failed;
    }
    slot.future = {};
    slot.done = true;
    ++done_count;
    last_seen = std::max(last_seen, seen);
  };

  while (true) {
    const Clock::time_point now = Clock::now();
    if (!stop && released < n && now >= due(released)) {
      if (config.abort_outstanding > 0 &&
          released - done_count > config.abort_outstanding) {
        stop = true;
        stats.aborted = true;
        continue;
      }
      source.before_submit(released);
      Slot& slot = slots[released];
      slot.submit_start = Clock::now();
      slot.future = source.submit(released);
      slot.submit_end = Clock::now();
      ++released;
      continue;
    }
    if ((stop || released == n) && done_count == released) {
      break;
    }
    const std::size_t end = std::min(released, front + kWindow);
    for (std::size_t k = front; k < end; ++k) {
      if (!slots[k].done && slots[k].future.wait_for(std::chrono::seconds(0)) ==
                                std::future_status::ready) {
        harvest(k);
      }
    }
    while (front < released && slots[front].done) {
      ++front;
    }
  }

  stats.attempted = released;
  stats.elapsed_s =
      std::chrono::duration<double>(last_seen - t0).count();
  const double warmup = config.warmup_seconds;
  std::vector<double> measured;
  for (std::size_t k = 0; k < released; ++k) {
    const Slot& slot = slots[k];
    const double lag_ms = ms_between(due(k), slot.submit_start);
    if (lag_ms * 1e6 > static_cast<double>(period_ns.count())) {
      ++stats.late;
    }
    // Warm-up requests, and failed ones (they count in `failed` and sink a
    // ladder rung), stay out of the latency samples.
    if (std::chrono::duration<double>(due(k) - t0).count() < warmup ||
        !slot.ok) {
      continue;
    }
    stats.latency_ms.push_back(slot.latency_ms);
    stats.lag_ms.push_back(lag_ms);
    stats.submit_us.push_back(us_between(slot.submit_start, slot.submit_end));
    stats.wait_ms.push_back(slot.wait_ms);
    stats.service_ms.push_back(slot.service_ms);
    stats.resolve_ms.push_back(slot.resolve_ms);
    stats.batch.push_back(slot.batch);
  }
  const std::size_t quarter = stats.latency_ms.size() / 4;
  stats.tail_latency_ms.assign(stats.latency_ms.end() - quarter,
                               stats.latency_ms.end());
  return stats;
}

void print_phase(const PhaseStats& s) {
  std::cout << "phase " << s.name << " rate=" << s.rate
            << " attempted=" << s.attempted << " failed=" << s.failed
            << " late=" << s.late << (s.aborted ? " aborted" : "")
            << " completed_qps=" << s.completed_qps() << "\n";
  print_latency("  latency", s.latency_ms);
}

bool rung_passes(const PhaseStats& stats, double limit_ms) {
  // The p95 limit is taken per segment (median over segments) so one short
  // stall does not sink a rung; a growing backlog raises the latency of
  // the whole last quarter, which its median catches.
  return !stats.aborted && stats.failed == 0 && !stats.latency_ms.empty() &&
         segmented_percentile(stats.latency_ms, 95.0) <= limit_ms &&
         percentile(stats.tail_latency_ms, 50.0) <= limit_ms;
}

std::vector<double> ladder_rungs(const LadderConfig& config) {
  std::vector<double> rungs;
  for (double r = config.bottom; r <= config.top * 1.0001; r *= config.step) {
    rungs.push_back(r);
  }
  return rungs;
}

}  // namespace perfbench
