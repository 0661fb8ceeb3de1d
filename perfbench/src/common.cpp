#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

#include "core/check.h"
#include "core/sampling.h"

namespace perfbench {

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  const std::size_t n = samples.size();
  // Nearest rank: ceil(p/100 * n), clamped to [1, n].
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double segmented_percentile(const std::vector<double>& samples, double p) {
  constexpr std::size_t kSegments = 8;
  std::vector<double> per_segment;
  const std::size_t n = samples.size();
  for (std::size_t s = 0; s < kSegments; ++s) {
    const std::size_t lo = n * s / kSegments;
    const std::size_t hi = n * (s + 1) / kSegments;
    if (hi > lo) {
      per_segment.push_back(percentile(
          std::vector<double>(samples.begin() + static_cast<long>(lo),
                              samples.begin() + static_cast<long>(hi)),
          p));
    }
  }
  return median(per_segment);
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) {
    spans_.reserve(1 << 20);
  }
}

std::uint64_t Tracer::record(const char* name, std::uint64_t parent,
                             Clock::time_point start, Clock::time_point end) {
  if (!enabled_) {
    return 0;
  }
  spans_.push_back({name, parent, us_between(origin_, start),
                    us_between(origin_, end)});
  return spans_.size();  // ids are 1-based positions
}

std::vector<std::pair<std::string, double>> Tracer::self_ms_by_name() const {
  // Children of each span, as intervals.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent > 0 && s.parent <= spans_.size()) {
      children[s.parent - 1].push_back({s.start_us, s.end_us});
    }
  }
  std::map<std::string, double> self_us;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = s.start_us;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, cursor);
      const double hi = std::min(b, s.end_us);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self_us[s.name] += std::max(0.0, (s.end_us - s.start_us) - covered);
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, us] : self_us) {
    out.push_back({name, us / 1000.0});
  }
  return out;
}

void Tracer::write(const std::string& path, std::size_t max_spans) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\": [\n";
  const std::size_t n = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, \"ts\": " << s.start_us
        << ", \"dur\": " << (s.end_us - s.start_us) << ", \"args\": {\"id\": "
        << (i + 1) << ", \"parent\": " << s.parent << "}}"
        << (i + 1 < n ? ",\n" : "\n");
  }
  out << "], \"spans_recorded\": " << spans_.size()
      << ", \"spans_written\": " << n << "}\n";
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  return memcom::splitmix64(memcom::splitmix64(seed ^ (stream * 0x9E37ULL)) ^
                            i);
}

void fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

std::vector<std::pair<std::uint64_t, std::int32_t>> zipf_session_stream(
    std::uint64_t seed, std::size_t count, std::int64_t sessions,
    std::int64_t vocab) {
  memcom::Rng rng(mix(seed, 700, 0));
  const memcom::AliasSampler session_pick(memcom::zipf_weights(sessions, 1.0));
  const memcom::AliasSampler item_pick(memcom::zipf_weights(vocab - 1, 0.9));
  std::vector<std::pair<std::uint64_t, std::int32_t>> events(count);
  for (auto& [session, item] : events) {
    session = static_cast<std::uint64_t>(session_pick.sample(rng)) + 1;
    item = static_cast<std::int32_t>(item_pick.sample(rng) + 1);
  }
  return events;
}

std::vector<std::vector<std::int32_t>> zipf_histories(std::uint64_t seed,
                                                      std::size_t count,
                                                      std::int64_t length,
                                                      std::int64_t vocab) {
  memcom::Rng rng(mix(seed, 701, 0));
  const memcom::AliasSampler id_pick(memcom::zipf_weights(vocab - 1, 0.9));
  std::vector<std::vector<std::int32_t>> histories(count);
  for (auto& history : histories) {
    history.assign(static_cast<std::size_t>(length), 0);
    const std::int64_t real =
        std::min<std::int64_t>(length, 16 + rng.uniform_index(length - 15));
    for (std::int64_t t = 0; t < real; ++t) {
      history[static_cast<std::size_t>(t)] =
          static_cast<std::int32_t>(id_pick.sample(rng) + 1);
    }
  }
  return histories;
}

void check_ids(const std::vector<std::vector<std::int32_t>>& histories,
               std::int64_t vocab, const std::string& what) {
  for (const auto& history : histories) {
    for (const std::int32_t id : history) {
      memcom::check(id >= 0 && id < vocab,
                    "perfbench: " + what + " input id " + std::to_string(id) +
                        " outside the model vocabulary " +
                        std::to_string(vocab));
    }
  }
}

void print_latency(const std::string& label, std::vector<double> samples_ms) {
  std::cout << label << ": n=" << samples_ms.size()
            << " p50=" << percentile(samples_ms, 50.0)
            << " p95=" << percentile(samples_ms, 95.0)
            << " p99=" << percentile(samples_ms, 99.0) << " ms\n";
}

}  // namespace perfbench
