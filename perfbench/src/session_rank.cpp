// session_rank: open-loop next-item ranking (submit_next_item, top-10) over
// a 50k x 64 i8 compressed catalog with a v4 IVF index of 256 clusters.
//
// Why: the catalog scan dominates (an exact scan is ~0.8 ms per request).
// 7 of 8 requests probe 8 clusters and 1 of 8 scans the whole catalog, so
// p50 follows the pruned scan and p95 the exact one: a change that helps
// one scan and costs the other shows. Sessions have Zipf popularity and the
// store holds fewer sessions than the stream touches, so evictions happen.
#include <algorithm>
#include <iostream>
#include <memory>

#include "open_loop.h"
#include "probes.h"
#include "ondevice/device_profile.h"
#include "ondevice/registry.h"
#include "ondevice/serving.h"
#include "repro/model.h"

namespace perfbench {

using namespace memcom;

namespace {

constexpr Index kItems = 50000;  // catalog size = input vocabulary
constexpr Index kEmbed = 64;
constexpr Index kHash = kItems / 16;
constexpr Index kClusters = 256;
constexpr Index kNprobe = 8;
constexpr Index kTopK = 10;
constexpr std::int64_t kSessions = 20000;   // distinct sessions in the stream
constexpr Index kSessionCapacity = 4096;    // live sessions the store keeps
constexpr Index kSessionHistory = 32;
constexpr double kLightQps = 800.0;
constexpr double kHeavyQps = 1600.0;  // ~60% of the knee: 2k sat on it
constexpr double kLadderTopQps = 6000.0;
constexpr double kLimitMs = 5.0;
// Pruned results must keep at least this recall@10 against the exact scan
// (0.67-0.70 over the seeds tried when the benchmark was written); below
// it the probe is choosing the wrong clusters and the run is not correct.
constexpr double kRecallFloor = 0.5;
// Set-ups per run, each ~1.5 s (k-means over the catalog); the median is
// reported. One runs before the phases, one between the ladder and the
// second halves, one at the end: a slow spell of the machine lasts seconds
// and would otherwise set the whole figure.
// The models are part of the workload and do not change with --seed; the
// seed varies the inputs (histories, request mix, session stream), so the
// spread between seeds is the serving path's, not a different model's.
constexpr std::uint64_t kModelSeed = 17;
const char* const kModelId = "rank_i8";

AsyncServerConfig server_config() {
  AsyncServerConfig config;
  config.threads = 2;
  config.shards = 2;
  config.max_batch = 8;
  config.max_delay_us = 200.0;
  config.queue_capacity = 8192;
  config.cache_budget_bytes = 0;  // hot_row_cache off: tables fit in cache
  config.session_capacity = kSessionCapacity;
  config.session_history = kSessionHistory;
  return config;
}

// Exports the ranking model with a clustered output catalog: untrained
// weights have no cluster structure (pruned recall@10 ~0.17 at nprobe 8),
// so each item column is drawn around one of kClusters seeded centres.
std::string export_model(const std::string& dir) {
  ModelConfig config;
  config.arch = ModelArch::kRanking;
  config.output_vocab = kItems;
  config.embedding = {TechniqueKind::kMemcom, kItems, kEmbed, kHash};
  config.seed = mix(kModelSeed, 50, 0);
  RecModel model(config);
  Rng rng(mix(kModelSeed, 51, 0));
  std::vector<float> centres(static_cast<std::size_t>(kClusters * kEmbed));
  for (float& c : centres) {
    c = rng.normal();
  }
  for (Param* param : model.params()) {
    if (param->name == "out.weight") {  // [kEmbed, kItems]
      float* w = param->value.data();
      for (Index j = 0; j < kItems; ++j) {
        const float* centre =
            centres.data() + rng.uniform_index(kClusters) * kEmbed;
        for (Index d = 0; d < kEmbed; ++d) {
          w[d * kItems + j] = centre[d] + 0.2f * rng.normal();
        }
      }
    }
  }
  const std::string path = dir + "/rank_i8_v4.mcm";
  model.export_mcm(path, DType::kI8, "", 1, 0, /*emit_plan=*/true,
                   /*emit_index=*/true, kClusters);
  return path;
}

struct Stack {
  explicit Stack(const std::string& path) {
    registry.load(kModelId, path);
    server = std::make_unique<AsyncServer>(registry, kModelId,
                                           tflite_profile(), server_config());
  }
  ModelRegistry registry;
  std::unique_ptr<AsyncServer> server;  // destroyed (drained) first
};

struct Event {
  std::uint64_t session = 0;
  std::int32_t item = 0;
  Index nprobe = 0;  // 0 = exact scan
};

struct Ranked {
  bool ok = false;
  std::vector<Index> ids;
  std::vector<float> scores;
};

class SessionSource : public LoadSource {
 public:
  SessionSource(const std::string& path, const std::vector<Event>& events)
      : stack_(path), events_(events) {}

  std::future<AsyncResult> submit(std::size_t i) override {
    const Event& e = events_[i];
    return stack_.server->submit_next_item(kModelId, e.session, e.item, kTopK,
                                           -1.0, e.nprobe);
  }

  bool check(std::size_t i, AsyncResult& result) override {
    if (results_.size() <= i) {
      results_.resize(i + 1);
    }
    Ranked& r = results_[i];
    r.ok = result.top_ids.size() == static_cast<std::size_t>(kTopK) &&
           result.top_scores.size() == result.top_ids.size();
    for (const Index id : result.top_ids) {
      r.ok = r.ok && id >= 0 && id < kItems;
    }
    r.ids = std::move(result.top_ids);
    r.scores = std::move(result.top_scores);
    return r.ok;
  }

  AsyncServer& server() { return *stack_.server; }
  std::vector<Ranked>& results() { return results_; }

 private:
  Stack stack_;
  const std::vector<Event>& events_;
  std::vector<Ranked> results_;
};


}  // namespace

Outcome run_session_rank(const Options& options, Tracer& tracer) {
  Outcome out;
  std::vector<double> setup_s;
  std::string path;
  // Export -> load -> server ready; the export is identical each time.
  const auto set_up = [&] {
    const std::string dir = options.work_dir + "/models";
    fresh_dir(dir);
    const Clock::time_point t0 = Clock::now();
    path = export_model(dir);
    Stack stack(path);
    stack.server->submit_next_item(kModelId, 0, 1, kTopK).get();
    setup_s.push_back(us_between(t0, Clock::now()) / 1e6);
  };
  set_up();

  // Event stream from the serving model's own vocabulary.
  std::vector<Event> events;
  {
    Stack stack(path);
    const Index vocab = stack.registry.acquire(kModelId)->vocab();
    // Enough events for the longest phase (or rung) at any --seconds, and
    // for the probes' histories.
    const std::size_t count = static_cast<std::size_t>(
        (kHeavyQps + kLadderTopQps) * options.seconds) + 16384;
    const auto stream =
        zipf_session_stream(options.seed, count, kSessions, vocab);
    std::vector<std::vector<std::int32_t>> items(1);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Index nprobe = mix(options.seed, 40, i) % 8 == 0 ? 0 : kNprobe;
      events.push_back({stream[i].first, stream[i].second, nprobe});
      items[0].push_back(stream[i].second);
    }
    check_ids(items, vocab, kModelId);
  }

  const double S = options.seconds;
  std::vector<std::vector<Ranked>> phase_results;
  const auto keep = [&](SessionSource& source, const PhaseStats& stats) {
    out.attempted += stats.attempted;
    out.failed += stats.failed;
    phase_results.push_back(std::move(source.results()));
    print_phase(stats);
  };
  const auto run = [&](const std::string& name, double rate, double seconds,
                       bool traced) {
    auto source = std::make_unique<SessionSource>(path, events);
    PhaseConfig phase;
    phase.name = name;
    phase.rate = rate;
    phase.seconds = seconds;
    phase.warmup_seconds = 0.1 * seconds;
    PhaseStats stats = run_phase(*source, phase, traced ? &tracer : nullptr);
    std::cout << "  session evictions " << source->server().evicted_sessions()
              << "\n";
    keep(*source, stats);
    return std::make_pair(std::move(stats), std::move(source));
  };

  PhaseStats light;
  PhaseStats heavy;
  double rss_mb = 0.0;
  LadderResult found;
  // Unmeasured warm-up at the heavy rate: the first load after an idle
  // spell runs slow on a virtual machine.
  run("warm", kHeavyQps, 0.05 * S, false);
  if (!options.trace) {
    // Each fixed rate runs in two halves, before and after the ladder, so a
    // slow spell of the machine covers at most half of its segments.
    light = run("light-a", kLightQps, 0.125 * S, false).first;
    heavy = run("heavy-a", kHeavyQps, 0.125 * S, false).first;
    // Footprint of set-up plus the fixed-rate phases; the overload rungs
    // below would add a backlog whose size depends on where the knee lies.
    rss_mb = peak_rss_mb();
    LadderConfig ladder;
    ladder.bottom = kLightQps;
    ladder.top = kLadderTopQps;
    ladder.limit_ms = kLimitMs;
    ladder.rung_seconds = 0.025 * S;
    ladder.start = kHeavyQps;
    ladder.warmup_seconds = 0.1 * ladder.rung_seconds;
    found = search_ladder(
        ladder, [&] { return std::make_unique<SessionSource>(path, events); },
        [&](SessionSource& source, const PhaseStats& stats) {
          keep(source, stats);
        });
    std::cout << "ladder: counted passes at";
    for (const double rung : found.passed_rungs) {
      std::cout << " " << rung;
    }
    std::cout << " qps (limit p95 <= " << kLimitMs << " ms)\n";
    set_up();
    append_latencies(light, run("light-b", kLightQps, 0.125 * S, false).first);
    append_latencies(heavy, run("heavy-b", kHeavyQps, 0.125 * S, false).first);
  } else {
    const PhaseStats plain =
        run("light-untraced", kLightQps, 0.12 * S, false).first;
    const PhaseStats traced =
        run("light-traced", kLightQps, 0.12 * S, true).first;
    out.set("trace.overhead_ms.p50",
            segmented_percentile(traced.latency_ms, 50.0) -
                segmented_percentile(plain.latency_ms, 50.0),
            "ms");
    auto [stats, source] = run("heavy-traced", kHeavyQps, 0.2 * S, true);
    add_serving_metrics(stats, source->server().steal_count(),
                        source->server().queue_high_water(), out);
  }

  // --- output check: one-request-at-a-time replay, every event exact ---
  // An identically configured server replays the stream prefix the phases
  // used, waiting for each request before the next. Every phase starts from
  // an empty session store, so event i sees the same history in every phase
  // and in the replay. Exact rows must match the replay's top-10 bit for
  // bit; every score a pruned row returns must equal the replay's exact
  // logit for that item, and pruned ids are scored against the exact top-10
  // for recall@10.
  std::size_t used = 0;
  for (const auto& results : phase_results) {
    used = std::max(used, results.size());
  }
  std::uint64_t mismatched = 0;
  double recall_hits = 0.0;
  std::uint64_t recall_rows = 0;
  {
    Stack replay(path);
    for (std::size_t i = 0; i < used; ++i) {
      const Event& e = events[i];
      AsyncResult ref =
          replay.server->submit_next_item(kModelId, e.session, e.item, kTopK,
                                          -1.0, 0)
              .get();
      if (options.corrupt_reference && i % 5 == 0) {
        ref.top_scores[0] += 1.0f;
        for (float& logit : ref.logits) {
          logit += 1.0f;
        }
      }
      bool counted_recall = false;
      for (auto& results : phase_results) {
        if (i >= results.size() || !results[i].ok) {
          continue;  // not run in this phase, or already counted as failed
        }
        const Ranked& got = results[i];
        bool match = true;
        if (e.nprobe == 0) {
          match = got.ids == ref.top_ids;
          for (std::size_t j = 0; match && j < got.scores.size(); ++j) {
            match = same_bits(&got.scores[j], &ref.top_scores[j], 1);
          }
        } else {
          for (std::size_t j = 0; match && j < got.ids.size(); ++j) {
            match = same_bits(
                &got.scores[j],
                &ref.logits[static_cast<std::size_t>(got.ids[j])], 1);
          }
          if (!counted_recall) {
            for (const Index id : got.ids) {
              recall_hits += std::count(ref.top_ids.begin(), ref.top_ids.end(),
                                        id);
            }
            ++recall_rows;
            counted_recall = true;
          }
        }
        if (!match) {
          ++mismatched;
        }
      }
    }
  }
  out.failed += mismatched;
  const double recall =
      recall_rows > 0 ? recall_hits / (static_cast<double>(recall_rows) * kTopK)
                      : 0.0;
  out.correct = out.correct && recall >= kRecallFloor;
  std::cout << "replay: " << used << " events, " << mismatched
            << " mismatched results; recall_at_10 " << recall << " over "
            << recall_rows << " pruned requests (nprobe " << kNprobe << " of "
            << kClusters << ")\n";

  if (!options.trace) {
    set_up();
    out.set("light.p50_ms", segmented_percentile(light.latency_ms, 50.0), "ms");
    out.set("light.p95_ms", segmented_percentile(light.latency_ms, 95.0), "ms");
    out.set("heavy.p50_ms", segmented_percentile(heavy.latency_ms, 50.0), "ms");
    out.set("heavy.p95_ms", segmented_percentile(heavy.latency_ms, 95.0), "ms");
    out.set("max_ok_qps", found.max_ok_qps, "1/s");
    out.set("setup_s", median(setup_s), "s");
    out.set("peak_rss_mb", rss_mb, "MB");
    return out;
  }

  ProbeInputs probe;
  probe.forward_path = path;
  probe.rank_path = path;
  probe.swap_paths.assign(6, path);  // legacy identity: swaps onto itself
  for (std::size_t h = 0; h < 256; ++h) {
    std::vector<std::int32_t> history;
    for (std::size_t t = 0; t < static_cast<std::size_t>(kSessionHistory); ++t) {
      history.push_back(events[h * kSessionHistory + t].item);
    }
    probe.histories.push_back(std::move(history));
  }
  for (const Event& e : events) {
    probe.session_events.push_back({e.session, e.item});
  }
  probe.session_capacity = kSessionCapacity;
  probe.session_history = kSessionHistory;
  probe.nprobe = kNprobe;
  run_layer_probes(probe, options, tracer, out);
  return out;
}

}  // namespace perfbench
