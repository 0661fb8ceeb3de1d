// classify_mt: two classification tenants behind one AsyncServer under
// open-loop load, with hot swaps of one tenant while traffic runs.
//
// Why: serving overhead (admission, batch formation, dispatch, resolve)
// dominates here — a batch of 8 spends ~0.12 ms in service and the catalog
// (500 outputs) is negligible, so this is the workload where the scheduler
// and the registry move the end-to-end numbers.
#include <iostream>
#include <memory>

#include "open_loop.h"
#include "probes.h"
#include "ondevice/device_profile.h"
#include "ondevice/engine.h"
#include "ondevice/registry.h"
#include "ondevice/serving.h"
#include "repro/model.h"

namespace perfbench {

using namespace memcom;

namespace {

constexpr Index kVocab = 50000;
constexpr Index kEmbed = 64;
constexpr Index kHash = kVocab / 16;
constexpr Index kHistory = 64;
constexpr Index kOutputs = 500;
constexpr std::size_t kPool = 4096;         // distinct histories per tenant
constexpr std::size_t kSwapEvery = 16384;   // requests between qr swaps
constexpr std::size_t kSwapFiles = 10;      // qr versions 1..10
constexpr double kLightQps = 20000.0;
constexpr double kHeavyQps = 45000.0;
constexpr double kLimitMs = 1.0;
// Set-ups per run, each ~20 ms; the median is reported. They are spread
// over the run (a third before the phases, a third between the ladder and
// the second halves, a third at the end): a slow spell of the machine lasts
// seconds and would otherwise set the whole figure.
constexpr int kSetupsPerBlock = 3;
// The models are part of the workload and do not change with --seed; the
// seed varies the inputs (histories, request mix, session stream), so the
// spread between seeds is the serving path's, not a different model's.
constexpr std::uint64_t kModelSeed = 17;
const char* const kMemcomId = "memcom_i8";
const char* const kQrId = "qr_f32";

AsyncServerConfig server_config() {
  AsyncServerConfig config;
  config.threads = 2;
  config.shards = 2;
  config.max_batch = 8;
  config.max_delay_us = 200.0;
  config.queue_capacity = 16384;
  config.cache_budget_bytes = 0;  // hot_row_cache off: tables fit in cache
  return config;
}

struct Files {
  std::string memcom;
  std::vector<std::string> qr;  // identical weights, versions 1..kSwapFiles
};

Files export_tenants(const std::string& dir) {
  Files files;
  ModelConfig config;
  config.arch = ModelArch::kClassification;
  config.output_vocab = kOutputs;
  config.embedding = {TechniqueKind::kMemcom, kVocab, kEmbed, kHash};
  config.seed = mix(kModelSeed, 10, 0);
  RecModel memcom(config);
  files.memcom = dir + "/memcom_i8.mcm";
  memcom.export_mcm(files.memcom, DType::kI8, "tenant_memcom", 1, 0,
                    /*emit_plan=*/true);
  config.embedding = {TechniqueKind::kQrMult, kVocab, kEmbed, kHash};
  config.seed = mix(kModelSeed, 11, 0);
  RecModel qr(config);
  for (std::size_t v = 1; v <= kSwapFiles; ++v) {
    files.qr.push_back(dir + "/qr_f32_v" + std::to_string(v) + ".mcm");
    qr.export_mcm(files.qr.back(), DType::kF32, "tenant_qr", v, 0,
                  /*emit_plan=*/true);
  }
  return files;
}

// Registry + server, fresh per phase so phases do not inherit backlog or
// registry versions.
struct Stack {
  explicit Stack(const Files& files) {
    registry.load(kMemcomId, files.memcom);
    registry.load(kQrId, files.qr.front());
    server = std::make_unique<AsyncServer>(registry, kMemcomId,
                                           tflite_profile(), server_config());
  }
  ModelRegistry registry;
  std::unique_ptr<AsyncServer> server;  // destroyed (drained) first
};

struct Inputs {
  std::vector<std::vector<std::int32_t>> pool[2];
  std::vector<float> reference[2];  // [kPool * kOutputs] per tenant
};

class ClassifySource : public LoadSource {
 public:
  ClassifySource(const Files& files, const Inputs& inputs, std::uint64_t seed,
                 std::vector<double>* swap_ms)
      : stack_(files), files_(files), inputs_(inputs), seed_(seed),
        swap_ms_(swap_ms) {}

  void before_submit(std::size_t i) override {
    if (i > 0 && i % kSwapEvery == 0 && next_version_ < files_.qr.size()) {
      const Clock::time_point t0 = Clock::now();
      stack_.registry.swap(kQrId, files_.qr[next_version_++]);
      if (swap_ms_ != nullptr) {
        swap_ms_->push_back(us_between(t0, Clock::now()) / 1000.0);
      }
    }
  }

  std::future<AsyncResult> submit(std::size_t i) override {
    const auto [tenant, slot] = pick(i);
    return stack_.server->submit(tenant == 0 ? kMemcomId : kQrId,
                                 inputs_.pool[tenant][slot]);
  }

  bool check(std::size_t i, AsyncResult& result) override {
    const auto [tenant, slot] = pick(i);
    if (result.model_id != (tenant == 0 ? kMemcomId : kQrId) ||
        result.logits.size() != static_cast<std::size_t>(kOutputs)) {
      return false;
    }
    const float* expected =
        inputs_.reference[tenant].data() + slot * static_cast<std::size_t>(kOutputs);
    return same_bits(result.logits.data(), expected,
                     static_cast<std::size_t>(kOutputs));
  }

  AsyncServer& server() { return *stack_.server; }

 private:
  // 2:1 memcom:qr mix, uniform over each tenant's history pool.
  std::pair<int, std::size_t> pick(std::size_t i) const {
    const std::uint64_t h = mix(seed_, 20, i);
    return {h % 3 == 2 ? 1 : 0, static_cast<std::size_t>((h >> 8) % kPool)};
  }

  Stack stack_;
  const Files& files_;
  const Inputs& inputs_;
  std::uint64_t seed_;
  std::vector<double>* swap_ms_;
  std::size_t next_version_ = 1;
};


}  // namespace

Outcome run_classify_mt(const Options& options, Tracer& tracer) {
  Outcome out;
  // --- set-up: export -> load -> server ready (identical files each time) ---
  std::vector<double> setup_s;
  Files files;
  const auto set_up = [&] {
    for (int k = 0; k < kSetupsPerBlock; ++k) {
      const std::string dir = options.work_dir + "/models";
      fresh_dir(dir);
      const Clock::time_point t0 = Clock::now();
      files = export_tenants(dir);
      Stack stack(files);
      stack.server->submit(kMemcomId, std::vector<std::int32_t>{1}).get();
      setup_s.push_back(us_between(t0, Clock::now()) / 1e6);
    }
  };
  set_up();

  // --- inputs from the serving models' own vocabularies + references ---
  Inputs inputs;
  {
    Stack stack(files);
    const char* ids[2] = {kMemcomId, kQrId};
    const std::string paths[2] = {files.memcom, files.qr.front()};
    for (int t = 0; t < 2; ++t) {
      const Index vocab = stack.registry.acquire(ids[t])->vocab();
      inputs.pool[t] =
          zipf_histories(mix(options.seed, 30, t), kPool, kHistory, vocab);
      check_ids(inputs.pool[t], vocab, ids[t]);
      // Reference: sequential InferenceEngine::run over its own mapping.
      const MmapModel mapped(paths[t]);
      InferenceEngine engine(mapped, tflite_profile());
      inputs.reference[t].reserve(kPool * kOutputs);
      for (std::size_t p = 0; p < kPool; ++p) {
        const Tensor logits = engine.run(inputs.pool[t][p]).logits;
        inputs.reference[t].insert(inputs.reference[t].end(), logits.data(),
                                   logits.data() + logits.numel());
      }
      if (options.corrupt_reference) {
        for (std::size_t p = 0; p < kPool; p += 5) {
          inputs.reference[t][p * kOutputs] += 1.0f;
        }
      }
    }
  }

  const double S = options.seconds;
  std::vector<double> swap_ms;
  const auto run = [&](const std::string& name, double rate, double seconds,
                       bool traced, std::uint64_t* steals = nullptr,
                       std::size_t* high_water = nullptr) {
    ClassifySource source(files, inputs, options.seed, &swap_ms);
    PhaseConfig phase;
    phase.name = name;
    phase.rate = rate;
    phase.seconds = seconds;
    phase.warmup_seconds = 0.1 * seconds;
    PhaseStats stats = run_phase(source, phase, traced ? &tracer : nullptr);
    if (steals != nullptr) {
      *steals = source.server().steal_count();
      *high_water = source.server().queue_high_water();
    }
    out.attempted += stats.attempted;
    out.failed += stats.failed;
    print_phase(stats);
    return stats;
  };

  // Unmeasured warm-up at the heavy rate: the first load after an idle
  // spell runs slow on a virtual machine.
  run("warm", kHeavyQps, 0.05 * S, false);
  if (!options.trace) {
    // Each fixed rate runs in two halves, before and after the ladder, so a
    // slow spell of the machine covers at most half of its segments.
    PhaseStats light = run("light-a", kLightQps, 0.1 * S, false);
    PhaseStats heavy = run("heavy-a", kHeavyQps, 0.1 * S, false);
    // Footprint of set-up plus the fixed-rate phases; the overload rungs
    // below would add a backlog whose size depends on where the knee lies.
    const double rss_mb = peak_rss_mb();
    LadderConfig ladder;
    ladder.bottom = 40000.0;
    ladder.top = 200000.0;
    ladder.limit_ms = kLimitMs;
    ladder.rung_seconds = 0.025 * S;
    ladder.start = kHeavyQps;
    ladder.warmup_seconds = 0.1 * ladder.rung_seconds;
    const LadderResult found = search_ladder(
        ladder,
        [&] {
          return std::make_unique<ClassifySource>(files, inputs, options.seed,
                                                  &swap_ms);
        },
        [&](ClassifySource&, const PhaseStats& rung) {
          out.attempted += rung.attempted;
          out.failed += rung.failed;
          print_phase(rung);
        });
    std::cout << "ladder: counted passes at";
    for (const double rung : found.passed_rungs) {
      std::cout << " " << rung;
    }
    std::cout << " qps (limit p95 <= " << kLimitMs << " ms)\n";
    set_up();
    append_latencies(light, run("light-b", kLightQps, 0.1 * S, false));
    append_latencies(heavy, run("heavy-b", kHeavyQps, 0.1 * S, false));
    set_up();
    out.set("light.p50_ms", segmented_percentile(light.latency_ms, 50.0), "ms");
    out.set("light.p95_ms", segmented_percentile(light.latency_ms, 95.0), "ms");
    out.set("heavy.p50_ms", segmented_percentile(heavy.latency_ms, 50.0), "ms");
    out.set("heavy.p95_ms", segmented_percentile(heavy.latency_ms, 95.0), "ms");
    out.set("max_ok_qps", found.max_ok_qps, "1/s");
    out.set("setup_s", median(setup_s), "s");
    out.set("peak_rss_mb", rss_mb, "MB");
    print_latency("qr hot swaps during traffic", swap_ms);
    return out;
  }

  // --- traced run: same phases with spans, then the layer probes ---
  const PhaseStats plain = run("light-untraced", kLightQps, 0.12 * S, false);
  const PhaseStats traced = run("light-traced", kLightQps, 0.12 * S, true);
  out.set("trace.overhead_ms.p50",
          segmented_percentile(traced.latency_ms, 50.0) -
              segmented_percentile(plain.latency_ms, 50.0),
          "ms");
  std::uint64_t steals = 0;
  std::size_t high_water = 0;
  const PhaseStats heavy =
      run("heavy-traced", kHeavyQps, 0.2 * S, true, &steals, &high_water);
  add_serving_metrics(heavy, steals, high_water, out);

  ProbeInputs probe;
  probe.forward_path = files.memcom;
  probe.rank_path = files.memcom;  // 500-output catalog, index built here
  probe.swap_paths = files.qr;
  probe.histories.assign(inputs.pool[0].begin(), inputs.pool[0].begin() + 256);
  probe.session_events =
      zipf_session_stream(options.seed, 32768, 20000, kVocab);
  probe.session_capacity = 4096;
  probe.session_history = 32;
  run_layer_probes(probe, options, tracer, out);
  print_latency("qr hot swaps during traffic", swap_ms);
  return out;
}

}  // namespace perfbench
