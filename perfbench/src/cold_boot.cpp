// cold_boot: closed loop on one thread, booting a fixed fleet of .mcm files
// over and over: mmap -> adopt-or-compile -> first inference.
//
// Why: the only workload where the format / plan / catalog_index decoders
// dominate and the serving layer does no work. One file boots in
// 0.05-1.3 ms and a single file's boot varies by up to a third between
// runs, so each sample boots a whole sub-fleet. The page cache is warm: an
// app relaunch, not a disk read.
//
// The fleet is split by load path. "light" is the plan-bearing half (v3
// plan, v4 plan + catalog index: the adopt path of a normal relaunch);
// "heavy" is the plan-less half (v1/v2: a full compile, as after an
// upgrade). max_ok_qps is files booted per second over the whole run.
#include <fstream>
#include <iostream>
#include <memory>

#include "open_loop.h"
#include "probes.h"
#include "ondevice/compiled_model.h"
#include "ondevice/device_profile.h"
#include "ondevice/engine.h"
#include "ondevice/execution_context.h"
#include "ondevice/format.h"
#include "ondevice/serving.h"
#include "ondevice/topk.h"
#include "repro/model.h"

namespace perfbench {

using namespace memcom;

namespace {

constexpr Index kVocab = 20000;
constexpr Index kEmbed = 64;
constexpr Index kHistory = 64;
constexpr Index kTopK = 10;
constexpr Index kNprobe = 8;
constexpr std::size_t kVariants = 16;  // first-inference histories per file
// The models are part of the workload and do not change with --seed; the
// seed varies the inputs (histories, request mix, session stream), so the
// spread between seeds is the serving path's, not a different model's.
constexpr std::uint64_t kModelSeed = 17;
// Fleet exports per set-up block; the median over all is reported. Blocks
// run before, between and after the two halves of the loop: a slow spell of
// the machine lasts seconds and would otherwise set the whole figure.
constexpr int kSetupsPerBlock = 2;

struct FileSpec {
  const char* name;
  TechniqueKind kind;
  ModelArch arch;
  Index outputs;  // classes, or catalog items for ranking files
  Index knob;
  DType dtype;
  bool plan;      // v3 plan section
  Index clusters; // > 0: v4 catalog index with this many clusters
};

// Mixed techniques and dtypes; every file kind the loader distinguishes.
const FileSpec kFleet[] = {
    // plan-bearing: adopt path ("light")
    {"memcom_i8_v3", TechniqueKind::kMemcom, ModelArch::kClassification, 500,
     kVocab / 16, DType::kI8, true, 0},
    {"qr_mult_f32_v3", TechniqueKind::kQrMult, ModelArch::kClassification, 500,
     kVocab / 16, DType::kF32, true, 0},
    {"truncate_rare_i4g_v3", TechniqueKind::kTruncateRare,
     ModelArch::kClassification, 500, kVocab / 4, DType::kI4G, true, 0},
    {"full_i8_v3", TechniqueKind::kFull, ModelArch::kClassification, 500, 0,
     DType::kI8, true, 0},
    {"reduce_dim_f32_v3", TechniqueKind::kReduceDim,
     ModelArch::kClassification, 500, 32, DType::kF32, true, 0},
    {"memcom_rank_i8_v4", TechniqueKind::kMemcom, ModelArch::kRanking, 20000,
     kVocab / 16, DType::kI8, true, 128},
    {"qr_concat_rank_f32_v4", TechniqueKind::kQrConcat, ModelArch::kRanking,
     8000, kVocab / 16, DType::kF32, true, 64},
    // plan-less: full compile ("heavy")
    {"memcom_f32_v1", TechniqueKind::kMemcom, ModelArch::kClassification, 500,
     kVocab / 16, DType::kF32, false, 0},
    {"qr_mult_i8_v1", TechniqueKind::kQrMult, ModelArch::kClassification, 500,
     kVocab / 16, DType::kI8, false, 0},
    {"naive_hash_i4g_v2", TechniqueKind::kNaiveHash,
     ModelArch::kClassification, 500, kVocab / 16, DType::kI4G, false, 0},
    {"double_hash_f32_v1", TechniqueKind::kDoubleHash,
     ModelArch::kClassification, 500, kVocab / 16, DType::kF32, false, 0},
    {"factorized_i8_v1", TechniqueKind::kFactorized,
     ModelArch::kClassification, 500, 16, DType::kI8, false, 0},
    {"weinberger_f32_v1", TechniqueKind::kWeinberger,
     ModelArch::kClassification, 500, 2048, DType::kF32, false, 0},
    {"memcom_bias_rank_i4g_v2", TechniqueKind::kMemcomBias,
     ModelArch::kRanking, 5000, kVocab / 16, DType::kI4G, false, 0},
};
constexpr std::size_t kFleetSize = sizeof(kFleet) / sizeof(kFleet[0]);

std::vector<std::string> export_fleet(const std::string& dir) {
  std::vector<std::string> paths;
  for (std::size_t f = 0; f < kFleetSize; ++f) {
    const FileSpec& spec = kFleet[f];
    ModelConfig config;
    config.arch = spec.arch;
    config.output_vocab = spec.outputs;
    config.embedding = {spec.kind, kVocab, kEmbed, spec.knob};
    config.seed = mix(kModelSeed, 60, f);
    RecModel model(config);
    paths.push_back(dir + "/" + spec.name + ".mcm");
    model.export_mcm(paths.back(), spec.dtype, "", 1, 0, spec.plan,
                     spec.clusters > 0, spec.clusters);
  }
  // Warm the page cache: the workload measures a relaunch, not a disk read.
  std::vector<char> buffer(1 << 20);
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()))) {
    }
  }
  return paths;
}

// First inference of one file and its expected outcome.
struct FirstInference {
  std::vector<std::int32_t> history;
  bool ranked = false;
  Index nprobe = 0;
  std::vector<float> logits;  // classification reference
  std::vector<ScoredId> top;  // ranking reference
};

// Expected first inference of `history` on `spec`'s file, from the
// sequential engine over its own mapping.
FirstInference reference(InferenceEngine& engine, const FileSpec& spec,
                         const std::vector<std::int32_t>& history) {
  FirstInference e;
  e.history = history;
  e.ranked = spec.arch == ModelArch::kRanking;
  const Tensor logits = engine.run(history).logits;
  if (!e.ranked) {
    e.logits.assign(logits.data(), logits.data() + logits.numel());
  } else if (spec.clusters == 0) {
    e.top = topk_select(logits.data(), logits.numel(), kTopK);
  } else {
    e.nprobe = kNprobe;
    ExecutionContext context(engine.compiled_ptr(), tflite_profile());
    std::vector<std::vector<ScoredId>> ranked;
    const std::vector<Index> nprobes{kNprobe};
    context.run_batch({history}, kTopK, &ranked, &nprobes);
    e.top = ranked[0];
  }
  return e;
}

// Boots one file; returns whether its first inference matched.
bool boot(const std::string& path, const FirstInference& expect,
          Tracer* tracer) {
  const Clock::time_point t0 = Clock::now();
  const auto mapped = std::make_shared<const MmapModel>(path);
  const Clock::time_point t1 = Clock::now();
  const auto compiled = std::make_shared<const CompiledModel>(mapped);
  const Clock::time_point t2 = Clock::now();
  ExecutionContext context(compiled, tflite_profile());
  bool ok = false;
  if (!expect.ranked) {
    const InferenceView view = context.run_view(expect.history);
    ok = static_cast<std::size_t>(view.dim) == expect.logits.size() &&
         same_bits(view.logits, expect.logits.data(), expect.logits.size());
  } else {
    std::vector<std::vector<ScoredId>> ranked;
    const std::vector<Index> nprobes{expect.nprobe};
    context.run_batch({expect.history}, kTopK, &ranked, &nprobes);
    ok = ranked.size() == 1 && ranked[0].size() == expect.top.size();
    for (std::size_t j = 0; ok && j < expect.top.size(); ++j) {
      ok = ranked[0][j].id == expect.top[j].id &&
           same_bits(&ranked[0][j].score, &expect.top[j].score, 1);
    }
  }
  if (tracer != nullptr) {
    const Clock::time_point t3 = Clock::now();
    const std::uint64_t id = tracer->record("boot", 0, t0, t3);
    tracer->record("format.open", id, t0, t1);
    tracer->record("plan.adopt_or_compile", id, t1, t2);
    tracer->record("forward.first_infer", id, t2, t3);
  }
  return ok;
}

// Open-loop traffic for the traced run's serving probe: one fleet model
// behind a 2-worker, 2-shard AsyncServer.
class FleetSource : public LoadSource {
 public:
  FleetSource(const MmapModel& model,
              const std::vector<std::vector<std::int32_t>>& pool,
              const std::vector<std::vector<float>>& reference)
      : pool_(pool), reference_(reference) {
    AsyncServerConfig config;
    config.threads = 2;
    config.shards = 2;
    config.max_batch = 8;
    config.max_delay_us = 200.0;
    config.queue_capacity = 16384;
    server_ = std::make_unique<AsyncServer>(model, tflite_profile(), config);
  }
  std::future<AsyncResult> submit(std::size_t i) override {
    return server_->submit(pool_[i % pool_.size()]);
  }
  bool check(std::size_t i, AsyncResult& result) override {
    const std::vector<float>& want = reference_[i % pool_.size()];
    return result.logits.size() == want.size() &&
           same_bits(result.logits.data(), want.data(), want.size());
  }
  AsyncServer& server() { return *server_; }

 private:
  const std::vector<std::vector<std::int32_t>>& pool_;
  const std::vector<std::vector<float>>& reference_;
  std::unique_ptr<AsyncServer> server_;
};

}  // namespace

Outcome run_cold_boot(const Options& options, Tracer& tracer) {
  Outcome out;
  std::vector<double> setup_s;
  std::vector<std::string> paths;
  // Export (identical files each time) + page-cache warm-up.
  const auto set_up = [&] {
    for (int k = 0; k < kSetupsPerBlock; ++k) {
      const std::string dir = options.work_dir + "/models";
      fresh_dir(dir);
      const Clock::time_point t0 = Clock::now();
      paths = export_fleet(dir);
      setup_s.push_back(us_between(t0, Clock::now()) / 1e6);
    }
  };
  set_up();

  // References: each file's first inferences, computed over a separate
  // mapping by the sequential engine (ranked files: exact = run() logits
  // through topk_select; pruned = a reference context's run_batch). Boots
  // rotate through kVariants histories per file, so one history's length
  // does not set a file's cost for the whole run.
  std::vector<std::vector<FirstInference>> expect(kFleetSize);
  for (std::size_t f = 0; f < kFleetSize; ++f) {
    const MmapModel mapped(paths[f]);
    InferenceEngine engine(mapped, tflite_profile());
    const Index vocab = engine.compiled().vocab();
    const auto histories =
        zipf_histories(mix(options.seed, 61, f), kVariants, kHistory, vocab);
    check_ids(histories, vocab, kFleet[f].name);
    for (std::size_t v = 0; v < kVariants; ++v) {
      expect[f].push_back(reference(engine, kFleet[f], histories[v]));
      if (options.corrupt_reference && (f + v) % 3 == 0) {
        FirstInference& e = expect[f].back();
        (e.ranked ? e.top[0].score : e.logits[0]) += 1.0f;
      }
    }
  }

  // Closed loop: light sub-fleet then heavy sub-fleet, until time is up.
  // Files booted and time spent booting accumulate across calls.
  std::uint64_t files = 0;
  double boot_s = 0.0;
  const auto run_loop = [&](double seconds, Tracer* spans,
                            std::vector<double>& light_ms,
                            std::vector<double>& heavy_ms) {
    std::size_t iteration = 0;
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
      for (const bool plan : {true, false}) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t f = 0; f < kFleetSize; ++f) {
          if (kFleet[f].plan != plan) {
            continue;
          }
          ++out.attempted;
          ++files;
          if (!boot(paths[f], expect[f][iteration % kVariants], spans)) {
            ++out.failed;
          }
        }
        const double ms = us_between(t0, Clock::now()) / 1000.0;
        boot_s += ms / 1000.0;
        (plan ? light_ms : heavy_ms).push_back(ms);
      }
      ++iteration;
    }
  };

  // Which files took which load path (a plan-bearing file that silently
  // compiled would show here and in light.*).
  for (std::size_t f = 0; f < kFleetSize; ++f) {
    const auto compiled = std::make_shared<const CompiledModel>(
        std::make_shared<const MmapModel>(paths[f]));
    std::cout << "fleet " << kFleet[f].name << ": "
              << (compiled->plan_adopted() ? "adopted" : "compiled")
              << (compiled->has_catalog_index() ? " +index" : "") << "\n";
  }

  const double S = options.seconds;
  if (!options.trace) {
    std::vector<double> light_ms;
    std::vector<double> heavy_ms;
    run_loop(0.45 * S, nullptr, light_ms, heavy_ms);
    set_up();
    run_loop(0.45 * S, nullptr, light_ms, heavy_ms);
    set_up();
    const double files_per_s = static_cast<double>(files) / boot_s;
    print_latency("light (plan-bearing sub-fleet boot)", light_ms);
    print_latency("heavy (plan-less sub-fleet boot)", heavy_ms);
    out.set("light.p50_ms", segmented_percentile(light_ms, 50.0), "ms");
    out.set("light.p95_ms", segmented_percentile(light_ms, 95.0), "ms");
    out.set("heavy.p50_ms", segmented_percentile(heavy_ms, 50.0), "ms");
    out.set("heavy.p95_ms", segmented_percentile(heavy_ms, 95.0), "ms");
    out.set("max_ok_qps", out.failed == 0 ? files_per_s : 0.0, "1/s");
    out.set("setup_s", median(setup_s), "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // --- traced run: boots with spans, a serving probe, the layer probes ---
  std::vector<double> plain_light, plain_heavy, traced_light, traced_heavy;
  run_loop(0.25 * S, nullptr, plain_light, plain_heavy);
  run_loop(0.25 * S, &tracer, traced_light, traced_heavy);
  out.set("trace.overhead_ms.p50",
          segmented_percentile(traced_light, 50.0) -
              segmented_percentile(plain_light, 50.0),
          "ms");

  const MmapModel serving_model(paths[0]);  // memcom_i8_v3
  const auto pool = zipf_histories(mix(options.seed, 62, 0), 1024, kHistory,
                                   kVocab);
  std::vector<std::vector<float>> reference;
  {
    InferenceEngine engine(serving_model, tflite_profile());
    check_ids(pool, engine.compiled().vocab(), kFleet[0].name);
    for (const auto& h : pool) {
      const Tensor logits = engine.run(h).logits;
      reference.emplace_back(logits.data(), logits.data() + logits.numel());
    }
  }
  FleetSource source(serving_model, pool, reference);
  PhaseConfig phase;
  phase.name = "serving-traced";
  phase.rate = 20000.0;
  phase.seconds = 0.15 * S;
  phase.warmup_seconds = 0.1 * phase.seconds;
  const PhaseStats stats = run_phase(source, phase, &tracer);
  out.attempted += stats.attempted;
  out.failed += stats.failed;
  add_serving_metrics(stats, source.server().steal_count(),
                      source.server().queue_high_water(), out);

  ProbeInputs probe;
  probe.forward_path = paths[0];
  probe.rank_path = paths[5];  // memcom_rank_i8_v4
  probe.swap_paths.assign(6, paths[7]);  // legacy identity: swaps accepted
  probe.histories.assign(pool.begin(), pool.begin() + 256);
  probe.session_events = zipf_session_stream(options.seed, 32768, 20000, kVocab);
  probe.session_capacity = 4096;
  probe.session_history = 32;
  run_layer_probes(probe, options, tracer, out);
  return out;
}

}  // namespace perfbench
