#include "probes.h"

#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>

#include "open_loop.h"
#include "ondevice/catalog_index.h"
#include "ondevice/compiled_model.h"
#include "ondevice/device_profile.h"
#include "ondevice/execution_context.h"
#include "ondevice/format.h"
#include "ondevice/kernels.h"
#include "ondevice/plan.h"
#include "ondevice/quantize.h"
#include "ondevice/registry.h"
#include "ondevice/session.h"
#include "ondevice/topk.h"

namespace perfbench {

using namespace memcom;

namespace {

// Calls `fn` `reps` times, one span per call; returns the median call time
// in microseconds. `fn` returns something derived from its work so the
// call cannot be dropped.
template <class Fn>
double probe_us(Tracer& tracer, const char* name, int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  volatile std::size_t sink = 0;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    sink = sink + static_cast<std::size_t>(fn());
    const Clock::time_point t1 = Clock::now();
    tracer.record(name, 0, t0, t1);
    samples.push_back(us_between(t0, t1));
  }
  return median(std::move(samples));
}

// Kernel micro-probes over a synthetic [rows, dim] table, once per family:
// ns per element, p50 over passes.
void probe_kernels(const Options& options, Outcome& out) {
  constexpr Index kRows = 4096;
  constexpr Index kDim = 64;
  constexpr int kPasses = 15;
  Rng rng(mix(options.seed, 900, 0));
  const Tensor table = Tensor::randn({kRows, kDim}, rng);
  std::vector<float> query(kDim);
  for (float& q : query) {
    q = rng.normal();
  }
  std::vector<float> buffer(kDim);
  const double elems = static_cast<double>(kRows * kDim);
  struct Family {
    const char* label;
    const KernelSet* set;
  };
  const Family families[] = {{"scalar", &scalar_kernels()},
                             {"dispatch", &select_kernels()}};
  struct Codec {
    const char* label;
    DType dtype;
    double bytes_per_elem;  // stored payload read per element (computed)
  };
  const Codec codecs[] = {
      {"f32", DType::kF32, 4.0},
      {"i8", DType::kI8, 1.0},
      {"i4g", DType::kI4G, 0.5 + 4.0 / static_cast<double>(kI4GroupDefault)}};
  volatile float sink = 0.0f;
  for (const Codec& codec : codecs) {
    const QuantizedTensor q = quantize(table, codec.dtype);
    const SpanSrc src = make_span_src(q);
    for (const Family& fam : families) {
      const KernelSet& k = *fam.set;
      const double deq = median(time_us(kPasses, [&] {
        for (Index r = 0; r < kRows; ++r) {
          k.dequant_span(src, r * kDim, kDim, buffer.data());
        }
        sink = sink + buffer[0];
      }));
      const double dot = median(time_us(kPasses, [&] {
        float acc = 0.0f;
        for (Index r = 0; r < kRows; ++r) {
          acc += k.dot_span(src, r * kDim, kDim, query.data());
        }
        sink = sink + acc;
      }));
      const std::string base = std::string("kernels.");
      const std::string suffix = std::string(".") + codec.label + "." +
                                 fam.label + ".ns_per_elem";
      out.set(base + "dequant_span" + suffix, deq * 1000.0 / elems, "ns");
      out.set(base + "dot_span" + suffix, dot * 1000.0 / elems, "ns");
      if (std::string(fam.label) == "dispatch") {
        // Bytes moved computed from the stored payload size, not measured.
        out.set(base + "dot_span." + codec.label + ".dispatch.computed_gbps",
                codec.bytes_per_elem / (dot * 1000.0 / elems), "GB/s");
      }
    }
  }
  std::vector<float> acc(kDim, 0.0f);
  const float* rows = table.data();
  for (const Family& fam : families) {
    const KernelSet& k = *fam.set;
    const double scale_add = median(time_us(kPasses, [&] {
      for (Index r = 0; r < kRows; ++r) {
        k.acc_scale_add(acc.data(), rows + r * kDim, 0.5f, kDim);
      }
      sink = sink + acc[0];
    }));
    const double axpy = median(time_us(kPasses, [&] {
      for (Index r = 0; r < kRows; ++r) {
        k.axpy(acc.data(), 0.25f, rows + r * kDim, kDim);
      }
      sink = sink + acc[0];
    }));
    const double dot = median(time_us(kPasses, [&] {
      float total = 0.0f;
      for (Index r = 0; r < kRows; ++r) {
        total += k.dot(rows + r * kDim, query.data(), kDim);
      }
      sink = sink + total;
    }));
    const std::string suffix =
        std::string(".f32.") + fam.label + ".ns_per_elem";
    out.set("kernels.acc_scale_add" + suffix, scale_add * 1000.0 / elems,
            "ns");
    out.set("kernels.axpy" + suffix, axpy * 1000.0 / elems, "ns");
    out.set("kernels.dot" + suffix, dot * 1000.0 / elems, "ns");
  }
}

// Item-major copy of a model's output catalog, bias folded as the last
// lane (the layout the model's catalog index was built over), stored at
// the catalog's own dtype.
QuantizedTensor item_major_catalog(const MmapModel& model) {
  const Tensor weight = model.load_tensor("out.weight");  // [in, items]
  const Tensor bias = model.load_tensor("out.bias");      // [items]
  const Index in = weight.shape()[0];
  const Index items = weight.shape()[1];
  Tensor rows({items, in + 1});
  for (Index j = 0; j < items; ++j) {
    for (Index d = 0; d < in; ++d) {
      rows.data()[j * (in + 1) + d] = weight.data()[d * items + j];
    }
    rows.data()[j * (in + 1) + in] = bias.data()[j];
  }
  const TensorEntry& entry = model.entry("out.weight");
  return quantize(rows, entry.dtype, entry.group_size);
}

}  // namespace

void run_layer_probes(const ProbeInputs& in, const Options& options,
                      Tracer& tracer, Outcome& out) {
  const DeviceProfile profile = tflite_profile();
  const auto& histories = in.histories;
  const std::size_t nh = histories.size();

  // --- format / plan / catalog_index decode (cold-start layers) ---
  {
    out.set("format.open_us", probe_us(tracer, "format.open", 30, [&] {
              return MmapModel(in.forward_path).file_size();
            }),
            "us");
    const auto mapped = std::make_shared<const MmapModel>(in.forward_path);
    out.set("plan.decode_us", probe_us(tracer, "plan.decode", 30, [&] {
              return decode_plan(*mapped).status;
            }),
            "us");
    out.set("plan.adopt_us", probe_us(tracer, "plan.adopt", 30, [&] {
              return CompiledModel(mapped, PlanPolicy::kAdoptIfPresent)
                  .plan_adopted();
            }),
            "us");
    out.set("plan.compile_us", probe_us(tracer, "plan.compile", 30, [&] {
              return CompiledModel(mapped, PlanPolicy::kNeverAdopt)
                  .plan_adopted();
            }),
            "us");
    const MmapModel rank_model(in.rank_path);
    out.set("catalog_index.decode_us",
            probe_us(tracer, "catalog_index.decode", 30, [&] {
              return decode_catalog_index(rank_model).status;
            }),
            "us");
  }

  // --- execution_context: forward stages on the workload's models ---
  const auto forward_model = std::make_shared<const CompiledModel>(
      std::make_shared<const MmapModel>(in.forward_path));
  {
    std::size_t cursor = 0;
    std::unique_ptr<ExecutionContext> fresh;
    std::vector<double> first;
    for (int r = 0; r < 20; ++r) {
      fresh = std::make_unique<ExecutionContext>(forward_model, profile);
      first.push_back(probe_us(tracer, "forward.first_infer", 1, [&] {
        return fresh->run_view(histories[cursor++ % nh]).dim;
      }));
    }
    out.set("forward.first_infer_us", median(first), "us");

    ExecutionContext context(forward_model, profile);
    out.set("forward.classify_us.p50",
            probe_us(tracer, "forward.classify", 400, [&] {
              return context.run_view(histories[cursor++ % nh]).dim;
            }),
            "us");
    std::vector<std::vector<std::int32_t>> batch8;
    for (std::size_t b = 0; b < 8; ++b) {
      batch8.push_back(histories[b % nh]);
    }
    out.set("forward.batch8_us_per_req",
            probe_us(tracer, "forward.batch8", 100, [&] {
              return context.run_batch(batch8).batch;
            }) / 8.0,
            "us");
    out.set("memory_meter.resident_mb", context.resident_megabytes(), "MB");
  }

  // --- ranked forward (exact vs pruned) and the standalone scorers ---
  {
    const auto rank_mapped = std::make_shared<const MmapModel>(in.rank_path);
    auto rank_plan = std::make_shared<CompiledModel>(rank_mapped);
    if (!rank_plan->has_catalog_index()) {
      rank_plan->attach_catalog_index(
          build_catalog_index_for_model(*rank_mapped));
    }
    const std::shared_ptr<const CompiledModel> rank_model = rank_plan;
    ExecutionContext context(rank_model, profile);
    std::vector<std::vector<ScoredId>> ranked;
    std::vector<std::vector<std::int32_t>> one(1);
    const std::vector<Index> exact{0};
    const std::vector<Index> pruned{in.nprobe};
    std::size_t cursor = 0;
    const auto ranked_once = [&](const std::vector<Index>& nprobes) {
      one[0] = histories[cursor++ % nh];
      return context.run_batch(one, 10, &ranked, &nprobes).scanned_bytes;
    };
    out.set("forward.rank_exact_us.p50",
            probe_us(tracer, "forward.rank_exact", 60,
                     [&] { return ranked_once(exact); }),
            "us");
    std::uint64_t scanned_bytes = 0;
    constexpr int kPrunedReps = 300;
    out.set("forward.rank_pruned_us.p50",
            probe_us(tracer, "forward.rank_pruned", kPrunedReps, [&] {
              const std::uint64_t bytes = ranked_once(pruned);
              scanned_bytes += bytes;
              return bytes;
            }),
            "us");
    out.set("forward.scanned_bytes_per_query",
            static_cast<double>(scanned_bytes) / kPrunedReps, "bytes");

    const QuantizedTensor catalog = item_major_catalog(*rank_mapped);
    const CatalogScorer scorer(catalog, select_kernels());
    const PrunedCatalogScorer pruned_scorer(scorer, rank_model->catalog_index());
    Rng rng(mix(options.seed, 901, 0));
    std::vector<float> query(static_cast<std::size_t>(scorer.dim()));
    for (float& q : query) {
      q = std::abs(rng.normal());
    }
    query.back() = 1.0f;
    out.set("topk.exact_scan_us.p50",
            probe_us(tracer, "topk.exact_scan", 60, [&] {
              return scorer.top_k(query.data(), 10).size();
            }),
            "us");
    out.set("catalog_index.pruned_scan_us.p50",
            probe_us(tracer, "catalog_index.pruned_scan", 300, [&] {
              return pruned_scorer.top_k(query.data(), 10, in.nprobe).size();
            }),
            "us");
    std::vector<float> scores(static_cast<std::size_t>(scorer.items()));
    scorer.score_all(query.data(), scores.data());
    out.set("topk.select_us.p50",
            probe_us(tracer, "topk.select", 100, [&] {
              return topk_select(scores.data(), scorer.items(), 10).size();
            }),
            "us");
  }

  // --- registry: load and hot swap from files ---
  {
    std::vector<double> load_us;
    std::vector<double> swap_us;
    for (int r = 0; r < 5; ++r) {
      ModelRegistry registry;
      load_us.push_back(probe_us(tracer, "registry.load", 1, [&] {
        return registry.load("probe", in.swap_paths.front());
      }));
      for (std::size_t v = 1; v < in.swap_paths.size(); ++v) {
        swap_us.push_back(probe_us(tracer, "registry.swap", 1, [&] {
          return registry.swap("probe", in.swap_paths[v]);
        }));
      }
    }
    out.set("registry.load_ms", median(load_us) / 1000.0, "ms");
    out.set("registry.swap_ms.p50", median(swap_us) / 1000.0, "ms");
  }

  // --- session: standalone store over the workload's session stream ---
  {
    SessionStore store(in.session_capacity, in.session_history);
    std::vector<std::int32_t> snapshot;
    snapshot.reserve(static_cast<std::size_t>(in.session_history));
    constexpr std::size_t kChunk = 64;  // appends per timed sample
    const auto& events = in.session_events;
    std::size_t next = 0;
    const double chunk_us = probe_us(
        tracer, "session.append64", static_cast<int>(events.size() / kChunk),
        [&] {
          Index length = 0;
          for (std::size_t e = next; e < next + kChunk; ++e) {
            length += store.append_and_snapshot(events[e].first,
                                                events[e].second, snapshot);
          }
          next += kChunk;
          return length;
        });
    out.set("session.append_us.p50", chunk_us / kChunk, "us");
    out.set("session.evictions",
            static_cast<double>(store.evicted_sessions()), "count");
  }

  probe_kernels(options, out);
}

void add_serving_metrics(const PhaseStats& stats, std::uint64_t steals,
                         std::size_t queue_high_water, Outcome& out) {
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(1, stats.attempted));
  out.set("driver.late_share", static_cast<double>(stats.late) / attempted,
          "ratio");
  out.set("driver.lag_p99_ms", percentile(stats.lag_ms, 99.0), "ms");
  out.set("serving.submit_us.p50", percentile(stats.submit_us, 50.0), "us");
  out.set("serving.submit_us.p99", percentile(stats.submit_us, 99.0), "us");
  out.set("serving.queue_wait_ms.p50", percentile(stats.wait_ms, 50.0), "ms");
  out.set("serving.queue_wait_ms.p95", percentile(stats.wait_ms, 95.0), "ms");
  out.set("serving.service_ms.p50", percentile(stats.service_ms, 50.0), "ms");
  out.set("serving.resolve_ms.p50", percentile(stats.resolve_ms, 50.0), "ms");
  out.set("serving.batch_mean", mean(stats.batch), "requests");
  out.set("serving.steals", static_cast<double>(steals), "count");
  out.set("serving.queue_high_water", static_cast<double>(queue_high_water),
          "requests");
}

std::string result_stamp(const Options& options, const std::string& kernel) {
  const auto env = [](const char* name) {
    const char* value = std::getenv(name);
    return std::string(value == nullptr ? "unset" : value);
  };
  std::ostringstream s;
  s << "{\"workload\": \"" << options.workload << "\", \"seed\": "
    << options.seed << ", \"seconds\": " << options.seconds
    << ", \"trace\": " << (options.trace ? 1 : 0)
    << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
    << ", \"kernel\": \"" << kernel << "\", \"MEMCOM_DISABLE_SIMD\": \""
    << env("MEMCOM_DISABLE_SIMD") << "\", \"MEMCOM_ENABLE_FMA\": \""
    << env("MEMCOM_ENABLE_FMA") << "\", \"build_type\": \""
    << PERFBENCH_BUILD_TYPE << "\", \"claim_seed\": 7919}";
  return s.str();
}

}  // namespace perfbench
