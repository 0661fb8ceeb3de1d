// Per-layer probes for the traced run: each probe times calls into one
// module's public functions on the workload's own models and inputs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/tensor.h"

namespace perfbench {

struct ProbeInputs {
  // Model run through ExecutionContext::run_view / run_batch (the
  // forward.classify / batch8 / first_infer probes, format / plan probes).
  std::string forward_path;
  // Model ranked with top-k (exact and pruned). When the file carries no
  // catalog index, the probe builds one in-process for its private plan.
  std::string rank_path;
  // Registry probe: load swap_paths[0], then swap to each later path in
  // turn (legacy files accept a swap onto themselves).
  std::vector<std::string> swap_paths;
  // Histories valid for both models.
  std::vector<std::vector<std::int32_t>> histories;
  // Session stream replayed through a standalone SessionStore.
  std::vector<std::pair<std::uint64_t, std::int32_t>> session_events;
  memcom::Index session_capacity = 0;
  memcom::Index session_history = 0;
  memcom::Index nprobe = 8;
};

// Runs every layer probe and adds its metrics to `out`. Each probe is also
// recorded as a span.
void run_layer_probes(const ProbeInputs& inputs, const Options& options,
                      Tracer& tracer, Outcome& out);

// Layer metrics of the serving path, from a traced open-loop phase.
struct PhaseStats;
void add_serving_metrics(const PhaseStats& stats, std::uint64_t steals,
                         std::size_t queue_high_water, Outcome& out);

// Stamp line describing the build and machine a result came from.
std::string result_stamp(const Options& options, const std::string& kernel);

}  // namespace perfbench
