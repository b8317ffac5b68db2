// Per-layer probes of the bds_perf benchmark. Each probe times calls into
// one layer's public functions from outside the library, so the numbers
// are attributable without instrumenting src/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/registry.h"
#include "objectives/exemplar.h"
#include "objectives/submodular.h"
#include "perf_util.h"

namespace perf {

// Bitwise equality of two runs' contract fields: selection, f(S) bits and
// the eval ledger (worker + central, merge probes, lazy-bound savings).
bool same_run(const bds::RunResult& a, const bds::RunResult& b);

// The dist.* split of one solve, read from the ExecutionStats the run
// returned (RoundStats + RoundSpan), with `wall` the solve's wall clock.
struct SolveSplit {
  double wall = 0.0;
  double scatter = 0.0;
  double map = 0.0;
  double gather = 0.0;
  double filter = 0.0;
  double skew = 0.0;               // mean over rounds of max/mean machine s
  double transport_overhead = 0.0; // Σ rounds (map − slowest machine)
  double wire_sent = 0.0;
  double wire_received = 0.0;
};
SolveSplit split_solve(const bds::RunResult& run, double wall);

// Accumulates SolveSplits and emits the dist.* / bench.layer_coverage
// means plus the exact eval and retry/fault/unheard counts of the last run.
class SplitLedger {
 public:
  void add(const SolveSplit& split) { splits_.push_back(split); }
  bool empty() const noexcept { return splits_.empty(); }
  void emit(Metrics& m, const bds::RunResult& last) const;

 private:
  std::vector<SolveSplit> splits_;
};

// Seeded partition of `ground` into `machines` sorted shards (the shape a
// round's scatter produces; not the engine's own partition).
std::vector<std::vector<bds::ElementId>> probe_shards(
    std::span<const bds::ElementId> ground, std::size_t machines,
    std::uint64_t seed);

// Objective / selector / certificate probes over `proto` (a fresh oracle):
//   objectives.shard_view_s, objectives.gain_ns_per_eval,
//   core.selector_self_s, core.upper_bound_s.
// Returns machine 0's selector output as a wire-shaped response payload
// source (picks + the shard's exact gains) for the codec probe.
struct SelectorProbe {
  std::vector<bds::ElementId> picks;
  std::vector<bds::ElementId> shard;
  std::vector<double> gains;
};
SelectorProbe probe_objective_layers(const bds::SubmodularOracle& proto,
                                     std::span<const bds::ElementId> ground,
                                     std::span<const bds::ElementId> solution,
                                     std::size_t k, std::size_t rounds,
                                     std::size_t machines, std::uint64_t seed,
                                     Metrics& m);

// kernels.l2_ns_per_pair over every row pair of the first rows of `points`.
void probe_l2_kernel(const bds::PointSet& points, Metrics& m);

// dist.wire_encode_ns_per_byte / dist.wire_decode_ns_per_byte over one
// response shaped like a round-0 machine reply. Returns false when the
// decoded response differs from the encoded one.
bool probe_wire_codec(const SelectorProbe& probe, Metrics& m);

// dist.spawn_provision_s: mean per-worker wall of a fresh process
// transport's first attempt minus the worker-reported compute seconds.
void probe_spawn_provision(const std::string& worker_binary,
                           const std::string& corpus_spec,
                           std::size_t ground_size,
                           const std::vector<std::vector<bds::ElementId>>& shards,
                           std::uint64_t seed, Metrics& m);

}  // namespace perf
