#include "layers.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "core/greedy.h"
#include "core/upper_bound.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "util/kernels.h"
#include "util/rng.h"

namespace perf {

using bds::ElementId;

bool same_run(const bds::RunResult& a, const bds::RunResult& b) {
  return a.solution == b.solution &&
         std::bit_cast<std::uint64_t>(a.value) ==
             std::bit_cast<std::uint64_t>(b.value) &&
         a.stats.total_evals() == b.stats.total_evals() &&
         a.stats.total_merge_evals() == b.stats.total_merge_evals() &&
         a.stats.total_evals_avoided() == b.stats.total_evals_avoided();
}

SolveSplit split_solve(const bds::RunResult& run, double wall) {
  SolveSplit s;
  s.wall = wall;
  const auto& spans = run.stats.trace.rounds;
  const auto& rounds = run.stats.rounds;
  for (const auto& span : spans) {
    s.scatter += span.scatter_seconds;
    s.map += span.map_seconds;
    s.gather += span.gather_seconds;
    s.filter += span.filter_seconds;
    s.wire_sent += static_cast<double>(span.wire_bytes_sent);
    s.wire_received += static_cast<double>(span.wire_bytes_received);
  }
  std::size_t skew_rounds = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const auto& r = rounds[i];
    if (i < spans.size()) {
      s.transport_overhead += spans[i].map_seconds - r.max_machine_seconds;
    }
    if (r.machines_used > 0 && r.sum_machine_seconds > 0.0) {
      const double mean =
          r.sum_machine_seconds / static_cast<double>(r.machines_used);
      s.skew += r.max_machine_seconds / mean;
      ++skew_rounds;
    }
  }
  if (skew_rounds > 0) s.skew /= static_cast<double>(skew_rounds);
  return s;
}

void SplitLedger::emit(Metrics& m, const bds::RunResult& last) const {
  // Means, not medians, so the named phases plus dist.unattributed_s add
  // up to dist.solve_s exactly.
  const auto mean = [this](double SolveSplit::*field) {
    double total = 0.0;
    for (const auto& s : splits_) total += s.*field;
    return splits_.empty() ? 0.0 : total / static_cast<double>(splits_.size());
  };
  const double wall = mean(&SolveSplit::wall);
  const double named = mean(&SolveSplit::scatter) + mean(&SolveSplit::map) +
                       mean(&SolveSplit::gather) + mean(&SolveSplit::filter);
  m.set("dist.solve_s", wall, "s");
  m.set("dist.scatter_s", mean(&SolveSplit::scatter), "s");
  m.set("dist.map_s", mean(&SolveSplit::map), "s");
  m.set("dist.gather_s", mean(&SolveSplit::gather), "s");
  m.set("dist.filter_s", mean(&SolveSplit::filter), "s");
  m.set("dist.unattributed_s", wall - named, "s");
  m.set("dist.machine_skew", mean(&SolveSplit::skew), "ratio");
  m.set("dist.transport_overhead_s", mean(&SolveSplit::transport_overhead), "s");
  m.set("dist.wire_bytes_sent", mean(&SolveSplit::wire_sent), "bytes");
  m.set("dist.wire_bytes_received", mean(&SolveSplit::wire_received), "bytes");
  m.set("bench.layer_coverage", wall > 0.0 ? named / wall : 0.0, "share");
  m.set("dist.retries", static_cast<double>(last.stats.total_retries()), "count");
  m.set("dist.faults_injected",
        static_cast<double>(last.stats.total_faults_injected()), "count");
  m.set("dist.machines_unheard",
        static_cast<double>(last.stats.total_machines_unheard()), "count");
  const double evals = static_cast<double>(last.stats.total_evals());
  const double avoided = static_cast<double>(last.stats.total_evals_avoided());
  m.set("objectives.evals", evals, "count");
  m.set("core.evals_avoided", avoided, "count");
  m.set("core.lazy_skip_share",
        evals + avoided > 0.0 ? avoided / (evals + avoided) : 0.0, "share");
}

std::vector<std::vector<ElementId>> probe_shards(
    std::span<const ElementId> ground, std::size_t machines,
    std::uint64_t seed) {
  std::vector<ElementId> order(ground.begin(), ground.end());
  bds::util::Rng rng(bds::util::mix64(seed ^ 0x5eed5a4dULL));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  std::vector<std::vector<ElementId>> shards(machines);
  for (std::size_t i = 0; i < order.size(); ++i) {
    shards[i % machines].push_back(order[i]);
  }
  for (auto& shard : shards) std::sort(shard.begin(), shard.end());
  return shards;
}

namespace {

// Forwards every evaluation to `inner` and accumulates the wall time spent
// inside it, so a selector's own bookkeeping is its total time minus this.
class TimedOracle final : public bds::SubmodularOracle {
 public:
  explicit TimedOracle(std::unique_ptr<bds::SubmodularOracle> inner)
      : inner_(std::move(inner)) {}

  std::size_t ground_size() const noexcept override {
    return inner_->ground_size();
  }
  double max_value() const noexcept override { return inner_->max_value(); }

  double inside_seconds() const noexcept { return inside_; }
  std::uint64_t calls() const noexcept { return calls_; }

 protected:
  double do_gain(ElementId x) const override {
    double out = 0.0;
    do_gain_batch(std::span<const ElementId>(&x, 1), std::span<double>(&out, 1));
    return out;
  }
  void do_gain_batch(std::span<const ElementId> xs,
                     std::span<double> out) const override {
    const auto t = Clock::now();
    inner_->gain_batch_unaccounted(xs, out);
    inside_ += seconds_since(t);
    ++calls_;
  }
  double do_add(ElementId x) override {
    const auto t = Clock::now();
    const double g = inner_->add(x);
    inside_ += seconds_since(t);
    ++calls_;
    return g;
  }
  std::unique_ptr<bds::SubmodularOracle> do_clone() const override {
    return std::make_unique<TimedOracle>(inner_->clone());
  }

 private:
  std::unique_ptr<bds::SubmodularOracle> inner_;
  // Single-threaded probe: the selector evaluates serially.
  mutable double inside_ = 0.0;
  mutable std::uint64_t calls_ = 0;
};

// Seconds one timed region's pair of clock reads adds, so the selector's
// self time is not charged for the probe's own clock.
double clock_pair_seconds() {
  constexpr int kPairs = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kPairs; ++i) {
    const auto a = Clock::now();
    if (seconds_since(a) < 0.0) throw std::logic_error("clock went backwards");
  }
  return seconds_since(t0) / kPairs;
}

}  // namespace

SelectorProbe probe_objective_layers(const bds::SubmodularOracle& proto,
                                     std::span<const ElementId> ground,
                                     std::span<const ElementId> solution,
                                     std::size_t k, std::size_t rounds,
                                     std::size_t machines, std::uint64_t seed,
                                     Metrics& m) {
  const auto shards = probe_shards(ground, machines, seed);
  constexpr std::size_t kReps = 5;

  m.set("objectives.shard_view_s", median_of(kReps, [&] {
          const auto t = Clock::now();
          for (const auto& shard : shards) {
            auto view = proto.shard_view(shard);
            if (view->ground_size() == 0) throw std::logic_error("empty view");
          }
          return seconds_since(t);
        }),
        "s");

  SelectorProbe probe;
  probe.shard = shards[0];
  probe.gains.assign(probe.shard.size(), 0.0);
  {
    auto view = proto.shard_view(probe.shard);
    const double s = median_of(kReps, [&] {
      const auto t = Clock::now();
      view->gain_batch(probe.shard, probe.gains);
      return seconds_since(t);
    });
    m.set("objectives.gain_ns_per_eval",
          1e9 * s / static_cast<double>(probe.shard.size()), "ns");
  }

  const double pair = clock_pair_seconds();
  const std::size_t budget = std::max<std::size_t>(1, k / std::max<std::size_t>(1, rounds));
  m.set("core.selector_self_s", median_of(3, [&] {
          double self = 0.0;
          for (std::size_t i = 0; i < shards.size(); ++i) {
            TimedOracle timed(proto.shard_view(shards[i]));
            bds::LazyGreedyStats stats;
            const auto t = Clock::now();
            const auto picked = bds::lazy_greedy_bounded(
                timed, shards[i], budget, bds::GreedyOptions(true), nullptr,
                &stats);
            const double total = seconds_since(t);
            self += std::max(0.0, total - timed.inside_seconds() -
                                      pair * static_cast<double>(timed.calls()));
            if (i == 0) probe.picks = picked.picks;
          }
          return self;
        }),
        "s");

  m.set("core.upper_bound_s", median_of(3, [&] {
          const auto t = Clock::now();
          const double ub = bds::solution_upper_bound(proto, solution, ground, k);
          if (!(ub >= 0.0)) throw std::logic_error("negative upper bound");
          return seconds_since(t);
        }),
        "s");
  return probe;
}

void probe_l2_kernel(const bds::PointSet& points, Metrics& m) {
  const std::size_t rows = std::min<std::size_t>(points.size(), 256);
  const std::size_t dim = points.dim();
  const double pairs = static_cast<double>(rows * (rows - 1) / 2);
  double sink = 0.0;
  const double s = median_of(5, [&] {
    const auto t = Clock::now();
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = i + 1; j < rows; ++j) {
        sink += bds::kern::squared_l2(points.row(i), points.row(j), dim);
      }
    }
    return seconds_since(t);
  });
  if (!(sink >= 0.0)) throw std::logic_error("negative squared distance");
  m.set("kernels.l2_ns_per_pair", 1e9 * s / pairs, "ns");
}

bool probe_wire_codec(const SelectorProbe& probe, Metrics& m) {
  namespace wire = bds::dist::wire;
  wire::AttemptResponse response;
  response.output.summary = probe.picks;
  response.output.oracle_evals = probe.shard.size();
  response.output.bound_ids = probe.shard;
  response.output.bound_gains = probe.gains;
  response.seconds = 1.0 / 3.0;
  std::string payload;
  const double enc = median_of(5, [&] {
    const auto t = Clock::now();
    payload = wire::encode_response(response);
    return seconds_since(t);
  });
  wire::AttemptResponse decoded;
  const double dec = median_of(5, [&] {
    const auto t = Clock::now();
    decoded = wire::decode_response(payload, "bds_perf");
    return seconds_since(t);
  });
  const double bytes = static_cast<double>(payload.size());
  m.set("dist.wire_encode_ns_per_byte", 1e9 * enc / bytes, "ns");
  m.set("dist.wire_decode_ns_per_byte", 1e9 * dec / bytes, "ns");
  const auto& a = decoded.output;
  const auto& b = response.output;
  return a.summary == b.summary && a.bound_ids == b.bound_ids &&
         a.oracle_evals == b.oracle_evals &&
         std::memcmp(a.bound_gains.data(), b.bound_gains.data(),
                     b.bound_gains.size() * sizeof(double)) == 0 &&
         a.bound_gains.size() == b.bound_gains.size();
}

void probe_spawn_provision(const std::string& worker_binary,
                           const std::string& corpus_spec,
                           std::size_t ground_size,
                           const std::vector<std::vector<ElementId>>& shards,
                           std::uint64_t seed, Metrics& m) {
  bds::dist::ProcessTransportConfig config;
  config.machines = shards.size();
  config.ground_size = ground_size;
  config.worker_binary = worker_binary;
  config.corpus_spec = corpus_spec;
  bds::dist::RoundWork work;
  work.fn = [](std::size_t, std::span<const ElementId>) -> bds::dist::WorkerOutput {
    throw std::logic_error("process transport must not run the closure");
  };
  work.plan.kind = bds::dist::WorkerPlanKind::kSelector;
  work.plan.budget = 1;
  work.plan.seed = seed;
  m.set("dist.spawn_provision_s", median_of(3, [&] {
          const auto transport = bds::dist::make_process_transport(config);
          double total = 0.0;
          for (std::size_t i = 0; i < shards.size(); ++i) {
            const ElementId one = shards[i].front();
            const auto t = Clock::now();
            const auto result = transport->run_attempt(
                0, i, 1, bds::dist::FaultKind::kNone,
                std::span<const ElementId>(&one, 1), work);
            if (result.crashed) throw std::runtime_error("worker crashed");
            total += seconds_since(t) - result.seconds;
          }
          return total / static_cast<double>(shards.size());
        }),
        "s");
}

}  // namespace perf
