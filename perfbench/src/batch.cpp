// The closed-loop batch workloads: one thread issues back-to-back
// bicriteria solves (SPAA'17 §4 practical mode, k = 50, r = 2, m = 4)
// through run_distributed and checks every answer against the first.
//
//   dblp-inproc      dblp-like neighborhood coverage, in-process transport
//   dblp-process     the same inputs over four forked bds_worker processes
//   exemplar-inproc  §4.2 exemplar clustering on 512-d image-like vectors
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/upper_bound.h"
#include "data/corpus.h"
#include "data/graph_gen.h"
#include "data/io.h"
#include "data/vectors_gen.h"
#include "layers.h"
#include "objectives/coverage.h"
#include "objectives/exemplar.h"
#include "perf_util.h"

namespace perf {
namespace {

using bds::ElementId;

constexpr std::uint32_t kDblpNodes = 200'000;
constexpr std::uint32_t kExemplarPoints = 800;
constexpr std::uint32_t kExemplarDim = 512;
constexpr std::size_t kSetups = 3;

struct Instance {
  std::shared_ptr<const bds::PointSet> points;
  std::unique_ptr<TempPath> corpus_file;
  std::shared_ptr<bds::SubmodularOracle> proto;
  std::vector<ElementId> ground;
  bds::RuntimeOptions runtime;
  bds::AlgorithmParams params;
  bds::RunResult golden;  // the warm-up solve every later solve must equal
  double generate_s = 0.0;
};

bool is_process(const RunConfig& config) {
  return config.workload == "dblp-process";
}

// Generate the inputs, build the oracle, and run the warm-up solve.
Instance set_up(const RunConfig& config, std::size_t rep) {
  Instance in;
  in.params.k = 50;
  in.params.rounds = 2;
  in.params.machines = 4;
  in.runtime.threads = 4;
  in.runtime.seed = config.seed;

  const auto t = Clock::now();
  if (config.workload == "exemplar-inproc") {
    bds::data::ImageVectorsConfig cfg;
    cfg.images = kExemplarPoints;
    cfg.dim = kExemplarDim;
    cfg.seed = config.seed;
    in.points = bds::data::make_image_like_vectors(cfg);
    in.generate_s = seconds_since(t);
    in.proto = std::make_shared<bds::ExemplarOracle>(in.points, 2.0);
  } else {
    const auto sets = bds::data::make_dblp_like(kDblpNodes, config.seed);
    in.generate_s = seconds_since(t);
    if (is_process(config)) {
      // Workers rebuild the oracle from a corpus file; the coordinator
      // builds its own through the same spec so both sides are bit-equal.
      in.corpus_file = std::make_unique<TempPath>(
          config.work_dir + "/bds_perf." + std::to_string(::getpid()) + "." +
          std::to_string(rep) + ".corpus");
      bds::data::save_set_system(*sets, in.corpus_file->path());
      bds::data::CorpusSpec spec;
      spec.objective = "coverage";
      spec.path = in.corpus_file->path();
      in.proto = spec.make_oracle();
      in.runtime.transport = bds::TransportKind::kProcess;
      in.runtime.process.worker_binary = config.worker_binary;
      in.runtime.process.corpus_spec = spec.serialize();
    } else {
      in.proto = std::make_shared<bds::CoverageOracle>(sets);
    }
  }
  in.ground.resize(in.proto->ground_size());
  for (std::size_t i = 0; i < in.ground.size(); ++i) {
    in.ground[i] = static_cast<ElementId>(i);
  }
  in.golden = bds::run_distributed("bicriteria", *in.proto, in.ground,
                                   in.runtime, in.params);
  return in;
}

}  // namespace

Outcome run_batch(const RunConfig& config) {
  Outcome out;
  Metrics& m = out.metrics;

  // Set-up is repeated and reported as a median so that work moved into
  // it shows; the last instance is the one measured.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  Instance in;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    in = Instance{};
    const auto t = Clock::now();
    in = set_up(config, rep);
    setup_s.push_back(seconds_since(t));
    generate_s.push_back(in.generate_s);
  }

  // Closed loop. Under --trace, solves alternate between the untraced
  // runtime and one with a trace sink attached, so both share the same
  // machine conditions and their p50 ratio is the tracing overhead.
  bds::RuntimeOptions traced = in.runtime;
  std::size_t sink_spans = 0;
  traced.trace_sink = [&sink_spans](const bds::dist::RoundSpan&) { ++sink_spans; };
  std::vector<double> walls;
  std::vector<double> traced_walls;
  SplitLedger ledger;
  bds::RunResult last = in.golden;
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  for (std::size_t i = 0; seconds_since(start) < config.seconds; ++i) {
    const bool with_trace = config.trace && i % 2 == 1;
    ++out.attempted;
    try {
      const auto t = Clock::now();
      bds::RunResult run = bds::run_distributed(
          "bicriteria", *in.proto, in.ground,
          with_trace ? traced : in.runtime, in.params);
      const double wall = seconds_since(t);
      (with_trace ? traced_walls : walls).push_back(wall);
      if (with_trace) ledger.add(split_solve(run, wall));
      if (!same_run(run, in.golden)) ++out.failed;
      last = std::move(run);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "solve failed: %s\n", e.what());
      ++out.failed;
    }
  }
  const double elapsed = seconds_since(start);
  const double cpu = cpu_seconds() - cpu0;
  const double done = static_cast<double>(walls.size() + traced_walls.size());

  // Certificate: UB >= f(S) for the golden solution.
  const double ub = bds::solution_upper_bound(*in.proto, in.golden.solution,
                                              in.ground, in.params.k);
  if (!(ub >= in.golden.value)) {
    std::fprintf(stderr, "upper bound %.17g below f(S) %.17g\n", ub,
                 in.golden.value);
    ++out.failed;
  }
  // Cross-transport identity: the in-process solve over the same oracle
  // must equal the process transport's answer bitwise.
  if (is_process(config)) {
    bds::RuntimeOptions inproc = in.runtime;
    inproc.transport = bds::TransportKind::kInProcess;
    ++out.attempted;
    const auto run = bds::run_distributed("bicriteria", *in.proto, in.ground,
                                          inproc, in.params);
    if (!same_run(run, in.golden)) {
      std::fprintf(stderr, "process transport differs from in-process\n");
      ++out.failed;
    }
  }
  out.correct = out.failed == 0;

  if (!config.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("op_s.p50", quantile(walls, 0.5), "s");
    m.set("ops_per_s", done / elapsed, "1/s");
    m.set("cpu_s_per_op", cpu / done, "s");
    m.set("f_over_ub", in.golden.value / ub, "ratio");
    m.set("peak_rss_mb", peak_rss_mb(RUSAGE_SELF), "MB");
    std::printf("  solves %zu over %.3f s\n", walls.size(), elapsed);
    return out;
  }

  if (sink_spans != traced_walls.size() * in.params.rounds) {
    std::fprintf(stderr, "trace sink saw %zu spans for %zu traced solves\n",
                 sink_spans, traced_walls.size());
    out.correct = false;
  }
  m.set("data.generate_s", median(generate_s), "s");
  m.set("bench.op_s.p90", quantile(walls, 0.9), "s");
  m.set("bench.trace_overhead",
        quantile(traced_walls, 0.5) / quantile(walls, 0.5), "ratio");
  ledger.emit(m, last);
  const SelectorProbe probe = probe_objective_layers(
      *in.proto, in.ground, in.golden.solution, in.params.k, in.params.rounds,
      in.params.machines, config.seed, m);
  if (in.points) {
    probe_l2_kernel(*in.points, m);
  } else {
    // The coverage workloads never call the distance kernels; the probe
    // runs on a small fixed vector set as the no-change control.
    bds::data::ImageVectorsConfig cfg;
    cfg.images = 256;
    cfg.dim = kExemplarDim;
    cfg.seed = config.seed;
    probe_l2_kernel(*bds::data::make_image_like_vectors(cfg), m);
  }
  if (is_process(config)) {
    if (!probe_wire_codec(probe, m)) {
      std::fprintf(stderr, "wire codec round trip differs\n");
      out.correct = false;
    }
    probe_spawn_provision(config.worker_binary, in.runtime.process.corpus_spec,
                          in.ground.size(),
                          probe_shards(in.ground, in.params.machines, config.seed),
                          config.seed, m);
    m.set("dist.worker_peak_rss_mb", peak_rss_mb(RUSAGE_CHILDREN), "MB");
  }
  return out;
}

}  // namespace perf
