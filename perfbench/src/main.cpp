// bds_perf — the repository benchmark's measuring program.
//
//   bds_perf --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Generates every input from --seed, measures the workload for --seconds,
// checks the answers, prints a human-readable report and, as its last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics. perfbench/run.py builds
// this program and is the entry point; see perfbench/README.md.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perf_util.h"
#include "util/kernels.h"

#ifndef BDS_PERF_BUILD_TYPE
#define BDS_PERF_BUILD_TYPE "unknown"
#endif

namespace {

using Catalog = std::vector<std::pair<const char*, const char*>>;

// Every end-to-end metric, on every workload. "op" is one solve on the
// batch workloads and one served query (at the 500 ops/s rung) on
// serve-churn; ops_per_s is the closed-loop solve rate, or the rate the
// service completes when offered 2000 ops/s. Tail latencies live under
// the per-layer metrics: the serve-churn query tail is set by rare cache
// invalidations and moves by several times between runs of one seed.
const Catalog kEndToEnd = {
    {"setup_s", "s"},      {"op_s.p50", "s"},       {"ops_per_s", "1/s"},
    {"cpu_s_per_op", "s"}, {"f_over_ub", "ratio"},  {"peak_rss_mb", "MB"},
};

// Every per-layer metric. A workload that does not reach a layer reports
// it as 0 (for instance no wire traffic in-process, no serve/ counters on
// the batch workloads).
const Catalog kPerLayer = {
    {"kernels.l2_ns_per_pair", "ns"},
    {"objectives.gain_ns_per_eval", "ns"},
    {"objectives.shard_view_s", "s"},
    {"objectives.evals", "count"},
    {"objectives.apply_us", "us"},
    {"data.apply_us", "us"},
    {"data.generate_s", "s"},
    {"core.selector_self_s", "s"},
    {"core.evals_avoided", "count"},
    {"core.lazy_skip_share", "share"},
    {"core.upper_bound_s", "s"},
    {"dist.solve_s", "s"},
    {"dist.scatter_s", "s"},
    {"dist.map_s", "s"},
    {"dist.gather_s", "s"},
    {"dist.filter_s", "s"},
    {"dist.unattributed_s", "s"},
    {"dist.machine_skew", "ratio"},
    {"dist.transport_overhead_s", "s"},
    {"dist.wire_bytes_sent", "bytes"},
    {"dist.wire_bytes_received", "bytes"},
    {"dist.wire_encode_ns_per_byte", "ns"},
    {"dist.wire_decode_ns_per_byte", "ns"},
    {"dist.spawn_provision_s", "s"},
    {"dist.worker_peak_rss_mb", "MB"},
    {"dist.retries", "count"},
    {"dist.faults_injected", "count"},
    {"dist.machines_unheard", "count"},
    {"serve.hit_rate", "share"},
    {"serve.computed", "count"},
    {"serve.coalesced", "count"},
    {"serve.degraded", "count"},
    {"serve.rejected", "count"},
    {"serve.queue_s.p99", "s"},
    {"serve.run_s.p99", "s"},
    {"serve.recertified_per_mutation", "count"},
    {"serve.invalidated_per_mutation", "count"},
    {"serve.evals_spent", "count"},
    {"serve.evals_saved", "count"},
    {"serve.query_s.p50", "s"},
    {"serve.query_s.p99", "s"},
    {"serve.mutate_s.p50", "s"},
    {"serve.mutate_s.p99", "s"},
    {"serve.max_ops_at_slo", "1/s"},
    {"bench.op_s.p90", "s"},
    {"bench.layer_coverage", "share"},
    {"bench.trace_overhead", "ratio"},
    {"bench.generator_lag_s.p99", "s"},
};

// Share of all CPU time the hypervisor stole from this host since boot up
// to now, as (steal, total) jiffies from /proc/stat; zeros when unreadable.
std::pair<double, double> steal_jiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[8] = {};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const double x : v) total += x;
  return {v[7], total};
}

std::string self_dir() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.find_last_of('/'));
}

perf::RunConfig parse(int argc, char** argv) {
  perf::RunConfig config;
  config.work_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::stoull(value);
    } else if (key == "--seconds") {
      config.seconds = std::stod(value);
    } else if (key == "--trace") {
      config.trace = value != "0";
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("arguments come in pairs");
  if (!(config.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  config.worker_binary = self_dir() + "/bds_worker";
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perf::RunConfig config = parse(argc, argv);
    std::printf(
        "context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"nproc\": %ld, \"kernel_isa\": \"%s\", "
        "\"build_type\": \"%s\"}\n",
        config.workload.c_str(), static_cast<unsigned long long>(config.seed),
        config.seconds, config.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
        bds::kern::active_name(), BDS_PERF_BUILD_TYPE);

    const auto steal0 = steal_jiffies();
    perf::Outcome outcome;
    if (config.workload == "serve-churn") {
      outcome = perf::run_churn(config);
    } else if (config.workload == "dblp-inproc" ||
               config.workload == "dblp-process" ||
               config.workload == "exemplar-inproc") {
      outcome = perf::run_batch(config);
    } else {
      throw std::invalid_argument("unknown workload '" + config.workload + "'");
    }

    // Emit exactly the catalog for this mode, in catalog order.
    const Catalog& catalog = config.trace ? kPerLayer : kEndToEnd;
    perf::Metrics metrics;
    for (const auto& [name, unit] : catalog) {
      if (!outcome.metrics.has(name) && !config.trace) {
        throw std::logic_error(std::string("end-to-end metric missing: ") + name);
      }
      metrics.set(name, outcome.metrics.has(name) ? outcome.metrics.get(name) : 0.0,
                  unit);
    }
    std::printf("%s\n", outcome.correct ? "correct" : "INCORRECT");
    std::printf("  attempted %llu, failed %llu (failed_share %.6g)\n",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                outcome.attempted == 0
                    ? 0.0
                    : static_cast<double>(outcome.failed) /
                          static_cast<double>(outcome.attempted));
    metrics.print_table();
    // Time the hypervisor took from this VM while the run measured: the
    // main source of run-to-run spread on a shared host.
    const auto steal1 = steal_jiffies();
    const double total = steal1.second - steal0.second;
    std::printf("host {\"steal_share\": %.4f}\n",
                total > 0.0 ? (steal1.first - steal0.first) / total : 0.0);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                outcome.correct && outcome.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                metrics.to_json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bds_perf: %s\n", e.what());
    return 2;
  }
}
