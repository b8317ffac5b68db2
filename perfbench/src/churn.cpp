// serve-churn: a SummaryService over a churning DynamicCorpus, driven open
// loop from this process.
//
// Offered rates step through kRungs. Every op has a due time fixed before
// the rung starts; kClients client threads take ops in order, sleep until
// each is due and time it from the due time, so a stall also charges the
// ops queued behind it. 90% of ops are queries (rounds 2, Zipf budgets,
// two ε, three tenants), 10% mutations (half insert a random 8-item set,
// half erase a random live id). This is the only workload that reaches
// serve/ and data/dynamic, and writes sit beside reads so a cache change
// that slows mutations shows.
#include <atomic>
#include <bit>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "data/dynamic.h"
#include "data/graph_gen.h"
#include "data/vectors_gen.h"
#include "layers.h"
#include "perf_util.h"
#include "serve/service.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace perf {
namespace {

using bds::ElementId;

constexpr std::uint32_t kNodes = 20'000;
constexpr double kRungs[] = {250.0, 500.0, 1000.0, 2000.0};
constexpr double kReportRung = 500.0;  // the rung op_s.* is read at
constexpr double kSlo = 0.050;         // query p99 limit of a passing rung
constexpr double kLagLimit = 0.010;    // generator lateness that voids a rung
constexpr std::size_t kBudgets[] = {8, 16, 32, 64};
constexpr double kEpsilons[] = {0.1, 0.2};
constexpr std::size_t kTenants = 3;
constexpr std::size_t kClients = 4;
constexpr std::size_t kRounds = 2;
constexpr std::size_t kMachines = 4;
constexpr std::size_t kSetups = 5;  // set-up is ~30 ms, so take more
constexpr std::size_t kVerifyPerRung = 6;  // per outcome class

struct Op {
  double due = 0.0;  // seconds after the rung start
  enum Kind { kQuery, kInsert, kErase } kind = kQuery;
  std::size_t k = 0;
  double epsilon = 0.1;
  std::size_t tenant = 0;
  std::vector<std::uint32_t> items;  // insert payload
  std::uint64_t pick = 0;            // erase: draw over the live ids
};

struct Done {
  double latency = 0.0;  // completion minus due
  double lag = -1.0;     // client oversleep when it waited for the op; -1 if late
  bool failed = false;
  bds::serve::ServeResult result;  // queries only
};

struct Service {
  std::shared_ptr<const bds::SetSystem> base;
  std::shared_ptr<bds::data::DynamicCorpus> corpus;
  std::unique_ptr<bds::serve::SummaryService> service;
  std::vector<ElementId> live;  // bench-side mirror of the live id set
  std::mutex live_mu;
  double generate_s = 0.0;
};

bds::serve::Query make_query(std::size_t k, double epsilon, std::size_t tenant,
                             std::uint64_t seed) {
  bds::serve::Query q;
  q.corpus = "churn";
  q.k = k;
  q.epsilon = epsilon;
  q.rounds = kRounds;
  q.machines = kMachines;
  q.tenant = "tenant-" + std::to_string(tenant);
  q.runtime.seed = seed;
  q.runtime.threads = 4;
  return q;
}

std::unique_ptr<Service> set_up(std::uint64_t seed, bool spans) {
  auto s = std::make_unique<Service>();
  const auto t = Clock::now();
  s->base = bds::data::make_dblp_like(kNodes, seed);
  s->generate_s = seconds_since(t);
  s->corpus = std::make_shared<bds::data::DynamicCorpus>(s->base, "churn");
  s->live = s->corpus->live_ground();
  bds::serve::ServiceOptions options;
  options.threads = 4;
  options.record_query_spans = spans;
  s->service = std::make_unique<bds::serve::SummaryService>(options);
  s->service->add_dynamic_corpus("churn", "coverage", s->corpus);
  // Warm-up: the largest budget per ε certifies every smaller one.
  for (const double eps : kEpsilons) {
    s->service->query(make_query(kBudgets[3], eps, 0, seed));
  }
  if (spans) s->service->drain_query_spans();
  return s;
}

std::vector<Op> make_ops(double rate, double seconds, bds::util::Rng& rng) {
  static const bds::util::ZipfSampler budgets(std::size(kBudgets), 1.0);
  std::vector<Op> ops;
  const auto n = static_cast<std::size_t>(rate * seconds);
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Op op;
    op.due = static_cast<double>(i) / rate;
    if (rng.next_double() < 0.1) {
      if (rng.next_bool(0.5)) {
        op.kind = Op::kInsert;
        op.items.resize(8);
        for (auto& item : op.items) {
          item = static_cast<std::uint32_t>(rng.next_below(kNodes));
        }
      } else {
        op.kind = Op::kErase;
        op.pick = rng.next_u64();
      }
    } else {
      op.k = kBudgets[budgets.sample(rng)];
      op.epsilon = kEpsilons[rng.next_below(std::size(kEpsilons))];
      op.tenant = rng.next_below(kTenants);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

Done execute(Service& s, const Op& op, std::uint64_t seed) {
  Done done;
  switch (op.kind) {
    case Op::kQuery:
      done.result = s.service->query(make_query(op.k, op.epsilon, op.tenant, seed));
      done.failed = done.result.outcome == bds::serve::ServeOutcome::kRejected;
      break;
    case Op::kInsert: {
      const auto outcome = s.service->corpus_insert("churn", op.items);
      std::lock_guard<std::mutex> lk(s.live_mu);
      s.live.push_back(outcome.id);
      break;
    }
    case Op::kErase: {
      ElementId id = 0;
      {
        std::lock_guard<std::mutex> lk(s.live_mu);
        if (s.live.empty()) throw std::runtime_error("no live id to erase");
        const std::size_t at = op.pick % s.live.size();
        id = s.live[at];
        s.live[at] = s.live.back();
        s.live.pop_back();
      }
      s.service->corpus_erase("churn", id);
      break;
    }
  }
  return done;
}

struct RungResult {
  double rate = 0.0;
  double achieved = 0.0;  // completed ops per second of offered schedule
  std::vector<Op> ops;
  std::vector<Done> done;
  bool backlog_ok = true;
  bool passed = false;
  double query_p99 = 0.0;
  double lag_p99 = 0.0;
  std::size_t failed = 0;

  std::vector<double> latencies(bool mutations) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if ((ops[i].kind != Op::kQuery) == mutations) out.push_back(done[i].latency);
    }
    return out;
  }
};

RungResult run_rung(Service& s, double rate, double seconds,
                    bds::util::Rng& rng, std::uint64_t seed) {
  RungResult r;
  r.rate = rate;
  r.ops = make_ops(rate, seconds, rng);
  r.done.resize(r.ops.size());
  std::atomic<std::size_t> next{0};
  // Start slightly in the future so every client is waiting at t = 0.
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= r.ops.size()) return;
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(r.ops[i].due));
      const bool waited = Clock::now() < due;
      if (waited) std::this_thread::sleep_until(due);
      Done d;
      const double lag = seconds_between(due, Clock::now());
      try {
        d = execute(s, r.ops[i], seed);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "op %zu failed: %s\n", i, e.what());
        d.failed = true;
      }
      d.latency = seconds_between(due, Clock::now());
      d.lag = waited ? lag : -1.0;
      r.done[i] = std::move(d);
    }
  };
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (auto& c : clients) c.join();
  const double finished = seconds_since(start);
  const double last_due = r.ops.empty() ? 0.0 : r.ops.back().due;
  // A backlog that grew through the rung is still draining when it ends.
  r.backlog_ok = finished - last_due <= kSlo;
  r.achieved = static_cast<double>(r.ops.size()) / std::max(finished, 1e-9);
  std::vector<double> lags;
  for (const auto& d : r.done) {
    if (d.failed) ++r.failed;
    if (d.lag >= 0.0) lags.push_back(d.lag);
  }
  r.query_p99 = quantile(r.latencies(false), 0.99);
  r.lag_p99 = quantile(lags, 0.99);
  r.passed = r.failed == 0 && r.backlog_ok && r.query_p99 <= kSlo &&
             r.lag_p99 <= kLagLimit;
  return r;
}

// Reference oracles at past epochs: the base corpus plus the first `epoch`
// records of the service's mutation log, rebuilt from scratch.
class EpochOracles {
 public:
  EpochOracles(std::shared_ptr<const bds::SetSystem> base,
               std::vector<bds::data::Mutation> log)
      : base_(std::move(base)), log_(std::move(log)) {}

  struct Entry {
    std::unique_ptr<bds::SubmodularOracle> proto;
    std::vector<ElementId> ground;
  };

  const Entry& at(std::uint64_t epoch) {
    auto it = cache_.find(epoch);
    if (it != cache_.end()) return it->second;
    if (epoch > log_.size()) throw std::out_of_range("epoch beyond the log");
    bds::data::DynamicCorpus corpus(base_, "churn-reference");
    for (std::uint64_t i = 0; i < epoch; ++i) corpus.apply(log_[i]);
    bds::data::DynamicOracleOptions rebuild;
    rebuild.prefer_incremental = false;
    Entry e{bds::data::make_dynamic_oracle(corpus, "coverage", rebuild),
            corpus.live_ground()};
    return cache_.emplace(epoch, std::move(e)).first->second;
  }

 private:
  std::shared_ptr<const bds::SetSystem> base_;
  std::vector<bds::data::Mutation> log_;
  std::map<std::uint64_t, Entry> cache_;
};

// Checks a sample of each rung's answers against the corpus at the epoch
// the answer certifies. A computed answer must equal a direct
// run_distributed bitwise; a cached answer's value must equal the ordered
// replay of its items, under its certified upper bound. Returns the number
// of mismatches; direct solves are fed to `ledger`.
std::size_t verify(const RungResult& rung, EpochOracles& oracles,
                   std::uint64_t seed, SplitLedger* ledger,
                   bds::RunResult* last_direct) {
  std::size_t computed = 0;
  std::size_t cached = 0;
  std::size_t mismatches = 0;
  const std::size_t stride = std::max<std::size_t>(1, rung.ops.size() / 64);
  for (std::size_t i = 0; i < rung.ops.size(); i += stride) {
    const Op& op = rung.ops[i];
    const Done& d = rung.done[i];
    if (op.kind != Op::kQuery || d.failed) continue;
    using bds::serve::ServeOutcome;
    const bool is_computed = d.result.outcome == ServeOutcome::kComputed;
    const bool is_cached = d.result.outcome == ServeOutcome::kHit ||
                           d.result.outcome == ServeOutcome::kDegraded;
    if ((is_computed && computed >= kVerifyPerRung) ||
        (is_cached && cached >= kVerifyPerRung) || (!is_computed && !is_cached)) {
      continue;
    }
    const auto& ref = oracles.at(d.result.epoch);
    bool ok = true;
    if (is_computed) {
      ++computed;
      const auto q = make_query(op.k, op.epsilon, op.tenant, seed);
      bds::AlgorithmParams params;
      params.k = q.k;
      params.rounds = q.rounds;
      params.epsilon = q.epsilon;
      params.machines = q.machines;
      const auto t = Clock::now();
      bds::RunResult direct =
          bds::run_distributed("bicriteria", *ref.proto, ref.ground, q.runtime, params);
      const double wall = seconds_since(t);
      if (ledger != nullptr) ledger->add(split_solve(direct, wall));
      ok = direct.solution == d.result.solution &&
           std::bit_cast<std::uint64_t>(direct.value) ==
               std::bit_cast<std::uint64_t>(d.result.value);
      *last_direct = std::move(direct);
    } else {
      ++cached;
      auto replay = ref.proto->clone();
      for (const ElementId x : d.result.solution) replay->add(x);
      ok = std::bit_cast<std::uint64_t>(replay->value()) ==
               std::bit_cast<std::uint64_t>(d.result.value) &&
           d.result.upper_bound >= d.result.value;
    }
    if (!ok) {
      std::fprintf(stderr, "verify: rung %.0f op %zu (%s, k=%zu, epoch %llu) differs\n",
                   rung.rate, i, bds::serve::serve_outcome_name(d.result.outcome),
                   op.k, static_cast<unsigned long long>(d.result.epoch));
      ++mismatches;
    }
  }
  return mismatches;
}

// Replays the mutation log through the oracle (apply_insert/apply_erase)
// and the corpus (DynamicCorpus::apply); reports µs per mutation.
void probe_apply(const Service& s, Metrics& m) {
  const auto& log = s.corpus->log();
  if (log.empty()) return;
  const double n = static_cast<double>(log.size());
  m.set("data.apply_us", 1e6 / n * median_of(5, [&] {
          bds::data::DynamicCorpus corpus(s.base, "replay");
          const auto t = Clock::now();
          for (const auto& mutation : log) corpus.apply(mutation);
          return seconds_since(t);
        }),
        "us");
  m.set("objectives.apply_us", 1e6 / n * median_of(5, [&] {
          const bds::data::DynamicCorpus corpus(s.base, "replay");
          auto oracle = bds::data::make_dynamic_oracle(corpus, "coverage");
          const auto t = Clock::now();
          std::uint64_t epoch = 0;
          for (const auto& mutation : log) {
            ++epoch;
            if (mutation.kind == bds::data::MutationKind::kInsert) {
              oracle->apply_insert(mutation.id, mutation.items, epoch);
            } else {
              oracle->apply_erase(mutation.id, epoch);
            }
          }
          return seconds_since(t);
        }),
        "us");
}

}  // namespace

Outcome run_churn(const RunConfig& config) {
  Outcome out;
  Metrics& m = out.metrics;
  const double rung_seconds = config.seconds / std::size(kRungs);

  // Traced runs first measure the report rung on an untraced service, so
  // the span-recording overhead is a same-run ratio.
  double untraced_p50 = 0.0;
  bds::util::Rng rng(bds::util::mix64(config.seed ^ 0xc4012u));
  if (config.trace) {
    auto plain = set_up(config.seed, false);
    bds::util::Rng plain_rng(bds::util::mix64(config.seed ^ 0x9a1bu));
    const RungResult r = run_rung(*plain, kReportRung, rung_seconds, plain_rng,
                                  config.seed);
    untraced_p50 = quantile(r.latencies(false), 0.5);
  }

  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<Service> s;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    s.reset();
    const auto t = Clock::now();
    s = set_up(config.seed, config.trace);
    setup_s.push_back(seconds_since(t));
    generate_s.push_back(s->generate_s);
  }

  // CPU per op is read below the overload rung, whose backlog makes its
  // cost depend on how many cache misses pile up.
  const auto stats0 = s->service->stats();
  std::vector<RungResult> rungs;
  double cpu = 0.0;
  std::size_t cpu_ops = 0;
  for (const double rate : kRungs) {
    const double cpu0 = cpu_seconds();
    rungs.push_back(run_rung(*s, rate, rung_seconds, rng, config.seed));
    if (rate < kRungs[std::size(kRungs) - 1]) {
      cpu += cpu_seconds() - cpu0;
      cpu_ops += rungs.back().ops.size();
    }
  }
  const auto stats = s->service->stats();

  EpochOracles oracles(s->base, s->corpus->log());
  SplitLedger ledger;
  bds::RunResult last_direct;
  std::vector<double> ratios;
  const RungResult* report = nullptr;
  const RungResult* best = nullptr;  // highest rung meeting the SLO
  for (const auto& r : rungs) {
    out.attempted += r.ops.size();
    out.failed += r.failed;
    out.failed += verify(r, oracles, config.seed, config.trace ? &ledger : nullptr,
                         &last_direct);
    for (std::size_t i = 0; i < r.ops.size(); ++i) {
      const auto& res = r.done[i].result;
      if (r.ops[i].kind == Op::kQuery && r.ops[i].k == kBudgets[3] &&
          !r.done[i].failed && res.upper_bound > 0.0) {
        ratios.push_back(res.value / res.upper_bound);
      }
    }
    if (r.rate == kReportRung) report = &r;
    if (r.passed) best = &r;
    std::printf("  rung %6.0f ops/s: %zu ops, achieved %.1f/s, query p99 %.4f s, "
                "lag p99 %.5f s, backlog %s, failed %zu -> %s\n",
                r.rate, r.ops.size(), r.achieved, r.query_p99, r.lag_p99,
                r.backlog_ok ? "ok" : "GROWING", r.failed,
                r.passed ? "pass" : "FAIL");
  }
  out.correct = out.failed == 0;

  if (!config.trace) {
    const auto queries = report->latencies(false);
    m.set("setup_s", median(setup_s), "s");
    m.set("op_s.p50", quantile(queries, 0.5), "s");
    m.set("ops_per_s", rungs.back().achieved, "1/s");
    m.set("cpu_s_per_op", cpu / static_cast<double>(cpu_ops), "s");
    m.set("f_over_ub", median(ratios), "ratio");
    m.set("peak_rss_mb", peak_rss_mb(RUSAGE_SELF), "MB");
    return out;
  }

  const auto mutations = static_cast<double>(stats.mutations - stats0.mutations);
  const auto delta = [&](std::uint64_t bds::serve::ServiceStats::*field) {
    return static_cast<double>(stats.*field - stats0.*field);
  };
  const double queries = delta(&bds::serve::ServiceStats::queries);
  m.set("serve.hit_rate",
        (delta(&bds::serve::ServiceStats::hits) +
         delta(&bds::serve::ServiceStats::coalesced)) / queries, "share");
  m.set("serve.computed", delta(&bds::serve::ServiceStats::computed), "count");
  m.set("serve.coalesced", delta(&bds::serve::ServiceStats::coalesced), "count");
  m.set("serve.degraded", delta(&bds::serve::ServiceStats::degraded), "count");
  m.set("serve.rejected", delta(&bds::serve::ServiceStats::rejected), "count");
  m.set("serve.recertified_per_mutation",
        delta(&bds::serve::ServiceStats::summaries_recertified) / mutations, "count");
  m.set("serve.invalidated_per_mutation",
        delta(&bds::serve::ServiceStats::summaries_invalidated) / mutations, "count");
  m.set("serve.evals_spent", delta(&bds::serve::ServiceStats::evals_spent), "count");
  m.set("serve.evals_saved", delta(&bds::serve::ServiceStats::evals_saved), "count");
  std::vector<double> queue_s;
  std::vector<double> run_s;
  for (const auto& span : s->service->drain_query_spans()) {
    if (span.outcome == "hit" || span.outcome.rfind("mutate", 0) == 0) continue;
    queue_s.push_back(span.queue_seconds);
    run_s.push_back(span.run_seconds);
  }
  m.set("serve.queue_s.p99", quantile(queue_s, 0.99), "s");
  m.set("serve.run_s.p99", quantile(run_s, 0.99), "s");
  const auto report_queries = report->latencies(false);
  const auto report_mutations = report->latencies(true);
  m.set("serve.query_s.p50", quantile(report_queries, 0.5), "s");
  m.set("serve.query_s.p99", quantile(report_queries, 0.99), "s");
  m.set("bench.op_s.p90", quantile(report_queries, 0.9), "s");
  m.set("serve.mutate_s.p50", quantile(report_mutations, 0.5), "s");
  m.set("serve.mutate_s.p99", quantile(report_mutations, 0.99), "s");
  m.set("serve.max_ops_at_slo", best != nullptr ? best->rate : 0.0, "1/s");
  std::vector<double> lags;
  for (const auto& r : rungs) {
    for (const auto& d : r.done) {
      if (d.lag >= 0.0) lags.push_back(d.lag);
    }
  }
  m.set("bench.generator_lag_s.p99", quantile(lags, 0.99), "s");
  m.set("bench.trace_overhead", quantile(report_queries, 0.5) / untraced_p50, "ratio");
  m.set("data.generate_s", median(generate_s), "s");
  probe_apply(*s, m);
  if (!ledger.empty()) ledger.emit(m, last_direct);

  // Objective / selector / certificate layers on the final epoch's corpus.
  const auto& final_ref = oracles.at(s->corpus->epoch());
  const auto solution = last_direct.solution;
  probe_objective_layers(*final_ref.proto, final_ref.ground, solution,
                         kBudgets[3], kRounds, kMachines, config.seed, m);
  bds::data::ImageVectorsConfig cfg;
  cfg.images = 256;
  cfg.dim = 512;
  cfg.seed = config.seed;
  probe_l2_kernel(*bds::data::make_image_like_vectors(cfg), m);
  return out;
}

}  // namespace perf
