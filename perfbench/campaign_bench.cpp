// Campaign benchmark executable. Builds one workload's inputs from a seed,
// runs one active-learning campaign through the public API and prints one
// JSON line with its measurements. perfbench/run.py repeats it for a fixed
// time, checks the gates and aggregates; perfbench/README.md describes the
// workloads and metrics.
//
// Usage: campaign_bench --workload NAME --seed N [--trace 0|1] [--setups K]
//
// --setups K builds the inputs K times and reports the median set-up time.
// --trace 1 arms the tracer around set-up and campaign and adds the
// per-layer breakdown ("layers") to the output.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/dataset.hpp"
#include "cluster/perf_model.hpp"
#include "common/perf_stats.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/continuous.hpp"
#include "core/learner.hpp"
#include "gp/kernels.hpp"
#include "selftime.hpp"
#include "stats/descriptive.hpp"

namespace al = alperf::al;
namespace cl = alperf::cluster;
namespace la = alperf::la;
namespace trace = alperf::trace;
using alperf::Measurement;
using alperf::PerfRegistry;
using alperf::stats::Rng;
using Clock = std::chrono::steady_clock;

namespace {

/// Bytes requested through the global operator new, library included.
std::atomic<std::uint64_t> gAllocBytes{0};

}  // namespace

// libstdc++'s operator new[] and nothrow forms call this one. delete is
// replaced too so that sanitizers see matching malloc/free pairs; GCC's
// -Wmismatched-new-delete misreads that free() once it inlines a delete.
void* operator new(std::size_t size) {
  gAllocBytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

/// Pins glibc's allocator for the whole process. By default every freed
/// mmap-sized block raises the mmap threshold to its own size, so a scratch
/// matrix that grows by one row per pick is just above it each time and
/// gets a fresh mapping: a late pool pick takes ~3k page faults, whose cost
/// swings with host load and dominated the spread of decide_p90_ms. With a
/// fixed threshold and no trimming the heap reuses those blocks; the bytes
/// allocated still show as the per-campaign "alloc_mb". Sanitizer runtimes
/// reject mallopt, so failure is recorded in the context, not fatal.
bool pinAllocator() {
  return mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 &&
         mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1;
}
bool gAllocatorPinned = false;

/// Width of the library's parallelFor pool in every run.
constexpr int kPoolThreads = 2;
/// Job width of the continuous workload's runtime model (Fig. 6 slice).
constexpr int kContinuousNp = 32;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// splitmix64 over a two-word key: every derived input is a pure function
/// of (seed, key).
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Workload {
  std::string name;
  bool continuous = false;
  int refitEvery = 1;
  int maxInFlight = 1;
  int picks = 0;
  /// The oracle sleeps 20–100 ms per call and fails the first attempt of
  /// about one row in 16.
  bool latency = false;
  /// Accepted band for final_rmse (log10 seconds).
  double rmseLo = 0.0;
  double rmseHi = 0.0;
};

/// Why each workload exists is in perfbench/README.md. The RMSE bands hold
/// with margin on every seed tried (pool 0.22-0.30, continuous 0.018-0.020).
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {.name = "pool-refit", .refitEvery = 1, .picks = 100, .rmseLo = 0.1,
       .rmseHi = 0.5},
      {.name = "pool-incremental", .refitEvery = 25, .picks = 250,
       .rmseLo = 0.1, .rmseHi = 0.5},
      {.name = "async-latency", .refitEvery = 1, .maxInFlight = 2,
       .picks = 100, .latency = true, .rmseLo = 0.1, .rmseHi = 0.5},
      {.name = "continuous", .continuous = true, .refitEvery = 3,
       .picks = 120, .rmseLo = 0.005, .rmseHi = 0.06},
  };
  return all;
}

alperf::gp::GaussianProcess makeGp(std::size_t dims) {
  alperf::gp::GpConfig cfg;
  cfg.nRestarts = 2;
  cfg.noise.lo = 1e-3;
  cfg.noise.initial = 1e-2;
  cfg.optStop.maxIterations = 40;
  return alperf::gp::GaussianProcess(
      alperf::gp::makeSquaredExponentialArd(1.0,
                                            std::vector<double>(dims, 1.0)),
      cfg);
}

/// Measurement boundary around the oracle. Async slots call it from their
/// own threads, so counters are atomic and the call log is locked. Each
/// key (problem row, or suggestion index) counts its own attempts.
class OracleProbe {
 public:
  struct Call {
    std::uint64_t startNanos = 0;  ///< since campaign start
    std::uint64_t endNanos = 0;
    bool firstAttempt = false;
  };

  /// Marks the campaign start, the origin of every logged interval.
  void start() { origin_ = Clock::now(); }

  /// Runs `attempt(k)` for the k-th call on `key` (k = 0 first).
  template <class F>
  Measurement measure(std::size_t key, F&& attempt) {
    trace::Span span("exec.oracle");
    int k = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      k = attempts_[key]++;
    }
    const auto t0 = Clock::now();
    const Measurement m = attempt(k);
    const auto t1 = Clock::now();
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (!m.usable()) failed_.fetch_add(1, std::memory_order_relaxed);
    busyNanos_.fetch_add(nanos(t1) - nanos(t0), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu_);
      log_.push_back({nanos(t0), nanos(t1), k == 0});
      chargedCost_ += m.totalCost();
    }
    return m;
  }

  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  double busySeconds() const {
    return static_cast<double>(busyNanos_.load()) / 1e9;
  }
  double chargedCost() const {
    std::lock_guard<std::mutex> lk(mu_);
    return chargedCost_;
  }

  /// Decision latency of every pick, in ms: from the most recent oracle
  /// return before the pick's first attempt started (the campaign start
  /// for the first pick) to that start. Retries are not decisions.
  std::vector<double> decisionMillis() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const Call& c : log_) {
      if (!c.firstAttempt) continue;
      std::uint64_t lastReturn = 0;
      for (const Call& d : log_)
        if (d.endNanos <= c.startNanos)
          lastReturn = std::max(lastReturn, d.endNanos);
      out.push_back(static_cast<double>(c.startNanos - lastReturn) / 1e6);
    }
    return out;
  }

 private:
  std::uint64_t nanos(Clock::time_point t) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count());
  }

  Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> busyNanos_{0};
  mutable std::mutex mu_;
  std::map<std::size_t, int> attempts_;
  std::vector<Call> log_;
  double chargedCost_ = 0.0;
};

/// Measurement boundary around the strategy: times select/selectBatch and
/// delegates everything to the wrapped strategy. Selection runs on the
/// coordinating thread only.
class TimedStrategy final : public al::Strategy {
 public:
  struct Stats {
    std::uint64_t calls = 0;
    double busySeconds = 0.0;
  };

  TimedStrategy(al::StrategyPtr inner, Stats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  std::string name() const override { return inner_->name(); }

  std::size_t select(const al::SelectionContext& ctx) override {
    trace::Span span("core.select");
    const auto t0 = Clock::now();
    const std::size_t pick = inner_->select(ctx);
    record(t0);
    return pick;
  }

  std::vector<std::size_t> selectBatch(const al::SelectionContext& ctx,
                                       std::size_t batchSize) override {
    trace::Span span("core.select");
    const auto t0 = Clock::now();
    auto picks = inner_->selectBatch(ctx, batchSize);
    record(t0);
    return picks;
  }

 private:
  void record(Clock::time_point t0) {
    ++stats_.calls;
    stats_.busySeconds += secondsSince(t0);
  }

  al::StrategyPtr inner_;
  Stats& stats_;
};

/// Small ordered JSON object writer (numbers, strings, bools, nested).
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof(buf), "%.10g", v);
    else
      std::snprintf(buf, sizeof(buf), "null");
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.6f", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  Json& strs(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      s += (i ? ",\"" : "\"") + v[i] + "\"";
    return raw(key, s + "]");
  }
  Json& obj(const std::string& key, const Json& v) {
    return raw(key, v.text());
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

/// What one campaign produced, whichever loop ran it.
struct Outcome {
  std::string stopReason;
  bool stoppedAtMaxIterations = false;
  std::size_t picks = 0;
  std::size_t quarantined = 0;
  double finalRmse = 0.0;
  double experimentCost = 0.0;
  double campaignSeconds = 0.0;  ///< wall time of the library's run call
};

/// Runs the library's campaign call inside the root span and times it.
template <class F>
auto timedCampaign(OracleProbe& probe, double& seconds, F&& call) {
  trace::Span span("bench.campaign");
  probe.start();
  const auto t0 = Clock::now();
  auto result = call();
  seconds = secondsSince(t0);
  return result;
}

/// Stage timings of the last set-up, and the total of every set-up.
struct SetupTimes {
  double generate = 0.0;
  double makeProblem = 0.0;
  std::vector<double> totals;
};

class PoolCampaign {
 public:
  PoolCampaign(const Workload& w, std::uint64_t seed) : w_(w), seed_(seed) {}

  void setup(SetupTimes& t) {
    const auto t0 = Clock::now();
    cl::GeneratedDataset ds;
    {
      trace::Span span("cluster.generate");
      cl::DatasetConfig dc;
      dc.seed = seed_;
      ds = cl::DatasetGenerator(dc).generate();
    }
    t.generate = secondsSince(t0);
    const auto t1 = Clock::now();
    {
      trace::Span span("data.make_problem");
      alperf::data::Table table = std::move(ds.performance);
      const auto runtime = table.numeric("RuntimeS");
      const auto cores = table.numeric("CoresUsed");
      std::vector<double> cost(table.numRows());
      for (std::size_t i = 0; i < cost.size(); ++i)
        cost[i] = runtime[i] * cores[i];
      table.addNumeric("CostCoreS", std::move(cost));
      problem_ = al::makeProblem(table, {"GlobalSize", "NP", "FreqGHz"},
                                 "RuntimeS", "CostCoreS",
                                 {"GlobalSize", "NP", "RuntimeS"});
    }
    t.makeProblem = secondsSince(t1);

    // Oracle latency grows linearly with log runtime, 20 to 100 ms.
    latencyMs_.assign(problem_.size(), 0.0);
    if (w_.latency) {
      const auto [lo, hi] =
          std::minmax_element(problem_.y.begin(), problem_.y.end());
      for (std::size_t r = 0; r < problem_.size(); ++r)
        latencyMs_[r] = 20.0 + 80.0 * (problem_.y[r] - *lo) / (*hi - *lo);
    }

    al::AlConfig cfg;
    cfg.maxIterations = w_.picks;
    cfg.refitEvery = w_.refitEvery;
    cfg.execution.maxInFlight = w_.maxInFlight;
    learner_ = std::make_unique<al::ActiveLearner>(
        problem_, makeGp(problem_.dim()),
        std::make_unique<TimedStrategy>(
            std::make_unique<al::VarianceReduction>(), select_),
        cfg);
    t.totals.push_back(secondsSince(t0));
  }

  Outcome run(OracleProbe& probe) {
    const al::Oracle oracle = [&](std::size_t row) {
      return probe.measure(
          row, [&](int attempt) { return measureRow(row, attempt); });
    };
    Rng rng(mix(seed_, 1));
    Outcome out;
    const al::AlResult result = timedCampaign(probe, out.campaignSeconds, [&] {
      return learner_->runFallible(oracle, al::RetryPolicy{}, rng);
    });
    out.stopReason = al::toString(result.stopReason);
    out.stoppedAtMaxIterations =
        result.stopReason == al::StopReason::MaxIterations;
    out.picks = result.history.size();
    out.quarantined = result.quarantined().size();
    out.experimentCost =
        result.history.empty() ? 0.0 : result.history.back().cumulativeCost;
    const auto& test = result.partition.test;
    la::Matrix testX(test.size(), problem_.dim());
    la::Vector testY(test.size());
    for (std::size_t i = 0; i < test.size(); ++i) {
      const auto row = problem_.x.row(test[i]);
      std::copy(row.begin(), row.end(), testX.row(i).begin());
      testY[i] = problem_.y[test[i]];
    }
    out.finalRmse =
        alperf::stats::rmse(result.finalGp.predict(testX).mean, testY);
    return out;
  }

  const TimedStrategy::Stats& selectStats() const { return select_; }

 private:
  Measurement measureRow(std::size_t row, int attempt) const {
    if (w_.latency) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(latencyMs_[row]));
      if (attempt == 0 && mix(seed_, row) % 16 == 0)
        return Measurement::failed(0.5 * problem_.cost[row]);
    }
    return Measurement::ok(problem_.y[row], problem_.cost[row]);
  }

  const Workload& w_;
  std::uint64_t seed_;
  al::RegressionProblem problem_;
  std::vector<double> latencyMs_;
  TimedStrategy::Stats select_;
  std::unique_ptr<al::ActiveLearner> learner_;
};

class ContinuousCampaign {
 public:
  ContinuousCampaign(const Workload& w, std::uint64_t seed)
      : w_(w), seed_(seed) {}

  void setup(SetupTimes& t) {
    const auto t0 = Clock::now();
    {
      trace::Span span("cluster.generate");
      model_ = std::make_unique<cl::PerfModel>();
      // Dense grid of noise-free truths over the box.
      const int ns = 241, nf = 97;
      truthX_ = la::Matrix(static_cast<std::size_t>(ns * nf), 2);
      truthY_.assign(truthX_.rows(), 0.0);
      std::size_t r = 0;
      for (int i = 0; i < ns; ++i)
        for (int j = 0; j < nf; ++j, ++r) {
          truthX_(r, 0) = kLo[0] + (kHi[0] - kLo[0]) * i / (ns - 1);
          truthX_(r, 1) = kLo[1] + (kHi[1] - kLo[1]) * j / (nf - 1);
          truthY_[r] = std::log10(model_->meanRuntime(
              request(truthX_(r, 0), truthX_(r, 1))));
        }
    }
    t.generate = secondsSince(t0);
    const auto t1 = Clock::now();
    {
      trace::Span span("data.make_problem");
      // Two seed experiments at seed-drawn points of the box.
      Rng rng(mix(seed_, 2));
      seedX_ = la::Matrix(2, 2);
      seedY_.assign(2, 0.0);
      for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t d = 0; d < 2; ++d)
          seedX_(i, d) = rng.uniformReal(kLo[d], kHi[d]);
        seedY_[i] = std::log10(sample(seedX_.row(i), kSeedKeyBase + i));
      }
    }
    t.makeProblem = secondsSince(t1);
    t.totals.push_back(secondsSince(t0));
  }

  Outcome run(OracleProbe& probe) {
    std::size_t nextKey = 0;
    const al::Oracle oracle = [&](std::span<const double> x) {
      const std::size_t key = nextKey++;
      return probe.measure(key, [&](int) {
        const double rt = sample(x, key);
        return Measurement::ok(std::log10(rt), rt * kContinuousNp);
      });
    };
    al::ContinuousAlConfig cfg;
    cfg.iterations = w_.picks;
    cfg.nStarts = 8;
    cfg.refitEvery = w_.refitEvery;
    const alperf::opt::BoxBounds box({kLo[0], kLo[1]}, {kHi[0], kHi[1]});
    Rng rng(mix(seed_, 1));
    Outcome out;
    const al::ContinuousAlResult result = timedCampaign(
        probe, out.campaignSeconds, [&] {
          return al::runContinuousAl(makeGp(2), seedX_, seedY_, box, oracle,
                                     al::RetryPolicy{},
                                     al::varianceAcquisition(), cfg, rng);
        });
    out.stopReason = al::toString(result.stopReason);
    out.stoppedAtMaxIterations =
        result.stopReason == al::StopReason::MaxIterations;
    out.picks = result.history.size();
    out.quarantined = static_cast<std::size_t>(
        std::count_if(result.history.begin(), result.history.end(),
                      [](const auto& r) { return !r.measured; }));
    out.experimentCost = probe.chargedCost();
    out.finalRmse =
        alperf::stats::rmse(result.finalGp.predict(truthX_).mean, truthY_);
    return out;
  }

 private:
  static constexpr double kLo[2] = {3.3, 1.2};  ///< log10 size, GHz
  static constexpr double kHi[2] = {9.0, 2.4};
  static constexpr std::size_t kSeedKeyBase = 1u << 30;

  static cl::JobRequest request(double logSize, double freq) {
    return {cl::Operator::Poisson1, std::pow(10.0, logSize), kContinuousNp,
            freq};
  }

  /// One noisy runtime at x; the noise is a pure function of (seed, key).
  double sample(std::span<const double> x, std::size_t key) const {
    Rng rng(mix(seed_, 1000 + key));
    return model_->sampleRuntime(request(x[0], x[1]), rng);
  }

  const Workload& w_;
  std::uint64_t seed_;
  std::unique_ptr<cl::PerfModel> model_;
  la::Matrix truthX_;
  la::Vector truthY_;
  la::Matrix seedX_;
  la::Vector seedY_;
};

std::uint64_t counter(const std::string& name) {
  return PerfRegistry::instance().count(name);
}

double timerSeconds(const std::string& name) {
  for (const auto& e : PerfRegistry::instance().snapshot())
    if (e.name == name) return static_cast<double>(e.totalNanos) / 1e9;
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int usage(const char* msg) {
  std::fprintf(stderr,
               "campaign_bench: %s\nusage: campaign_bench --workload NAME "
               "--seed N [--trace 0|1] [--setups K]\n",
               msg);
  return 2;
}

int runBench(const Workload& w, std::uint64_t seed, bool traced, int setups) {
  alperf::Parallelism::setThreads(kPoolThreads);
  auto& tracer = trace::Tracer::instance();
  if (traced) tracer.arm();

  std::unique_ptr<PoolCampaign> pool;
  std::unique_ptr<ContinuousCampaign> cont;
  SetupTimes st;
  for (int i = 0; i < setups; ++i) {
    if (w.continuous) {
      cont = std::make_unique<ContinuousCampaign>(w, seed);
      cont->setup(st);
    } else {
      pool = std::make_unique<PoolCampaign>(w, seed);
      pool->setup(st);
    }
  }

  std::uint64_t faults = counter("fault.injected");
  PerfRegistry::instance().reset();
  OracleProbe probe;
  const std::uint64_t allocBefore = gAllocBytes.load();
  const Outcome out = w.continuous ? cont->run(probe) : pool->run(probe);
  const double allocMb =
      static_cast<double>(gAllocBytes.load() - allocBefore) / (1 << 20);
  const double campaignS = out.campaignSeconds;
  if (traced) tracer.disarm();
  faults += counter("fault.injected");

  std::vector<std::string> errors;
  if (!out.stoppedAtMaxIterations)
    errors.push_back("stop reason " + out.stopReason + ", want MaxIterations");
  if (out.picks != static_cast<std::size_t>(w.picks))
    errors.push_back("picks " + std::to_string(out.picks) + ", want " +
                     std::to_string(w.picks));
  if (!std::isfinite(out.finalRmse) || out.finalRmse < w.rmseLo ||
      out.finalRmse > w.rmseHi)
    errors.push_back("final_rmse " + std::to_string(out.finalRmse) +
                     " outside [" + std::to_string(w.rmseLo) + ", " +
                     std::to_string(w.rmseHi) + "]");
  if (faults != 0) errors.push_back("fault.injected is nonzero");

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);

  Json ctx;
  ctx.num("seed", static_cast<double>(seed))
      .num("nproc", std::thread::hardware_concurrency())
      .num("pool_threads", alperf::Parallelism::threads())
      .num("max_in_flight", w.maxInFlight)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("allocator_pinned", gAllocatorPinned);

  Json res;
  res.str("workload", w.name)
      .boolean("traced", traced)
      .obj("context", ctx)
      .num("setup_s", median(st.totals))
      .num("campaign_s", campaignS)
      .nums("decide_ms", probe.decisionMillis())
      .num("final_rmse", out.finalRmse)
      .num("experiment_cost", out.experimentCost)
      .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .num("alloc_mb", allocMb)
      .num("picks", static_cast<double>(out.picks))
      .num("quarantined", static_cast<double>(out.quarantined))
      .str("stop", out.stopReason);

  if (traced) {
    const auto events = tracer.snapshot();
    const std::uint64_t dropped = counter("trace.dropped");
    if (dropped != 0) errors.push_back("trace.dropped is nonzero");
    const perfbench::SelfTimes self =
        perfbench::computeSelfTimes(events, "bench.campaign");
    const double root = static_cast<double>(self.rootNanos);
    const double attributed = static_cast<double>(self.rootLaneSelfNanos);
    if (root <= 0.0 || std::abs(attributed - root) > 0.05 * root)
      errors.push_back("main-lane self times do not sum to the campaign span");

    const double picks = static_cast<double>(out.picks);
    const double oracleCalls = static_cast<double>(probe.calls());
    const double fits = static_cast<double>(self.count("gp.fit"));
    const double gramHit = static_cast<double>(counter("gp.gram.hit"));
    const double gramMiss = static_cast<double>(counter("gp.gram.miss"));
    const TimedStrategy::Stats sel =
        pool ? pool->selectStats() : TimedStrategy::Stats{};
    Json layers;
    layers.num("cluster.generate_s", st.generate)
        .num("data.make_problem_s", st.makeProblem);
    for (const char* name :
         {"opt.hyperfit", "opt.start", "gp.fit", "gp.lml", "la.chol.factor",
          "gp.predict", "gp.poolcache", "gp.posterior", "gp.addObservation",
          "la.chol.extend", "al.iteration", "al.fit", "al.score", "al.select",
          "al.commit", "al.round", "opt.acquire", "exec.dispatch",
          "exec.inflight", "exec.measure"})
      layers.num(std::string(name) + ".self_s", self.selfSeconds(name));
    layers.num("opt.multistart.starts", counter("opt.multistart.starts"))
        .num("gp.lml_per_fit", ratio(self.count("gp.lml"), fits))
        .num("la.cholesky", counter("la.cholesky"))
        .num("la.trsm", counter("la.trsm"))
        .num("gp.gram.hit_ratio", ratio(gramHit, gramHit + gramMiss))
        .num("gp.poolcache.rebuild_per_iter",
             ratio(counter("gp.poolcache.rebuild"), picks))
        .num("core.select.calls", static_cast<double>(sel.calls))
        .num("core.select.busy_s", sel.busySeconds)
        .num("al.fit.full", counter("al.fit.full"))
        .num("al.fit.incremental", counter("al.fit.incremental"))
        .num("exec.oracle.calls", oracleCalls)
        .num("exec.oracle.busy_s", probe.busySeconds())
        .num("exec.oracle.failed", static_cast<double>(probe.failed()))
        .num("exec.slot_util",
             ratio(probe.busySeconds(), w.maxInFlight * campaignS))
        .num("exec.retry_ratio",
             ratio(static_cast<double>(probe.failed()), oracleCalls))
        .num("exec.commitwait_s", timerSeconds("exec.async.commitwait"))
        .num("trace.dropped", static_cast<double>(dropped))
        .num("trace.attributed_frac", ratio(attributed, root));
    res.obj("layers", layers);
  }
  res.strs("errors", errors);
  std::printf("%s\n", res.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  gAllocatorPinned = pinAllocator();
  for (const char* var : {"ALPERF_FAULTS", "ALPERF_TRACE", "ALPERF_LA_KERNELS",
                          "ALPERF_THREADS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "campaign_bench: %s is set; it changes the measured "
                   "program, unset it\n",
                   var);
      return 2;
    }
  }
  std::string workload;
  long long seed = -1;
  int traced = 0;
  int setups = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload")
      workload = value;
    else if (flag == "--seed")
      seed = std::atoll(value);
    else if (flag == "--trace")
      traced = std::atoi(value);
    else if (flag == "--setups")
      setups = std::atoi(value);
    else
      return usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (seed < 0) return usage("--seed N (N >= 0) is required");
  if (traced != 0 && traced != 1) return usage("--trace takes 0 or 1");
  if (setups < 1) return usage("--setups takes a positive count");
  for (const Workload& w : workloads()) {
    if (w.name != workload) continue;
    try {
      return runBench(w, static_cast<std::uint64_t>(seed), traced == 1,
                      setups);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "campaign_bench: %s\n", e.what());
      return 2;
    }
  }
  return usage(("unknown workload '" + workload + "'").c_str());
}
