// perfbench: shared pieces of the repository benchmark (README.md).
//
// The benchmark runs one named workload for a fixed time, checks the
// program's outputs, and prints one JSON result line. Untraced runs
// report the end-to-end metrics; traced runs report the per-layer
// metrics. Every span and every timing is taken here, around calls into
// the layers' public functions: nothing under src/ is instrumented for
// the benchmark.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/optimizer.hpp"
#include "core/refit.hpp"
#include "core/sample.hpp"
#include "measure/plan.hpp"
#include "measure/runner.hpp"

namespace perfbench {

using namespace hetsched;

/// Nanoseconds on the monotonic clock. CLOCK_MONOTONIC is system-wide,
/// so values taken in different processes compare directly (the set-up
/// probes rely on that).
using Ns = std::int64_t;
Ns now_ns();
inline double to_s(Ns ns) { return static_cast<double>(ns) * 1e-9; }
inline double to_ms(Ns ns) { return static_cast<double>(ns) * 1e-6; }

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

/// The best of `items`' figures: the lowest, or the highest when
/// `higher_is_better`. Other tenants of the host only ever slow work down,
/// so the best of several equal pieces of work is the least disturbed.
template <typename T, typename Figure>
double best_of(const std::vector<T>& items, Figure&& figure,
               bool higher_is_better = false) {
  double best = figure(items.front());
  for (const T& item : items)
    best = higher_is_better ? std::max(best, figure(item)) : std::min(best, figure(item));
  return best;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string advisord;  ///< daemon binary (serving workloads)
  std::string workdir;   ///< scratch directory inside the checkout
};

/// The result document: attempted/failed operation counts, a
/// correctness verdict and the named metrics, printed as the last line
/// of standard output.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  /// One operation the program failed (e.g. answered with an error);
  /// the first few reasons go to standard error.
  void fail(const std::string& why);
  /// One operation whose output is wrong: it counts as failed and makes
  /// the run incorrect.
  void wrong(const std::string& why);
  /// Marks the whole run invalid (e.g. the load generator fell behind):
  /// its figures are not reported as measurements.
  void invalidate(const std::string& why);
  bool correct() const { return wrong_ == 0 && valid_; }
  std::string json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t wrong_ = 0;
  bool valid_ = true;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// In-memory span log (name, start, end, parent, request id), written
/// out as a Chrome trace when the benchmark ends. Disabled logs record
/// nothing, so untraced runs pay only a branch.
class SpanLog {
 public:
  struct Span {
    std::string name;
    Ns start = 0;
    Ns end = 0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open one; returns its id
  /// (-1 when disabled). Spans opened with begin() must nest: the log
  /// is for one thread.
  int begin(const std::string& name);
  void end(int id);
  /// Innermost open span, or -1.
  int current() const { return open_.empty() ? -1 : open_.back(); }
  /// Records a finished span.
  int add(const std::string& name, Ns start, Ns end, int parent = -1,
          std::uint64_t request = 0);

  /// Self time of the spans named `name`: each span's duration minus
  /// the part of its interval that its direct children cover.
  double self_s(const std::string& name) const;

  /// Chrome-trace JSON ("X" events; parent and request id in args).
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span in a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : log_(log), id_(log.begin(name)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// A child process with its standard output (and optionally standard
/// error) on pipes.
struct Child {
  int pid = -1;
  int out_fd = -1;
  int err_fd = -1;
};
/// Starts `argv` (argv[0] is the program path). Throws on failure.
Child spawn(const std::vector<std::string>& argv, bool capture_stderr);
/// Path of this executable.
std::string self_exe();

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb();
/// User + system CPU seconds of this process so far.
double process_cpu_s();
/// Value of an obs registry counter in this process.
std::uint64_t counter(const char* name);

/// The paper's HPL workload wrapped for timing: every call's duration
/// lands in `run_us`, and in `log` as an "hpl.run" span when tracing.
/// Both must outlive the returned function.
measure::WorkloadFn timed_hpl(SpanLog& log, std::vector<double>& run_us);

/// A measured fit of one or more plans through one fresh Runner, with
/// what the per-layer metrics need from it.
struct FitRecord {
  std::vector<double> run_us;    ///< per simulated run
  std::vector<double> build_ms;  ///< per ModelBuilder::build
  double wall_s = 0;             ///< whole pipeline
  double cpu_s = 0;
  std::uint64_t events = 0, cancelled = 0, msgs = 0, bytes = 0;
  std::uint64_t runs = 0, cache_hits = 0, cache_misses = 0;
  std::uint64_t search_hits = 0, search_misses = 0;
};

/// Counter deltas of the layers a fit drives, between two points.
class CounterWindow {
 public:
  CounterWindow();
  /// Adds the deltas since construction into `rec`.
  void close(FitRecord& rec) const;

 private:
  std::uint64_t events_, cancelled_, msgs_, bytes_, runs_, hits_, misses_,
      search_hits_, search_misses_;
};

/// Emits the des/mpisim/hpl/measure per-layer metrics of a fit.
/// `measure_self_s` is the run_plan/evaluate_at span time minus the hpl
/// spans inside it.
void report_fit_layers(const FitRecord& rec, double measure_self_s,
                       Result& out);

/// What the in-process replays price and fit: the workload's model,
/// the configurations and sizes its stream asks about, its measurement
/// sets and its observations.
struct ReplayInputs {
  const core::Estimator* est = nullptr;
  const core::ConfigSpace* space = nullptr;
  std::vector<const core::MeasurementSet*> sets;
  std::vector<cluster::Config> configs;
  std::vector<int> ns;
  std::vector<core::Observation> observations;
};

/// Times the linalg/core/search layers in process on the workload's own
/// inputs: linalg.fit_robust_us, linalg.qr_push_ns, core.estimate_ns,
/// core.batch_build_us, core.sweep_ns_per_candidate, core.refit_ms,
/// search.rank_all_us and search.cache_hit_frac.
void replay_layers(const ReplayInputs& in, Result& out);

/// Emits every server.* and gen.* per-layer metric as 0: the workload
/// bypasses the advisor service.
void report_no_server(Result& out);

/// Evaluation sizes of the paper's Tables 4 (Basic), 7 (NL) and 9 (NS).
std::vector<int> table_sizes(const std::string& plan_name);

/// Observation of one measured run, as the refit buffer stores it.
core::Observation observation_of(const core::Sample& s);

int run_campaign(const Options& opts, Result& out);
/// Child side of the campaign set-up probe: builds everything up to the
/// first plan run, prints the monotonic time, exits.
int campaign_setup_probe(const Options& opts);
int run_serving(const Options& opts, Result& out);

}  // namespace perfbench
