#include "bench.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "obs/metrics.hpp"
#include "server/protocol.hpp"
#include "support/error.hpp"

extern char** environ;

namespace perfbench {

Ns now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<Ns>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // An infinite sample (a failed request) stays infinite instead of
  // turning into NaN through inf - inf or inf * 0.
  if (frac == 0.0 || xs[lo] == xs[hi]) return xs[lo];
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

// ---- Result ----------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    wrong("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = {value, unit};
}

void Result::fail(const std::string& why) {
  if (failed_ < 10) std::cerr << "perfbench: FAILED: " << why << "\n";
  ++failed_;
}

void Result::wrong(const std::string& why) {
  fail("wrong output: " + why);
  ++wrong_;
}

void Result::invalidate(const std::string& why) {
  std::cerr << "perfbench: INVALID RUN: " << why << "\n";
  valid_ = false;
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\":" << (correct() ? "true" : "false")
     << ",\"attempted\":" << std::max<std::uint64_t>(attempted_, 1)
     << ",\"failed\":" << failed_ << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", vu.first);
    os << (first ? "" : ",") << server::json_quote(name) << ":{\"value\":"
       << num << ",\"unit\":" << server::json_quote(vu.second) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// ---- SpanLog ---------------------------------------------------------------

int SpanLog::begin(const std::string& name) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, now_ns(), 0, current(), 0});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_ns();
  open_.pop_back();
}

int SpanLog::add(const std::string& name, Ns start, Ns end, int parent,
                 std::uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

double SpanLog::self_s(const std::string& name) const {
  std::vector<std::vector<std::pair<Ns, Ns>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
  Ns self = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    // Union of the children's intervals, clipped to the parent's.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    Ns covered = 0, reach = s.start;
    for (const auto& [b, e] : kids) {
      const Ns lo = std::max(b, reach), hi = std::min(e, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    self += (s.end - s.start) - covered;
  }
  return to_s(self);
}

void SpanLog::write(const std::string& path) const {
  if (!enabled_) return;
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char ts[64];
    std::snprintf(ts, sizeof ts, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start) * 1e-3,
                  static_cast<double>(s.end - s.start) * 1e-3);
    out << (i ? ",\n" : "\n") << "{\"name\":" << server::json_quote(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1," << ts
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
}

// ---- process probes --------------------------------------------------------

Child spawn(const std::vector<std::string>& argv, bool capture_stderr) {
  int out[2] = {-1, -1}, err[2] = {-1, -1};
  HETSCHED_CHECK(::pipe(out) == 0, "perfbench: pipe failed");
  if (capture_stderr) HETSCHED_CHECK(::pipe(err) == 0, "perfbench: pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, out[1], 1);
  posix_spawn_file_actions_addclose(&fa, out[0]);
  posix_spawn_file_actions_addclose(&fa, out[1]);
  if (capture_stderr) {
    posix_spawn_file_actions_adddup2(&fa, err[1], 2);
    posix_spawn_file_actions_addclose(&fa, err[0]);
    posix_spawn_file_actions_addclose(&fa, err[1]);
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(out[1]);
  if (capture_stderr) ::close(err[1]);
  if (rc != 0) {
    ::close(out[0]);
    if (capture_stderr) ::close(err[0]);
    HETSCHED_CHECK(false, "perfbench: cannot start " + argv[0]);
  }
  return Child{pid, out[0], capture_stderr ? err[0] : -1};
}

std::string self_exe() {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  HETSCHED_CHECK(len > 0, "perfbench: cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(len));
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

std::uint64_t counter(const char* name) {
  return obs::snapshot().counter_value(name);
}

measure::WorkloadFn timed_hpl(SpanLog& log, std::vector<double>& run_us) {
  return [inner = measure::hpl_workload(), &log, &run_us](
             const cluster::ClusterSpec& spec, const cluster::Config& config,
             int n, std::uint64_t salt) {
    const Ns t0 = now_ns();
    core::Sample s = inner(spec, config, n, salt);
    const Ns t1 = now_ns();
    run_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    log.add("hpl.run", t0, t1, log.current());
    return s;
  };
}

// ---- fit records -----------------------------------------------------------

CounterWindow::CounterWindow() {
  const obs::MetricsSnapshot snap = obs::snapshot();
  events_ = snap.counter_value("des.events_dispatched");
  cancelled_ = snap.counter_value("des.events_cancelled");
  msgs_ = snap.counter_value("mpisim.sends");
  bytes_ = snap.counter_value("mpisim.bytes_sent");
  runs_ = snap.counter_value("measure.runs");
  hits_ = snap.counter_value("measure.cache_hits");
  misses_ = snap.counter_value("measure.cache_misses");
  search_hits_ = snap.counter_value("search.cache.hits");
  search_misses_ = snap.counter_value("search.cache.misses");
}

void CounterWindow::close(FitRecord& rec) const {
  const obs::MetricsSnapshot snap = obs::snapshot();
  rec.events += snap.counter_value("des.events_dispatched") - events_;
  rec.cancelled += snap.counter_value("des.events_cancelled") - cancelled_;
  rec.msgs += snap.counter_value("mpisim.sends") - msgs_;
  rec.bytes += snap.counter_value("mpisim.bytes_sent") - bytes_;
  rec.runs += snap.counter_value("measure.runs") - runs_;
  rec.cache_hits += snap.counter_value("measure.cache_hits") - hits_;
  rec.cache_misses += snap.counter_value("measure.cache_misses") - misses_;
  rec.search_hits += snap.counter_value("search.cache.hits") - search_hits_;
  rec.search_misses +=
      snap.counter_value("search.cache.misses") - search_misses_;
}

namespace {
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
}  // namespace

void report_fit_layers(const FitRecord& rec, double measure_self_s,
                       Result& out) {
  const double busy_s =
      std::accumulate(rec.run_us.begin(), rec.run_us.end(), 0.0) * 1e-6;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  out.metric("des.events", d(rec.events), "count");
  out.metric("des.events_per_s", ratio(d(rec.events), busy_s), "1/s");
  out.metric("des.cancel_frac", ratio(d(rec.cancelled), d(rec.events)), "1");
  out.metric("mpisim.msgs", d(rec.msgs), "count");
  out.metric("mpisim.bytes", d(rec.bytes), "count");
  out.metric("hpl.run_us.p50", quantile(rec.run_us, 0.5), "us");
  out.metric("hpl.run_us.p99", quantile(rec.run_us, 0.99), "us");
  out.metric("hpl.busy_frac", ratio(busy_s, rec.wall_s), "1");
  out.metric("measure.runs", d(rec.runs), "count");
  out.metric("measure.self_s", measure_self_s, "s");
  out.metric("measure.cache_hit_frac",
             ratio(d(rec.cache_hits), d(rec.cache_hits + rec.cache_misses)),
             "1");
  out.metric("measure.cpu_util", ratio(rec.cpu_s, rec.wall_s), "1");
  out.metric("core.build_ms", median(rec.build_ms), "ms");
}

void report_no_server(Result& out) {
  for (const char* name :
       {"server.service_us.p50", "server.service_us.p99",
        "server.transport_us.p50"})
    out.metric(name, 0.0, "us");
  for (const char* name : {"server.cache_hit_frac", "server.inproc_cache_hit_frac",
                           "server.refit.accept_frac", "server.observe_drop_frac"})
    out.metric(name, 0.0, "1");
  for (const char* name : {"server.read_p50_ms", "server.read_p99_ms",
                           "server.observe_p50_ms", "server.refit_p50_ms"})
    out.metric(name, 0.0, "ms");
  out.metric("server.max_read_qps", 0.0, "1/s");
  out.metric("server.batch_size.mean", 0.0, "req");
  out.metric("server.swaps", 0.0, "count");
  out.metric("gen.late_p99_ms", 0.0, "ms");
}

std::vector<int> table_sizes(const std::string& plan_name) {
  if (plan_name == measure::basic_plan().name)
    return {3200, 4800, 6400, 8000, 9600};
  return {1600, 3200, 4800, 6400, 8000, 9600};
}

core::Observation observation_of(const core::Sample& s) {
  core::Observation o;
  o.config = s.config;
  o.n = s.n;
  for (const auto& k : s.kinds) {
    o.measured_tai += k.tai;
    o.measured_tci += k.tci;
  }
  return o;
}

}  // namespace perfbench
