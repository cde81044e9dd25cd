// The `campaign` workload: the paper's offline pipeline, in process.
//
// One repetition runs a fresh measure::Runner (its noise salt one of eight
// derived from the seed) over the Basic, NL and NS plans, fits each with
// core::ModelBuilder, and evaluates each model with measure::evaluate_at
// at its table's sizes (paper Tables 4, 7 and 9). Repetitions continue
// until the run time is used up, nine at least; a repetition that reuses a
// salt must reproduce that salt's first repetition exactly.
//
// The workload's reads are the pipeline's estimate side (every covered
// candidate priced at every evaluation size); its feedback is the same
// loop the advisor runs online, here in process: each evaluation
// measurement goes into a core::ObservationBuffer and one
// core::RefitEngine pass runs per family.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <iostream>
#include <set>
#include <string>

#include "bench.hpp"
#include "core/model_builder.hpp"
#include "measure/evaluation.hpp"
#include "search/engine.hpp"

namespace perfbench {

namespace {

struct Family {
  measure::MeasurementPlan plan;
  std::vector<int> sizes;
};

std::vector<Family> families() {
  std::vector<Family> out;
  for (measure::MeasurementPlan plan :
       {measure::basic_plan(), measure::nl_plan(), measure::ns_plan()}) {
    std::vector<int> sizes = table_sizes(plan.name);
    out.push_back(Family{std::move(plan), std::move(sizes)});
  }
  return out;
}

/// Everything a repetition builds before its first plan run; the set-up
/// probe times exactly this. The runner's workload writes into run_us, so
/// a Pipeline stays where it was built.
struct Pipeline {
  Pipeline(SpanLog& log, std::uint64_t salt)
      : runner(spec, timed_hpl(log, run_us), salt) {}
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  cluster::ClusterSpec spec = cluster::paper_cluster();
  core::ConfigSpace space = core::ConfigSpace::paper_eval();
  std::vector<Family> fams = families();
  std::vector<double> run_us;
  measure::Runner runner;
  search::Engine engine;
};

struct Repetition {
  FitRecord fit;
  std::vector<measure::EvalRow> rows;
  // Kept for the traced run's in-process replays.
  std::vector<core::MeasurementSet> sets;
  std::vector<core::Estimator> models;
  std::vector<core::Observation> observations;
  double measure_self_s = 0;
};

std::string run_key(const cluster::Config& config, int n) {
  return config.to_string() + "@" + std::to_string(n);
}

bool same_row(const measure::EvalRow& a, const measure::EvalRow& b) {
  return a.n == b.n && a.estimated_best == b.estimated_best &&
         a.actual_best == b.actual_best && a.tau == b.tau &&
         a.tau_hat == b.tau_hat && a.t_hat == b.t_hat;
}

Repetition run_repetition(std::uint64_t salt, SpanLog& log, Result& out) {
  Repetition rep;
  Pipeline p(log, salt);
  std::set<std::string> expected_runs;

  const double self0 =
      log.self_s("measure.run_plan") + log.self_s("measure.evaluate_at");
  const CounterWindow window;
  const double cpu0 = process_cpu_s();
  const Ns t0 = now_ns();
  for (const Family& fam : p.fams) {
    core::MeasurementSet ms;
    {
      ScopedSpan span(log, "measure.run_plan");
      ms = p.runner.run_plan(fam.plan);
    }
    for (const auto& config : fam.plan.construction_configs())
      for (const int n : fam.plan.ns) expected_runs.insert(run_key(config, n));
    for (const auto& config : fam.plan.adjust_configs)
      for (const int n : fam.plan.adjust_ns)
        expected_runs.insert(run_key(config, n));

    const Ns b0 = now_ns();
    core::Estimator est = core::ModelBuilder(p.spec).build(ms);
    rep.fit.build_ms.push_back(to_ms(now_ns() - b0));

    for (const int n : fam.sizes) {
      out.attempted();
      measure::EvalRow row;
      {
        ScopedSpan span(log, "measure.evaluate_at");
        row = measure::evaluate_at(p.engine, est, p.runner, p.space, n);
      }
      const core::Ranked oracle = core::best_exhaustive(est, p.space, n);
      if (!(row.estimated_best == oracle.config && row.tau == oracle.estimate))
        out.wrong(fam.plan.name + " n=" + std::to_string(n) +
                 ": engine argmin differs from core::best_exhaustive");
      rep.rows.push_back(row);

      for (const auto& config : p.space.all()) {
        if (!est.covers(config)) continue;
        expected_runs.insert(run_key(config, n));
        out.attempted();
        const Seconds t = est.estimate(config, n);
        if (!(std::isfinite(t) && t > 0))
          out.wrong("estimate of " + run_key(config, n) +
                   " is not finite and positive");
      }
    }
    rep.sets.push_back(std::move(ms));
    rep.models.push_back(std::move(est));
  }
  rep.fit.wall_s = to_s(now_ns() - t0);
  rep.fit.cpu_s = process_cpu_s() - cpu0;
  window.close(rep.fit);
  rep.fit.run_us = p.run_us;
  rep.measure_self_s = log.self_s("measure.run_plan") +
                       log.self_s("measure.evaluate_at") - self0;

  out.attempted();
  if (rep.fit.runs != expected_runs.size() ||
      p.runner.runs_executed() != expected_runs.size())
    out.wrong("measure.runs " + std::to_string(rep.fit.runs) +
             " != plan runs + evaluation runs " +
             std::to_string(expected_runs.size()));

  // Feedback, in process: every evaluation measurement is observed, then
  // one refit pass per family. Outside the counter window: these are
  // cache hits the pipeline itself never makes.
  for (std::size_t f = 0; f < p.fams.size(); ++f) {
    core::ObservationBuffer buf;
    for (const int n : p.fams[f].sizes)
      for (const auto& config : p.space.all()) {
        if (!rep.models[f].covers(config)) continue;
        const core::Observation o = observation_of(p.runner.measure(config, n));
        rep.observations.push_back(o);
        out.attempted();
        buf.add(o);
      }
    out.attempted();
    const core::RefitReport report = core::RefitEngine().refit(rep.models[f], buf);
    if (report.classes.empty())
      out.wrong(p.fams[f].plan.name + ": refit saw no model class");
  }
  return rep;
}

double mean_abs(const std::vector<measure::EvalRow>& rows,
                double (measure::EvalRow::*err)() const) {
  double sum = 0;
  for (const auto& r : rows) sum += std::abs((r.*err)());
  return rows.empty() ? 0.0 : sum / static_cast<double>(rows.size());
}

/// Launch-to-first-plan-run time of a fresh campaign process, as the
/// median of several launches.
double setup_seconds(const Options& opts) {
  std::vector<double> probes;
  for (int i = 0; i < 21; ++i) {
    const Ns launch = now_ns();
    const Child child = spawn({self_exe(), "--setup-probe", "--workload",
                               "campaign", "--seed",
                               std::to_string(opts.seed)},
                              false);
    std::string text;
    char buf[256];
    for (ssize_t r; (r = ::read(child.out_fd, buf, sizeof buf)) > 0;)
      text.append(buf, static_cast<std::size_t>(r));
    ::close(child.out_fd);
    int status = 0;
    ::waitpid(child.pid, &status, 0);
    HETSCHED_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                       !text.empty(),
                   "perfbench: campaign set-up probe failed");
    probes.push_back(to_s(std::stoll(text) - launch));
  }
  return median(probes);
}

}  // namespace

int campaign_setup_probe(const Options& opts) {
  SpanLog log(false);
  Pipeline p(log, opts.seed);
  std::cout << now_ns() << "\n" << std::flush;
  return 0;
}

int run_campaign(const Options& opts, Result& out) {
  const double setup_s = opts.trace ? 0.0 : setup_seconds(opts);

  // The accuracy figures average kSalts independent noise salts, so one
  // unlucky draw does not decide them; repetitions past the first
  // kSalts reuse the salts and must reproduce their first results
  // exactly, and an untraced run makes at least one of those. A traced
  // run measures its first repetition untraced, for the tracing
  // overhead, and the rest traced.
  constexpr std::size_t kSalts = 8;
  SpanLog untraced(false), traced(opts.trace);
  std::vector<Repetition> reps;
  const Ns start = now_ns();
  for (;;) {
    const std::size_t r = reps.size();
    SpanLog& log = opts.trace && r > 0 ? traced : untraced;
    reps.push_back(run_repetition(opts.seed * kSalts + r % kSalts, log, out));
    if (!(opts.trace && r == 1)) {
      // Only the first traced repetition's inputs are replayed. Dropping
      // the others keeps the peak RSS from growing with the number of
      // repetitions the run time fits.
      Repetition& done = reps.back();
      done.sets = std::vector<core::MeasurementSet>();
      done.models = std::vector<core::Estimator>();
      done.observations = std::vector<core::Observation>();
    }
    if (r >= kSalts) {
      const auto& a = reps[r - kSalts].rows;
      const auto& b = reps[r].rows;
      out.attempted();
      bool same = a.size() == b.size();
      for (std::size_t i = 0; same && i < a.size(); ++i)
        same = same_row(a[i], b[i]);
      if (!same) out.wrong("repetition differs from the first at equal salt");
    }
    const bool timed_out = to_s(now_ns() - start) >= opts.seconds;
    if (opts.trace ? timed_out && reps.size() >= 2
                   : timed_out && reps.size() > kSalts)
      break;
  }

  if (opts.trace) {
    // The per-layer figures come from the first traced repetition: its
    // salt is fixed, so its counts repeat exactly at a seed however many
    // repetitions the host's speed fits into the run.
    const Repetition& first = reps[1];
    std::vector<double> traced_wall;
    for (std::size_t i = 1; i < reps.size(); ++i)
      traced_wall.push_back(reps[i].fit.wall_s);
    out.metric("obs.trace_overhead_frac",
               median(traced_wall) / reps.front().fit.wall_s - 1.0, "1");
    // The fastest repetition's: other tenants only ever slow one down.
    out.metric("measure.runs_per_s", best_of(reps, [](const Repetition& r) {
                 return static_cast<double>(r.fit.runs) / r.fit.wall_s;
               }, true),
               "1/s");
    report_fit_layers(first.fit, first.measure_self_s, out);
    ReplayInputs in;
    in.est = &first.models.front();
    const core::ConfigSpace space = core::ConfigSpace::paper_eval();
    in.space = &space;
    for (const auto& ms : first.sets) in.sets.push_back(&ms);
    for (const auto& config : space.all())
      if (in.est->covers(config)) in.configs.push_back(config);
    for (const auto& row : first.rows) in.ns.push_back(row.n);
    in.observations = first.observations;
    replay_layers(in, out);
    report_no_server(out);
    traced.write(opts.workdir + "/campaign-" + std::to_string(opts.seed) +
                 ".trace.json");
    return 0;
  }

  // The accuracy figures average the first kSalts repetitions.
  std::vector<measure::EvalRow> rows;
  for (std::size_t r = 0; r < kSalts; ++r)
    rows.insert(rows.end(), reps[r].rows.begin(), reps[r].rows.end());
  out.metric("setup_s", setup_s, "s");
  out.metric("rss_mb", peak_rss_mb(), "MB");
  out.metric("selection_err", mean_abs(rows, &measure::EvalRow::selection_error), "1");
  out.metric("estimate_err", mean_abs(rows, &measure::EvalRow::estimate_error), "1");
  std::cerr << "perfbench: campaign " << reps.size() << " repetition(s) of "
            << reps.front().fit.runs << " runs\n";
  return 0;
}

}  // namespace perfbench
