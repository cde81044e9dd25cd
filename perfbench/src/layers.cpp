// In-process replays of the linalg, core and search layers on a
// workload's own inputs (traced runs only). Each figure is the median
// of several timed passes, so one slow pass does not move it.
#include <array>
#include <cmath>
#include <map>
#include <tuple>

#include "bench.hpp"
#include "core/batch.hpp"
#include "linalg/incremental.hpp"
#include "linalg/lls.hpp"
#include "search/engine.hpp"

namespace perfbench {

namespace {

constexpr int kPasses = 7;

/// Median over kPasses of (pass time / items), in nanoseconds per item.
template <typename Fn>
double per_item_ns(std::size_t items, Fn&& pass) {
  std::vector<double> ns;
  for (int i = 0; i < kPasses; ++i) {
    const Ns t0 = now_ns();
    pass();
    ns.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>(std::max<std::size_t>(items, 1)));
  }
  return median(ns);
}

/// The N-T fitting problems of the measurement sets: (n, tai) per
/// homogeneous (kind, pes, m) class, as core::NtModel::fit sees them.
std::vector<std::pair<std::vector<double>, std::vector<double>>> nt_problems(
    const std::vector<const core::MeasurementSet*>& sets) {
  std::vector<std::pair<std::vector<double>, std::vector<double>>> out;
  for (const core::MeasurementSet* ms : sets) {
    std::map<std::tuple<std::string, int, int>,
             std::pair<std::vector<double>, std::vector<double>>>
        groups;
    for (const core::Sample& s : ms->samples()) {
      if (s.config.usage.size() != 1) continue;
      const auto& u = s.config.usage.front();
      const auto km = s.measure_of(u.kind);
      if (!km) continue;
      auto& g = groups[{u.kind, u.pes, u.procs_per_pe}];
      g.first.push_back(s.n);
      g.second.push_back(km->tai);
    }
    for (auto& [key, g] : groups)
      if (g.first.size() >= 4) out.push_back(std::move(g));
  }
  return out;
}

/// Per-kind choice-index rows of every candidate in `space`, row-major,
/// in BatchEstimator's layout.
std::vector<std::size_t> all_rows(const core::ConfigSpace& space) {
  const auto& kinds = space.kinds();
  std::vector<std::size_t> rows, idx(kinds.size(), 0);
  for (;;) {
    bool all_absent = true;
    for (std::size_t k = 0; k < kinds.size(); ++k)
      all_absent = all_absent && kinds[k].choices[idx[k]].first == 0;
    if (!all_absent) rows.insert(rows.end(), idx.begin(), idx.end());
    std::size_t k = 0;
    while (k < kinds.size() && ++idx[k] == kinds[k].choices.size())
      idx[k++] = 0;
    if (k == kinds.size()) return rows;
  }
}

}  // namespace

void replay_layers(const ReplayInputs& in, Result& out) {
  const core::Estimator& est = *in.est;
  const core::ConfigSpace& space = *in.space;

  // linalg: the robust N-T fit, and the incremental window's row push.
  {
    const auto problems = nt_problems(in.sets);
    const linalg::Basis cubic = linalg::Basis::polynomial(3, 0);
    linalg::RobustOptions ropts;
    ropts.relative_residuals = true;
    out.metric("linalg.fit_robust_us",
               per_item_ns(problems.size(),
                           [&] {
                             for (const auto& [xs, ys] : problems)
                               linalg::fit_robust(cubic, xs, ys, ropts);
                           }) *
                   1e-3,
               "us");
  }
  {
    std::vector<std::array<double, 4>> rows;
    std::vector<double> ys;
    for (const core::Observation& o : in.observations) {
      const double s = o.n / 1000.0;
      rows.push_back({s * s * s, s * s, s, 1.0});
      ys.push_back(o.measured_tai);
    }
    out.metric("linalg.qr_push_ns", per_item_ns(rows.size(), [&] {
                 linalg::SlidingWindowLls window(4, 64);
                 for (std::size_t i = 0; i < rows.size(); ++i)
                   window.push(rows[i], ys[i]);
               }),
               "ns");
  }

  // core: scalar estimate, batch snapshot build, batched sweep, refit.
  out.metric("core.estimate_ns",
             per_item_ns(in.configs.size() * in.ns.size(), [&] {
               double sink = 0;
               for (const int n : in.ns)
                 for (const auto& config : in.configs)
                   sink += est.estimate(config, n);
               if (!(sink > 0)) out.wrong("replayed estimates are not positive");
             }),
             "ns");
  out.metric("core.batch_build_us", per_item_ns(in.ns.size(), [&] {
               for (const int n : in.ns) core::BatchEstimator batch(est, space, n);
             }) * 1e-3,
             "us");
  {
    const std::vector<std::size_t> rows = all_rows(space);
    const std::size_t count = rows.size() / space.kinds().size();
    std::vector<core::BatchEstimator> batches;
    batches.reserve(in.ns.size());
    for (const int n : in.ns) batches.emplace_back(est, space, n);
    std::vector<Seconds> prices(count);
    auto scratch = batches.front().make_scratch();
    out.metric("core.sweep_ns_per_candidate",
               per_item_ns(count * batches.size(), [&] {
                 for (const auto& batch : batches)
                   batch.estimate_rows(rows.data(), count, prices.data(),
                                       scratch);
               }),
               "ns");
  }
  {
    core::ObservationBuffer buf;
    for (const core::Observation& o : in.observations) buf.add(o);
    const core::RefitEngine engine;
    out.metric("core.refit_ms",
               per_item_ns(1, [&] { engine.refit(est, buf); }) * 1e-6, "ms");
  }

  // search: ranked sweeps through a fresh engine and its estimate cache.
  {
    search::Engine engine;
    const std::uint64_t h0 = counter("search.cache.hits");
    const std::uint64_t m0 = counter("search.cache.misses");
    out.metric("search.rank_all_us", per_item_ns(in.ns.size(), [&] {
                 for (const int n : in.ns) engine.rank_all(est, space, n);
               }) * 1e-3,
               "us");
    const double hits = static_cast<double>(counter("search.cache.hits") - h0);
    const double misses =
        static_cast<double>(counter("search.cache.misses") - m0);
    out.metric("search.cache_hit_frac",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "1");
  }
}

}  // namespace perfbench
