// perfbench — the repository benchmark (README.md).
//
//   perfbench --workload campaign|advise|feedback --seed N --seconds S
//             --trace 0|1 --advisord PATH --workdir DIR
//
// Prints diagnostics on standard error and, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics, traced runs
// the per-layer ones. Exits 0 when the run completed (even if an output
// check failed: that is reported in the document), 2 on bad usage and 1
// when the run could not be carried out.
#include <csignal>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload campaign|advise|feedback "
               "--seed N --seconds S --trace 0|1 --advisord PATH "
               "--workdir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-probe") {
      probe = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload")
      opts.workload = val;
    else if (arg == "--seed")
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (arg == "--seconds")
      opts.seconds = std::strtod(val.c_str(), nullptr);
    else if (arg == "--trace")
      opts.trace = val == "1";
    else if (arg == "--advisord")
      opts.advisord = val;
    else if (arg == "--workdir")
      opts.workdir = val;
    else
      return usage();
  }
  const bool serving = opts.workload == "advise" || opts.workload == "feedback";
  if (!(opts.workload == "campaign" || serving) || !(opts.seconds > 0) ||
      (!probe && opts.workdir.empty()) || (serving && opts.advisord.empty()))
    return usage();

  // A daemon that goes away must surface as an error, not kill the run.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    if (probe) return perfbench::campaign_setup_probe(opts);
    perfbench::Result result;
    const int rc = serving ? perfbench::run_serving(opts, result)
                           : perfbench::run_campaign(opts, result);
    if (rc != 0) return rc;
    std::cout << result.json() << "\n" << std::flush;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
