// The `advise` and `feedback` workloads: the resident advisor daemon
// (tools/hetsched_advisord, fitted on the Basic plan at start-up) and the
// service it wraps.
//
// The daemon is started kLaunches times for its set-up figures; the first
// start's answers at the paper's Table 4 sizes are scored against
// in-process measurements. Between the starts, the request load is
// answered in shares, each by a fresh server::Service on the same model in
// this process:
//
//   advise    a Zipf mix of advise and estimate reads; then the write
//             stream below on a second service instance, so its refits
//             never change the model the reads are answered from.
//   feedback  the reads interleaved with a deterministic observe stream
//             whose measured/predicted bias changes phase, with a refit
//             after every kObservesPerRefit: accepted refits swap the
//             model under the reads.
//
// The mix's parameters are assumptions, not recorded traffic; README.md
// lists which come from the paper and which are guesses.
//
// Traced runs also put the last daemon start under the same streams over
// its Unix socket, open loop: every request is timed from the moment it
// was due, so a stall counts against every request queued behind it. The
// generator is one thread driving at most two connections.
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "bench.hpp"
#include "cluster/pe_kind.hpp"
#include "core/model_builder.hpp"
#include "obs/json.hpp"
#include "server/protocol.hpp"
#include "server/service.hpp"
#include "server/snapshot.hpp"
#include "support/error.hpp"

namespace perfbench {

namespace {

namespace json = obs::json;

/// A run whose generator sent more than a tenth of its requests later
/// than this is invalid: the generator, not the daemon, fell behind.
constexpr double kLateLimitMs = 1.0;
constexpr int kLaunches = 7;  ///< daemon starts per run
/// Nominal traffic in one in-process share; a run answers --seconds of
/// it, so longer runs have more shares, each of the same size.
constexpr double kShareSeconds = 1.0;
// Nominal rates: the socket load sends at these, and the in-process load
// answers the requests they send in --seconds. The read rates are high
// enough that the daemon's threads rarely sleep between requests: at a
// few thousand reads/s every request pays a thread wake-up, whose cost on
// a VM swings with the host's load.
constexpr double kAdviseRate = 20000;        ///< reads/s, advise
constexpr double kFeedbackReadRate = 10000;  ///< reads/s, feedback
constexpr double kObserveRate = 1200;        ///< observes/s, feedback
constexpr int kObservesPerRefit = 100;
constexpr int kBiasPhase = 300;              ///< observations per bias phase
constexpr int kCheckEvery = 8;               ///< reads whose answers are checked
constexpr std::size_t kWarmReads = 20000;    ///< unmeasured, in process
/// Unmeasured writes, in process: the refit buffer's windows fill over
/// the first few thousand observations, and each refit costs more as they
/// do, so every share is timed in the steady state.
constexpr std::size_t kWarmWrites = 5000;
constexpr double kWarmSeconds = 1.0;         ///< unmeasured, socket load

// ---- one connection ---------------------------------------------------------

/// One hsp/1 connection over the daemon's Unix socket, with blocking
/// round trips for control requests and non-blocking sends and receives
/// for the load generator.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    HETSCHED_CHECK(path.size() < sizeof(addr.sun_path),
                   "perfbench: socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    HETSCHED_CHECK(fd_ >= 0, "perfbench: socket() failed");
    // A hung daemon must not hang the benchmark past its time limit.
    timeval tv{20, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      HETSCHED_CHECK(false, "perfbench: cannot connect to " + path);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& frame) {
    for (std::size_t off = 0; off < frame.size();) {
      const ssize_t w =
          ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      HETSCHED_CHECK(w > 0, "perfbench: write to the daemon failed");
      off += static_cast<std::size_t>(w);
    }
  }

  std::string next() {
    std::string payload;
    for (;;) {
      if (reader_.next(payload) == server::FrameReader::Status::kFrame)
        return payload;
      char buf[64 * 1024];
      const ssize_t r = ::read(fd_, buf, sizeof buf);
      if (r < 0 && errno == EINTR) continue;
      HETSCHED_CHECK(r > 0, "perfbench: the daemon closed the connection");
      reader_.feed(buf, static_cast<std::size_t>(r));
    }
  }

  std::string roundtrip(const std::string& payload) {
    send(server::encode_frame(payload));
    return next();
  }

  /// Non-blocking send of `frame` from byte `off`; advances `off` and
  /// returns true once the whole frame is written.
  bool try_send(const std::string& frame, std::size_t& off) {
    while (off < frame.size()) {
      const ssize_t w = ::send(fd_, frame.data() + off, frame.size() - off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      HETSCHED_CHECK(w > 0, "perfbench: write to the daemon failed");
      off += static_cast<std::size_t>(w);
    }
    return true;
  }

  /// Non-blocking receive: the next answer if one is complete.
  bool try_next(std::string& payload) {
    for (;;) {
      if (reader_.next(payload) == server::FrameReader::Status::kFrame)
        return true;
      char buf[64 * 1024];
      const ssize_t r = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      HETSCHED_CHECK(r > 0, "perfbench: the daemon closed the connection");
      reader_.feed(buf, static_cast<std::size_t>(r));
    }
  }

 private:
  int fd_ = -1;
  server::FrameReader reader_{server::kDefaultMaxPayload};
};

/// Whether `payload` is an ok answer to request `id`. Responses echo a
/// numeric id in canonical shortest form (100000 comes back as 1e+05).
bool is_ok(const std::string& payload, std::uint64_t id) {
  const std::string head = "{\"hsp\":1,\"id\":" +
                           server::json_number(static_cast<double>(id)) +
                           ",\"ok\":true";
  return payload.compare(0, head.size(), head) == 0;
}

// ---- the daemon -------------------------------------------------------------

/// The running daemon, for the termination handler: a benchmark stopped
/// by a signal takes its daemon with it.
std::atomic<pid_t> g_daemon_pid{-1};

extern "C" void stop_daemon_and_die(int sig) {
  const pid_t pid = g_daemon_pid.load();
  if (pid > 0) ::kill(pid, SIGKILL);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

class Daemon {
 public:
  Daemon(const Options& opts, const std::string& socket) : socket_(socket) {
    ::unlink(socket.c_str());
    launch_ = now_ns();
    child_ = spawn({opts.advisord, "--socket=" + socket, "--plan=basic",
                    "--threads=2"},
                   true);
    g_daemon_pid.store(child_.pid);
    try {
      wait_ready();
    } catch (...) {
      stop();  // a constructor that throws runs no destructor
      throw;
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The connection the first answer came on; it stays open until stop(),
  /// so that with one more the benchmark holds two connections and never
  /// closes one while the daemon runs.
  Connection& connection() { return *conn_; }

  /// How the daemon ended, with the last line it wrote to standard
  /// error; "" if it is still running a second after being asked.
  std::string death() {
    int status = 0;
    for (int i = 0; i < 40 && child_.pid >= 0; ++i) {
      if (::waitpid(child_.pid, &status, WNOHANG) == child_.pid) {
        g_daemon_pid.store(-1);
        child_.pid = -1;
        std::string err;
        char buf[4096];
        for (ssize_t r; (r = ::read(child_.err_fd, buf, sizeof buf)) > 0;)
          err.append(buf, static_cast<std::size_t>(r));
        while (!err.empty() && err.back() == '\n') err.pop_back();
        return (WIFSIGNALED(status) ? "signal " + std::to_string(WTERMSIG(status))
                                    : "exit " + std::to_string(WEXITSTATUS(status))) +
               ", \"" + err.substr(err.rfind('\n') + 1) + "\"";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return "";
  }

  void stop() {
    conn_.reset();
    if (child_.pid >= 0) {
      ::kill(child_.pid, SIGTERM);
      int status = 0;
      for (int i = 0; i < 200 && ::waitpid(child_.pid, &status, WNOHANG) == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      if (::waitpid(child_.pid, &status, WNOHANG) == 0) {
        ::kill(child_.pid, SIGKILL);
        ::waitpid(child_.pid, &status, 0);
      }
      g_daemon_pid.store(-1);
      child_.pid = -1;
    }
    if (child_.out_fd >= 0) ::close(child_.out_fd);
    if (child_.err_fd >= 0) ::close(child_.err_fd);
    child_.out_fd = child_.err_fd = -1;
    ::unlink(socket_.c_str());
  }

  double setup_s = 0;
  double fit_s = 0;

 private:
  /// Reads the daemon's start-up output until its ready line, then asks
  /// for its first answer; sets fit_s and setup_s.
  void wait_ready() {
    // The fit runs between the "fitting" line on stderr and the ready
    // line on stdout.
    Ns fit_start = 0, ready = 0;
    std::string out, err;
    while (ready == 0) {
      pollfd fds[2] = {{child_.out_fd, POLLIN, 0}, {child_.err_fd, POLLIN, 0}};
      HETSCHED_CHECK(::poll(fds, 2, 60'000) > 0,
                     "perfbench: the daemon did not get ready in 60 s");
      for (int i = 0; i < 2; ++i) {
        if (!(fds[i].revents & (POLLIN | POLLHUP))) continue;
        char buf[4096];
        const ssize_t r = ::read(fds[i].fd, buf, sizeof buf);
        HETSCHED_CHECK(r > 0, "perfbench: the daemon exited during start-up: " +
                                  err);
        (i == 0 ? out : err).append(buf, static_cast<std::size_t>(r));
      }
      if (fit_start == 0 && err.find("fitting") != std::string::npos)
        fit_start = now_ns();
      if (out.find("ready") != std::string::npos) ready = now_ns();
    }
    HETSCHED_CHECK(fit_start > 0, "perfbench: no fitting line from the daemon");
    fit_s = to_s(ready - fit_start);
    conn_.emplace(socket_);
    HETSCHED_CHECK(is_ok(conn_->roundtrip("{\"hsp\":1,\"op\":\"hello\",\"id\":0}"),
                         0),
                   "perfbench: the daemon's first answer is not ok");
    setup_s = to_s(now_ns() - launch_);
  }

  std::string socket_;
  Ns launch_ = 0;
  Child child_;
  std::optional<Connection> conn_;
};

// ---- request streams --------------------------------------------------------

enum class Op { kAdvise, kEstimate, kObserve, kRefit };

/// One request: its wire bytes, when it is due (ns after the phase
/// starts), and what the checks need to know about it.
struct Request {
  Op op = Op::kAdvise;
  std::uint64_t id = 0;
  std::string frame;
  Ns due = 0;
  int n = 0;
  int top = 0;
  int exclude = -1;        ///< kind index, -1 = none
  int max_procs = 0;       ///< 0 = unconstrained
  int config = -1;         ///< candidate index (estimate/observe)

  /// The request document without its frame header.
  std::string payload() const { return frame.substr(4); }
};

/// What happened to one request.
struct Outcome {
  Ns send = 0;
  Ns recv = 0;
  bool ok = false;
  std::string payload;  ///< kept for checked requests only
};

struct Stream {
  Ns t0 = 0;  ///< when the stream started; due times count from here
  std::vector<Request> reqs;
  std::vector<Outcome> out;
  bool keep_payloads = false;  ///< of every kCheckEvery-th read
  std::string error;  ///< transport failure, if any
};

/// Deterministic uniform draws in [0, 1) from the seed (the standard
/// distributions are not portable across library implementations).
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  double unit() { return static_cast<double>(rng_() >> 11) * 0x1p-53; }
  std::size_t below(std::size_t n) {
    return std::min(n - 1, static_cast<std::size_t>(unit() * static_cast<double>(n)));
  }
  double normal() {  // Box-Muller
    const double u = std::max(unit(), 1e-300), v = unit();
    return std::sqrt(-2.0 * std::log(u)) * std::cos(2.0 * M_PI * v);
  }

 private:
  std::mt19937_64 rng_;
};

std::string config_json(const cluster::Config& config) {
  std::string s = "[";
  for (std::size_t i = 0; i < config.usage.size(); ++i) {
    const auto& u = config.usage[i];
    s += (i ? ",[" : "[") + server::json_quote(u.kind) + "," +
         std::to_string(u.pes) + "," + std::to_string(u.procs_per_pe) + "]";
  }
  return s + "]";
}

/// The serving model: the daemon's fit reproduced in process, the
/// candidate space, and what the generators draw from.
struct Reference {
  cluster::ClusterSpec spec = cluster::paper_cluster();
  core::ConfigSpace space = core::ConfigSpace::paper_eval();
  std::vector<cluster::Config> candidates;  ///< covered, enumeration order
  std::vector<std::string> kinds = {cluster::athlon_1330().name,
                                    cluster::pentium2_400().name};
  std::optional<core::Estimator> est;
  core::MeasurementSet basic;  ///< the fit's measurements
  std::map<int, std::vector<core::Ranked>> ranked;  ///< memo of rank_all

  const std::vector<core::Ranked>& rank(int n) {
    auto it = ranked.find(n);
    if (it == ranked.end())
      it = ranked.emplace(n, core::rank_all(*est, space, n)).first;
    return it->second;
  }
};

/// The read mix: Zipf-popular problem sizes over more distinct sizes
/// than the daemon keeps warm batch estimators for, a top/exclude/
/// max_total_procs mix on advise, and about a quarter estimate ops.
class ReadGen {
 public:
  ReadGen(const Reference& ref, std::uint64_t seed) : ref_(ref), draw_(seed) {
    // From the smallest size the Basic plan measures to the largest the
    // paper evaluates (Tables 4/7/9), on a grid of 100: 93 sizes.
    for (int n = 400; n <= 9600; n += 100) sizes_.push_back(n);
    HETSCHED_CHECK(sizes_.size() > server::ModelSnapshot::kMaxWarmSizes,
                   "perfbench: the read mix must outgrow the warm batch cache");
    // A seeded permutation decides which sizes are popular.
    for (std::size_t i = sizes_.size() - 1; i > 0; --i)
      std::swap(sizes_[i], sizes_[draw_.below(i + 1)]);
    double sum = 0;
    for (std::size_t r = 0; r < sizes_.size(); ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  const std::vector<int>& sizes() const { return sizes_; }

  Request next(std::uint64_t id) {
    Request q;
    q.id = id;
    const double u = draw_.unit();
    q.n = sizes_[static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin())];
    std::string body;
    if (draw_.unit() < 0.25) {
      q.op = Op::kEstimate;
      q.config = static_cast<int>(draw_.below(ref_.candidates.size()));
      body = "\"op\":\"estimate\",\"n\":" + std::to_string(q.n) + ",\"config\":" +
             config_json(ref_.candidates[static_cast<std::size_t>(q.config)]);
    } else {
      q.op = Op::kAdvise;
      static constexpr int kTops[] = {1, 3, 5, 10};
      q.top = kTops[draw_.below(4)];
      body = "\"op\":\"advise\",\"n\":" + std::to_string(q.n) +
             ",\"top\":" + std::to_string(q.top);
      const double c = draw_.unit();
      if (c < 0.2) {
        q.exclude = static_cast<int>(draw_.below(ref_.kinds.size()));
        body += ",\"constraints\":{\"exclude\":[" +
                server::json_quote(ref_.kinds[static_cast<std::size_t>(q.exclude)]) +
                "]}";
      } else if (c < 0.4) {
        static constexpr int kProcs[] = {4, 6, 8, 12};
        q.max_procs = kProcs[draw_.below(4)];
        body += ",\"constraints\":{\"max_total_procs\":" +
                std::to_string(q.max_procs) + "}";
      }
    }
    q.frame = server::encode_frame("{\"hsp\":1,\"id\":" + std::to_string(id) +
                                   "," + body + "}");
    return q;
  }

 private:
  const Reference& ref_;
  Draw draw_;
  std::vector<int> sizes_;
  std::vector<double> cdf_;
};

std::string observe_frame(std::uint64_t id, const cluster::Config& config,
                          int n, double measured) {
  return server::encode_frame(
      "{\"hsp\":1,\"id\":" + std::to_string(id) +
      ",\"op\":\"observe\",\"n\":" + std::to_string(n) +
      ",\"config\":" + config_json(config) +
      ",\"measured\":" + server::json_number(measured) + "}");
}

Request refit_request(std::uint64_t id) {
  Request q;
  q.op = Op::kRefit;
  q.id = id;
  q.frame = server::encode_frame("{\"hsp\":1,\"id\":" + std::to_string(id) +
                                 ",\"op\":\"refit\"}");
  return q;
}

/// The feedback write stream: observations of mostly single-kind
/// configurations (those reach the refit buffer) whose measured time is
/// the reference prediction times a per-class bias that changes every
/// kBiasPhase observations, with a refit after every kObservesPerRefit.
class ObserveGen {
 public:
  ObserveGen(const Reference& ref, std::uint64_t seed) : ref_(ref), draw_(seed) {
    for (std::size_t i = 0; i < ref.candidates.size(); ++i)
      (ref.candidates[i].usage.size() == 1 ? single_ : mixed_).push_back(i);
    for (int k = 0; k < 12; ++k) sizes_.push_back(1200 + 400 * k);
  }

  Request next(std::uint64_t id, core::Observation* observed) {
    if (count_ > 0 && count_ % kObservesPerRefit == 0 && !refit_due_) {
      refit_due_ = true;
      return refit_request(id);
    }
    refit_due_ = false;
    if (count_ % kBiasPhase == 0) {
      bias_.clear();
      for (std::size_t i = 0; i < ref_.candidates.size(); ++i)
        bias_.push_back(0.85 + 0.45 * draw_.unit());
    }
    ++count_;
    Request q;
    q.op = Op::kObserve;
    q.id = id;
    const auto& pool = draw_.unit() < 0.85 ? single_ : mixed_;
    q.config = static_cast<int>(pool[draw_.below(pool.size())]);
    q.n = sizes_[draw_.below(sizes_.size())];
    const cluster::Config& config = ref_.candidates[static_cast<std::size_t>(q.config)];
    const core::Estimator::Breakdown bd = ref_.est->breakdown(config, q.n);
    const double scale = bias_[static_cast<std::size_t>(q.config)] *
                         (1.0 + 0.02 * draw_.normal());
    q.frame = observe_frame(id, config, q.n, bd.total * scale);
    if (observed != nullptr && config.usage.size() == 1) {
      // What the daemon's ingest stores: the measured total split by the
      // prediction's computation/communication ratio.
      double tai = 0, tci = 0;
      for (const auto& k : bd.kinds) {
        tai += k.tai;
        tci += k.tci;
      }
      core::Observation o;
      o.config = config;
      o.n = q.n;
      o.measured_tai = tai * scale;
      o.measured_tci = tci * scale;
      *observed = o;
    }
    return q;
  }

 private:
  const Reference& ref_;
  Draw draw_;
  std::vector<std::size_t> single_, mixed_;
  std::vector<int> sizes_;
  std::vector<double> bias_;
  std::uint64_t count_ = 0;
  bool refit_due_ = false;
};

/// Spreads `count` requests from `gen` evenly over `seconds`.
template <typename Next>
Stream schedule(double rate, double seconds, Next&& next) {
  Stream s;
  const auto count = static_cast<std::size_t>(std::max(1.0, rate * seconds));
  const double gap_ns = 1e9 / rate;
  for (std::size_t i = 0; i < count; ++i) {
    s.reqs.push_back(next());
    s.reqs.back().due = static_cast<Ns>(gap_ns * static_cast<double>(i));
  }
  return s;
}

// ---- the load driver ------------------------------------------------------

bool is_read(const Request& q) { return q.op == Op::kAdvise || q.op == Op::kEstimate; }

/// Sends up to two streams, one per connection, and collects the answers,
/// all from the calling thread: one loop that never blocks or sleeps, so
/// neither a send nor the timestamp of an arrival waits for a thread to
/// be woken (on the VM this benchmark was built on, a timer sleep
/// overshoots by over a millisecond at the p99, and a blocked reader's
/// wake-up varies as much). Requests that are due together go out in one
/// write. A write (observe or refit) is held back until every earlier
/// answer on its connection has arrived: the daemon may run one
/// connection's pipelined requests concurrently, and this way it applies
/// the writes in stream order, so a refit sees exactly the observations
/// sent before it, in that order, and the answers repeat at a fixed seed.
/// The other connection keeps going meanwhile.
void drive(Stream& a, Connection& ca, Stream* b, Connection* cb) {
  constexpr std::size_t kBurst = 64;  ///< most requests in one write
  struct Lane {
    Stream* s;
    Connection* conn;
    std::size_t next = 0;      ///< first request not yet in a write
    std::size_t received = 0;  ///< answers collected
    std::string burst;         ///< the write in progress
    std::size_t burst_off = 0;
  };
  Lane lanes[2] = {{&a, &ca, 0, 0, {}, 0}, {b, cb, 0, 0, {}, 0}};
  const std::size_t count = b != nullptr ? 2 : 1;
  const Ns t0 = now_ns() + 2'000'000;
  for (std::size_t l = 0; l < count; ++l) {
    lanes[l].s->t0 = t0;
    lanes[l].s->out.assign(lanes[l].s->reqs.size(), Outcome{});
  }
  Ns progress = now_ns();
  std::string payload;
  try {
    for (bool done = false; !done;) {
      done = true;
      for (std::size_t l = 0; l < count; ++l) {
        Lane& lane = lanes[l];
        Stream& s = *lane.s;
        while (lane.received < lane.next && lane.conn->try_next(payload)) {
          const Request& q = s.reqs[lane.received];
          Outcome& o = s.out[lane.received];
          o.recv = now_ns();
          o.ok = is_ok(payload, q.id);
          if (!o.ok || q.op == Op::kRefit ||
              (s.keep_payloads && q.id % kCheckEvery == 0))
            o.payload = std::move(payload);
          ++lane.received;
          progress = o.recv;
        }
        done = done && lane.received == s.reqs.size();

        if (lane.burst.empty()) {
          // Gather what may go now.
          const Ns now = now_ns();
          std::size_t end = lane.next;
          while (end < s.reqs.size() && end - lane.next < kBurst) {
            const Request& q = s.reqs[end];
            if (now < t0 + q.due) break;
            if (!is_read(q) && (end > lane.next || lane.received < end)) break;
            s.out[end].send = now;
            lane.burst += q.frame;
            ++end;
          }
          lane.next = end;
        }
        if (!lane.burst.empty() && lane.conn->try_send(lane.burst, lane.burst_off)) {
          lane.burst.clear();
          lane.burst_off = 0;
        }
      }
      HETSCHED_CHECK(now_ns() - progress < 20'000'000'000,
                     "perfbench: no answer from the daemon for 20 s");
    }
  } catch (const std::exception& e) {
    for (std::size_t l = 0; l < count; ++l)
      if (lanes[l].s->error.empty()) lanes[l].s->error = e.what();
  }
}

/// Latencies from due time (ms) of the requests matching `pick`; a
/// failed or unanswered request is +inf, so it misses any limit.
template <typename Pick>
std::vector<double> latencies_ms(const Stream& s, Pick&& pick) {
  const Ns t0 = s.t0;
  std::vector<double> ms;
  for (std::size_t i = 0; i < s.reqs.size(); ++i) {
    if (!pick(s.reqs[i])) continue;
    const Outcome& o = s.out[i];
    ms.push_back(o.ok && o.recv > 0 ? to_ms(o.recv - (t0 + s.reqs[i].due))
                                    : INFINITY);
  }
  return ms;
}

// ---- checks -----------------------------------------------------------------

/// Member `key` of a JSON object; throws when it is absent.
const json::Value& at(const json::Value& v, const char* key) {
  const json::Value* m = v.find(key);
  if (m == nullptr) throw json::TypeError(std::string("no member ") + key);
  return *m;
}

bool feasible(const Reference& ref, const Request& q, const cluster::Config& c) {
  if (q.max_procs > 0 && c.total_procs() > q.max_procs) return false;
  if (q.exclude >= 0)
    for (const auto& u : c.usage)
      if (u.kind == ref.kinds[static_cast<std::size_t>(q.exclude)] && u.pes > 0)
        return false;
  return true;
}

/// Whether a read's answer equals what core::rank_all (advise) or
/// Estimator::estimate (estimate) give on the in-process fit.
bool answer_matches(Reference& ref, const Request& q, const std::string& payload) {
  const json::Value doc = json::parse(payload);
  const json::Value& result = at(doc, "result");
  if (q.op == Op::kEstimate) {
    const cluster::Config& c = ref.candidates[static_cast<std::size_t>(q.config)];
    return at(result, "t").as_number() == ref.est->estimate(c, q.n) &&
           at(result, "label").as_string() == c.to_string();
  }
  std::vector<const core::Ranked*> expect;
  for (const core::Ranked& r : ref.rank(q.n))
    if (feasible(ref, q, r.config)) expect.push_back(&r);
  const json::Array& best = at(result, "best").as_array();
  if (static_cast<std::size_t>(at(result, "covered").as_number()) != expect.size() ||
      best.size() != std::min<std::size_t>(expect.size(), static_cast<std::size_t>(q.top)))
    return false;
  for (std::size_t i = 0; i < best.size(); ++i)
    if (at(best[i], "label").as_string() != expect[i]->config.to_string() ||
        at(best[i], "t").as_number() != expect[i]->estimate)
      return false;
  return true;
}

/// Counts a stream's failures; checks the reads answered before
/// `swap_at` (0 = never swapped) against the reference.
void check_stream(const Stream& s, Reference* ref, Ns swap_at, Result& out,
                  const char* what) {
  out.attempted(s.reqs.size());
  if (!s.error.empty())
    out.invalidate(std::string(what) + ": lost the daemon: " + s.error);
  for (std::size_t i = 0; i < s.reqs.size(); ++i) {
    const Request& q = s.reqs[i];
    const Outcome& o = s.out[i];
    if (!o.ok) {
      out.fail(std::string(what) + ": request " + std::to_string(q.id) +
               " failed: " + o.payload.substr(0, 200));
      continue;
    }
    if (ref == nullptr || !is_read(q) || o.payload.empty()) continue;
    if (swap_at != 0 && o.recv >= swap_at) continue;
    bool match = false;
    try {
      match = answer_matches(*ref, q, o.payload);
    } catch (const std::exception&) {
    }
    if (!match)
      out.wrong(std::string(what) + ": answer to request " + std::to_string(q.id) +
               " differs from the in-process reference");
  }
}

// ---- the daemon's own metrics -----------------------------------------------

struct DaemonMetrics {
  json::Value doc;

  const json::Value& result() const { return at(doc, "result"); }
  double stat(const char* name) const {
    return at(at(result(), "stats"), name).as_number();
  }
  /// A process-registry counter; 0 until the daemon first touches it.
  double process_counter(const char* name) const {
    const json::Value* v = at(at(result(), "process"), "counters").find(name);
    return v ? v->as_number() : 0.0;
  }
  /// (count, sum) of a process-registry histogram.
  std::pair<double, double> histogram(const char* name) const {
    const json::Value* h = at(at(result(), "process"), "histograms").find(name);
    if (h == nullptr) return {0, 0};
    return {at(*h, "count").as_number(), at(*h, "sum").as_number()};
  }
  /// Fine-histogram bins (lower, upper, count) of one wire op.
  std::vector<std::array<double, 3>> op_bins(const char* op) const {
    std::vector<std::array<double, 3>> out;
    const json::Value* o = at(result(), "ops").find(op);
    if (o == nullptr) return out;
    for (const json::Value& b : at(*o, "bins").as_array()) {
      const json::Array& a = b.as_array();
      out.push_back({a[0].as_number(), a[1].as_number(), a[2].as_number()});
    }
    return out;
  }
};

DaemonMetrics fetch_metrics(Connection& conn) {
  const std::string payload =
      conn.roundtrip("{\"hsp\":1,\"op\":\"metrics\",\"id\":1,\"scope\":\"process\"}");
  HETSCHED_CHECK(is_ok(payload, 1), "perfbench: the metrics op failed");
  return DaemonMetrics{json::parse(payload)};
}

/// Quantile of the service-time bins the read ops gained between two
/// metrics snapshots (geometric bin midpoints, in microseconds).
double service_us(const DaemonMetrics& before, const DaemonMetrics& after, double q) {
  std::map<std::pair<double, double>, double> bins;
  for (const char* op : {"advise", "estimate"}) {
    for (const auto& b : after.op_bins(op)) bins[{b[0], b[1]}] += b[2];
    for (const auto& b : before.op_bins(op)) bins[{b[0], b[1]}] -= b[2];
  }
  double total = 0;
  for (const auto& [edges, c] : bins) total += c;
  double seen = 0;
  for (const auto& [edges, c] : bins) {
    seen += c;
    if (total > 0 && seen >= q * total)
      return std::sqrt(edges.first * edges.second) * 1e6;
  }
  return 0.0;
}

// ---- the workload -----------------------------------------------------------

struct Accuracy {
  double selection_err = 0;
  double estimate_err = 0;
};

/// The daemon's own top answer at the paper's Table 4 sizes against
/// in-process measurements of every covered candidate (salt 1, the
/// daemon's campaign).
Accuracy check_accuracy(Reference& ref, measure::Runner& runner, Connection& conn,
                        Result& out) {
  Accuracy acc;
  const std::vector<int> sizes = table_sizes(measure::basic_plan().name);
  std::uint64_t id = 100;
  for (const int n : sizes) {
    out.attempted();
    const std::string payload = conn.roundtrip(
        "{\"hsp\":1,\"op\":\"advise\",\"id\":" + std::to_string(++id) +
        ",\"n\":" + std::to_string(n) + ",\"top\":1}");
    if (!is_ok(payload, id)) {
      out.fail("accuracy advise at n=" + std::to_string(n) + " failed");
      continue;
    }
    const json::Value doc = json::parse(payload);
    const json::Value& top = at(at(doc, "result"), "best").as_array().at(0);
    const std::string label = at(top, "label").as_string();
    const double tau = at(top, "t").as_number();
    if (label != ref.rank(n).front().config.to_string() ||
        tau != ref.rank(n).front().estimate)
      out.wrong("daemon argmin at n=" + std::to_string(n) +
               " differs from core::rank_all");
    double t_hat = INFINITY, tau_hat = NAN;
    for (const auto& config : ref.candidates) {
      const core::Sample& s = runner.measure(config, n);
      t_hat = std::min(t_hat, s.wall);
      if (config.to_string() == label) tau_hat = s.wall;
    }
    acc.selection_err += std::abs((tau_hat - t_hat) / t_hat);
    acc.estimate_err += std::abs((tau - t_hat) / t_hat);
  }
  acc.selection_err /= static_cast<double>(sizes.size());
  acc.estimate_err /= static_cast<double>(sizes.size());
  return acc;
}

/// Latency figures of the in-process load.
struct ServiceFigures {
  std::vector<double> read_ms;
  std::vector<double> observe_ms;
  std::vector<double> refit_ms;
  double read_busy_s = 0;
  double hit_frac = 0;  ///< answer-cache hits of the measured reads
};

/// Answers one request on `svc` and times it; counts a failed answer.
double timed_answer(server::Service& svc, const Request& q, std::string& resp,
                    Result& out) {
  out.attempted();
  const std::string body = q.payload();
  const Ns t0 = now_ns();
  resp = svc.handle_payload(body);
  const double ms = to_ms(now_ns() - t0);
  if (!is_ok(resp, q.id)) {
    out.fail("request " + std::to_string(q.id) + " failed: " + resp.substr(0, 200));
    return INFINITY;
  }
  return ms;
}

/// One share of the workload's requests answered by a fresh
/// server::Service in this process (the object the daemon wraps, on the
/// same model), back to back: kWarmReads and kWarmWrites unmeasured, then
/// the requests the nominal rates send in `seconds`. Each share starts
/// from an empty answer cache and refit buffer, so every share warms the
/// same way and its hit/miss split is set by the key distribution alone.
/// feedback answers its writes on the read service, between the reads;
/// advise answers them after the reads on a second service, so its refits
/// never change the model its reads are answered from. Every
/// kCheckEvery-th read answered before the share's first published refit
/// is checked against the reference.
ServiceFigures run_share(const std::shared_ptr<const server::ModelSnapshot>& snapshot,
                         bool feedback, double seconds, Reference& ref,
                         const std::function<Request()>& next_read,
                         const std::function<Request()>& next_write, Result& out) {
  server::ServiceOptions sopts;
  sopts.threads = 2;
  server::Service svc(snapshot, sopts);
  std::optional<server::Service> write_svc;
  if (!feedback) write_svc.emplace(snapshot, sopts);
  server::Service& writes_on = feedback ? svc : *write_svc;
  bool swapped = false;
  ServiceFigures f;
  std::string resp;
  // Answers `q`; records its time unless it is a warm-up.
  const auto answer = [&](const Request& q, bool record) {
    server::Service& on = is_read(q) ? svc : writes_on;
    const double ms = timed_answer(on, q, resp, out);
    if (q.op == Op::kRefit && &on == &svc)
      swapped = swapped || resp.find("\"swapped\":true") != std::string::npos;
    if (is_read(q) && !swapped && q.id % kCheckEvery == 0 && std::isfinite(ms)) {
      bool match = false;
      try {
        match = answer_matches(ref, q, resp);
      } catch (const std::exception&) {
      }
      if (!match)
        out.wrong("answer to request " + std::to_string(q.id) +
                  " differs from the in-process reference");
    }
    if (!record) return;
    if (is_read(q)) {
      f.read_ms.push_back(ms);
      if (std::isfinite(ms)) f.read_busy_s += ms * 1e-3;
    } else {
      (q.op == Op::kObserve ? f.observe_ms : f.refit_ms).push_back(ms);
    }
  };
  for (std::size_t i = 0; i < kWarmReads; ++i) answer(next_read(), false);
  for (std::size_t i = 0; i < kWarmWrites; ++i) answer(next_write(), false);
  const server::Service::Counters before = svc.counters();
  // feedback interleaves its writes with the reads at their nominal
  // ratio; advise answers its reads, then its writes.
  const double write_rate = kObserveRate * (1.0 + 1.0 / kObservesPerRefit);
  const double read_rate = feedback ? kFeedbackReadRate : kAdviseRate;
  const auto reads = static_cast<std::uint64_t>(seconds * read_rate);
  const auto writes = static_cast<std::uint64_t>(seconds * write_rate);
  if (feedback) {
    // The writes spread evenly among the reads.
    const std::uint64_t ops = reads + writes;
    for (std::uint64_t op = 0; op < ops; ++op)
      answer((op + 1) * writes / ops != op * writes / ops ? next_write() : next_read(),
             true);
  } else {
    for (std::uint64_t op = 0; op < reads; ++op) answer(next_read(), true);
    for (std::uint64_t op = 0; op < writes; ++op) answer(next_write(), true);
  }
  const server::Service::Counters after = svc.counters();
  const auto hits = static_cast<double>(after.cache_hits - before.cache_hits);
  f.hit_frac = hits / (hits + static_cast<double>(after.cache_misses - before.cache_misses));
  return f;
}

/// The daemon's own figures over a socket load (traced runs).
struct SocketLoad {
  DaemonMetrics before;
  DaemonMetrics after;
  double read_p50_ms = 0;
  double late_p99_ms = 0;
};

/// The open-loop load over the daemon's socket: kWarmSeconds of reads
/// unmeasured, then `seconds` at the nominal rates (feedback: writes on
/// one connection, reads on the other), every request timed from its due
/// time and recorded as a span.
SocketLoad run_socket_load(bool feedback, double seconds, Connection& ca,
                           Connection& cb, Reference& ref,
                           const std::function<Request()>& next_read,
                           const std::function<Request()>& next_write,
                           SpanLog& log, Result& out) {
  SocketLoad load;
  {
    Stream w1 = schedule(kAdviseRate / 2, kWarmSeconds, next_read);
    Stream w2 = schedule(kAdviseRate / 2, kWarmSeconds, next_read);
    drive(w1, ca, &w2, &cb);
    check_stream(w1, nullptr, 0, out, "warm-up reads");
    check_stream(w2, nullptr, 0, out, "warm-up reads");
  }
  load.before = fetch_metrics(ca);
  Stream s1, s2;
  if (feedback) {
    s1 = schedule(kObserveRate * (1.0 + 1.0 / kObservesPerRefit), seconds, next_write);
    s2 = schedule(kFeedbackReadRate, seconds, next_read);
  } else {
    s1 = schedule(kAdviseRate / 2, seconds, next_read);
    s2 = schedule(kAdviseRate / 2, seconds, next_read);
    // The second submitter runs half a period behind the first.
    for (Request& q : s2.reqs) q.due += static_cast<Ns>(1e9 / kAdviseRate);
  }
  s1.keep_payloads = s2.keep_payloads = true;
  drive(s1, ca, &s2, &cb);
  load.after = fetch_metrics(ca);

  // Reads answered after the first published refit no longer come from
  // the reference model and are not compared with it.
  Ns swap_at = 0;
  for (std::size_t i = 0; feedback && i < s1.reqs.size() && swap_at == 0; ++i)
    if (s1.reqs[i].op == Op::kRefit &&
        s1.out[i].payload.find("\"swapped\":true") != std::string::npos)
      swap_at = s1.out[i].send;
  check_stream(s1, &ref, swap_at, out, feedback ? "observe stream" : "reads");
  check_stream(s2, &ref, swap_at, out, "reads");

  std::vector<double> read_ms, late_ms;
  for (const Stream* s : {&s1, &s2}) {
    for (const double v : latencies_ms(*s, is_read)) read_ms.push_back(v);
    static const char* kNames[] = {"advise", "estimate", "observe", "refit"};
    const int phase = log.add("load", s->t0, s->t0 + s->reqs.back().due);
    for (std::size_t i = 0; i < s->reqs.size(); ++i) {
      const Request& q = s->reqs[i];
      // A write waits for the answer before it on purpose (drive); its
      // lateness counts from when it was both due and free to go.
      if (s->out[i].send > 0) {
        Ns ready = s->t0 + q.due;
        if (!is_read(q) && i > 0) ready = std::max(ready, s->out[i - 1].recv);
        late_ms.push_back(to_ms(s->out[i].send - ready));
      }
      const int span = log.add(kNames[static_cast<int>(q.op)], s->t0 + q.due,
                               s->out[i].recv, phase, q.id);
      log.add("gen.wait", s->t0 + q.due, s->out[i].send, span, q.id);
    }
  }
  load.read_p50_ms = quantile(read_ms, 0.5);
  load.late_p99_ms = quantile(late_ms, 0.99);
  const double late_p90 = quantile(late_ms, 0.9);
  if (late_p90 > kLateLimitMs)
    out.invalidate("the load generator ran " + std::to_string(late_p90) +
                   " ms late at p90");
  return load;
}

/// Emits the server.* and gen.* per-layer metrics of a socket load.
void report_server_layers(const SocketLoad& load, Result& out) {
  const DaemonMetrics& a = load.after;
  const DaemonMetrics& b = load.before;
  const auto delta = [&](const char* name) {
    return a.process_counter(name) - b.process_counter(name);
  };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double hits = a.stat("cache_hits") - b.stat("cache_hits");
  const double misses = a.stat("cache_misses") - b.stat("cache_misses");
  const double batches =
      a.histogram("server.batch_size").first - b.histogram("server.batch_size").first;
  const double batched =
      a.histogram("server.batch_size").second - b.histogram("server.batch_size").second;
  const double observations = delta("server.refit.observations");
  const double dropped = delta("server.refit.dropped");
  const double service_p50 = service_us(b, a, 0.5);
  out.metric("server.service_us.p50", service_p50, "us");
  out.metric("server.service_us.p99", service_us(b, a, 0.99), "us");
  out.metric("server.transport_us.p50", load.read_p50_ms * 1e3 - service_p50, "us");
  out.metric("server.cache_hit_frac", ratio(hits, hits + misses), "1");
  out.metric("server.batch_size.mean", ratio(batched, batches), "req");
  out.metric("server.swaps", a.stat("snapshot_swaps") - b.stat("snapshot_swaps"), "count");
  out.metric("server.refit.accept_frac",
             ratio(delta("server.refit.swaps"), delta("server.refit.attempts")), "1");
  out.metric("server.observe_drop_frac", ratio(dropped, observations + dropped), "1");
  out.metric("gen.late_p99_ms", load.late_p99_ms, "ms");
}

}  // namespace

int run_serving(const Options& opts, Result& out) {
  const bool feedback = opts.workload == "feedback";
  std::signal(SIGTERM, stop_daemon_and_die);
  std::signal(SIGINT, stop_daemon_and_die);
  HETSCHED_CHECK(::chdir(opts.workdir.c_str()) == 0,
                 "perfbench: cannot enter " + opts.workdir);
  // Relative to the work directory: an absolute path inside a deep
  // checkout could exceed the Unix socket path limit.
  const std::string sock = "advisord-" + std::to_string(::getpid()) + ".sock";

  // The in-process reference fit: the daemon's campaign, reproduced. A
  // traced run fits twice, untraced then traced, for the overhead.
  Reference ref;
  SpanLog log(opts.trace);
  std::vector<double> run_us;
  FitRecord fit;
  std::optional<measure::Runner> runner;
  double untraced_fit_s = 0;
  for (int pass = opts.trace ? 0 : 1; pass < 2; ++pass) {
    SpanLog quiet(false);
    run_us.clear();
    fit = FitRecord{};
    runner.emplace(ref.spec, timed_hpl(pass == 0 ? quiet : log, run_us), 1);
    const CounterWindow window;
    const double cpu0 = process_cpu_s();
    const Ns t0 = now_ns();
    core::MeasurementSet ms;
    {
      ScopedSpan span(pass == 0 ? quiet : log, "measure.run_plan");
      ms = runner->run_plan(measure::basic_plan());
    }
    const Ns b0 = now_ns();
    ref.est.emplace(core::ModelBuilder(ref.spec).build(ms));
    fit.build_ms.push_back(to_ms(now_ns() - b0));
    fit.wall_s = to_s(now_ns() - t0);
    fit.cpu_s = process_cpu_s() - cpu0;
    window.close(fit);
    fit.run_us = run_us;
    if (pass == 0) untraced_fit_s = fit.wall_s;
    ref.basic = std::move(ms);
  }
  for (const auto& config : ref.space.all())
    if (ref.est->covers(config)) ref.candidates.push_back(config);

  ReadGen reads(ref, opts.seed * 2 + 1);
  ObserveGen writes(ref, opts.seed * 2 + 2);
  std::uint64_t next_id = 1000;
  std::vector<core::Observation> observed;
  std::vector<bool> estimated(ref.candidates.size(), false);
  const std::function<Request()> next_read = [&] {
    Request q = reads.next(++next_id);
    if (q.op == Op::kEstimate) estimated[static_cast<std::size_t>(q.config)] = true;
    return q;
  };
  const std::function<Request()> next_write = [&] {
    core::Observation o;
    Request q = writes.next(++next_id, &o);
    if (o.n > 0 && opts.trace) observed.push_back(o);  // for the replays
    return q;
  };

  // Daemon starts: set-up, the start-up fit, and (first start) the
  // accuracy of its answers. A traced run also loads the last start over
  // its socket.
  Accuracy acc;
  std::vector<double> setups, rates;
  std::optional<SocketLoad> socket_load;
  DaemonMetrics started;
  // The request load, answered in process by the daemon's service on the
  // same model, in shares spread evenly over the daemon starts; each
  // figure is the best share's (bench.hpp best_of).
  const auto snapshot = std::make_shared<const server::ModelSnapshot>(
      *ref.est, core::ConfigSpace::paper_eval());
  const auto share_count =
      static_cast<int>(std::max(1.0, std::round(opts.seconds / kShareSeconds)));
  std::vector<ServiceFigures> shares;

  // A start whose daemon dies counts as a failed operation and is made
  // again, up to twice as many times as there are starts.
  for (int launch = 0, attempt = 0; launch < kLaunches; ++attempt) {
    HETSCHED_CHECK(attempt < 3 * kLaunches,
                   "perfbench: the daemon died at too many starts");
    std::optional<Daemon> daemon;
    try {
      daemon.emplace(opts, sock);
      Connection& ca = daemon->connection();
      Connection cb(sock);
      DaemonMetrics metrics = fetch_metrics(ca);
      // The daemon's campaign must be the in-process one, count for count.
      for (const auto& [name, value] :
           {std::pair{"des.events_dispatched", fit.events}, {"mpisim.sends", fit.msgs},
            {"measure.runs", fit.runs}}) {
        out.attempted();
        if (metrics.process_counter(name) != static_cast<double>(value))
          out.wrong(std::string("daemon ") + name + " differs from the in-process fit");
      }
      if (launch == 0) acc = check_accuracy(ref, *runner, ca, out);
      if (opts.trace && launch == kLaunches - 1)
        socket_load = run_socket_load(feedback, opts.seconds, ca, cb, ref, next_read,
                                      next_write, log, out);
      setups.push_back(daemon->setup_s);
      rates.push_back(metrics.process_counter("measure.runs") / daemon->fit_s);
      started = std::move(metrics);
      ++launch;
    } catch (const Error& e) {
      const std::string death = daemon ? daemon->death() : "";
      if (death.empty()) throw;
      // Reported even past Result::fail's first few reasons.
      const std::string why = "daemon start " + std::to_string(attempt) + " died (" +
                              death + ") under: " + e.what();
      std::cerr << "perfbench: " << why << "\n";
      out.attempted();
      out.fail(why);
      continue;
    }
    daemon.reset();
    while (static_cast<int>(shares.size()) < launch * share_count / kLaunches)
      shares.push_back(run_share(snapshot, feedback, kShareSeconds, ref, next_read,
                                 next_write, out));
  }
  std::vector<double> hit_fracs;
  for (const ServiceFigures& f : shares) hit_fracs.push_back(f.hit_frac);

  if (opts.trace) {
    // The speed figures: the fastest start's fit, and the best share's
    // read, observe and refit times (other tenants only ever slow work
    // down). Neither the daemon nor the in-process service is traced.
    const auto best_share = [&](const auto& figure, bool higher_is_better = false) {
      return best_of(shares, figure, higher_is_better);
    };
    out.metric("measure.runs_per_s", best_of(rates, [](double r) { return r; }, true),
               "1/s");
    out.metric("server.read_p50_ms",
               best_share([](const ServiceFigures& f) { return quantile(f.read_ms, 0.5); }),
               "ms");
    out.metric("server.read_p99_ms",
               best_share([](const ServiceFigures& f) { return quantile(f.read_ms, 0.99); }),
               "ms");
    out.metric("server.max_read_qps", best_share([](const ServiceFigures& f) {
                 return static_cast<double>(f.read_ms.size()) / f.read_busy_s;
               }, true),
               "1/s");
    out.metric("server.observe_p50_ms", best_share([](const ServiceFigures& f) {
                 return quantile(f.observe_ms, 0.5);
               }),
               "ms");
    out.metric("server.refit_p50_ms", best_share([](const ServiceFigures& f) {
                 return quantile(f.refit_ms, 0.5);
               }),
               "ms");
    out.metric("server.inproc_cache_hit_frac", median(hit_fracs), "1");
    // Layer counts of the daemon's campaign come from the daemon itself.
    fit.events = static_cast<std::uint64_t>(started.process_counter("des.events_dispatched"));
    fit.cancelled = static_cast<std::uint64_t>(started.process_counter("des.events_cancelled"));
    fit.msgs = static_cast<std::uint64_t>(started.process_counter("mpisim.sends"));
    fit.bytes = static_cast<std::uint64_t>(started.process_counter("mpisim.bytes_sent"));
    fit.runs = static_cast<std::uint64_t>(started.process_counter("measure.runs"));
    report_fit_layers(fit, log.self_s("measure.run_plan"), out);
    out.metric("obs.trace_overhead_frac", fit.wall_s / untraced_fit_s - 1.0, "1");
    ReplayInputs replay;
    replay.est = &*ref.est;
    replay.space = &ref.space;
    replay.sets.push_back(&ref.basic);
    for (std::size_t i = 0; i < estimated.size(); ++i)
      if (estimated[i]) replay.configs.push_back(ref.candidates[i]);
    replay.ns = reads.sizes();
    replay.observations = observed;
    replay_layers(replay, out);
    report_server_layers(*socket_load, out);
    log.write(opts.workload + "-" + std::to_string(opts.seed) + ".trace.json");
    return 0;
  }

  std::cerr << "perfbench: " << opts.workload << " " << shares.size() << " shares of "
            << shares.front().read_ms.size() << " reads, answer-cache hit fraction "
            << median(hit_fracs) << " (median over shares)\n";
  out.metric("setup_s", median(setups), "s");
  // This process hosts the service that answered the whole load (plus the
  // reference fit and the generators); the daemon's own peak after
  // start-up is the same fit and snapshot without the load's growth.
  out.metric("rss_mb", peak_rss_mb(), "MB");
  out.metric("selection_err", acc.selection_err, "1");
  out.metric("estimate_err", acc.estimate_err, "1");
  return 0;
}

}  // namespace perfbench
