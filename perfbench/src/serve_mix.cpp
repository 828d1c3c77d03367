// serve-mix: klotski_served with 2 workers, driven over TCP loopback by 4
// connections.
//
// The request mix, per 100 requests (every block of 100 holds exactly these
// counts, in an order drawn from the seed):
//   plan_cold    16  plan of a never-seen NPD variant (clos, flat or reconf,
//                    preset B reduced, demand scaled by a seeded factor in
//                    [0.85, 1]), so every miss is distinct planner work
//   plan_repeat  32  plan of a key from a 96-key working set, larger than the
//                    daemon's 64-entry cache, so hits and evictions both occur
//   audit        16  audit of the local plan of a sampled working-set key
//   whatif        4  4-trajectory sweep (4 margin iterations) over the same,
//                    with a fresh seed, so always cold
//   ping         24
//   stats         8
// klotski_loadgen's default mix (plan=6, ping=3, stats=1) fills 80 of every
// 100 requests; audit and whatif, which loadgen does not send, fill the
// other 20 at 4:1, and one plan in three is cold. Those splits are chosen,
// not measured from any traffic; serve.time_share.<kind> reports the share
// of serve time each kind takes, so what the bounded figure depends on is
// visible.
//
// The work unit is one batch of kBatch requests of the mix sent
// closed-loop at saturation; work_s is the median batch time over the
// batches of kDaemons daemons started one after another.
//
// With --trace 1, the untraced pass then drives a fresh daemon in an open
// loop: request i is due at t0 + i / rate whatever happened before, and its
// latency runs from when it was due, so a stall is charged to every request
// it delays; how late the generator sent is reported separately. Phases:
// an untimed warm-up at the high rate, `low` and `high` at fixed rates, and
// a ladder of rates searched for the highest one whose p99 stays under
// kLatencyLimitMs with every request answered ok and the generator on time
// (serve.max_qps). The traced pass starts another daemon with --metrics-out
// and --trace-out, replays the same warm-up and low-phase requests on it
// and then kTracedBatches saturation batches; the daemon's counters and
// spans give the server-side split, and its median batch time minus the
// untraced one is the tracing overhead. The planning layers are timed
// in-process on the sampled keys' NPDs, which the daemon plans too.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <iterator>
#include <limits>
#include <numeric>
#include <thread>

#include "common.h"
#include "klotski/npd/npd_io.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/pipeline/plan_export.h"
#include "klotski/serve/client.h"
#include "klotski/util/file.h"

namespace perfbench {

using namespace klotski;

namespace {

// Set-ups (daemon start to first answered ping) are timed in batches
// spread over the run: before the load and before every saturation batch
// (~35 batches of 7 at --seconds 20, ~2 s with the drains), and on
// --trace 1 runs before every later open-loop phase and rung.
// A shared host's speed switches between states that last seconds, so
// set-ups timed back to back all land in one state and their median
// follows it; spread out, they sample the run's mix of states.
constexpr int kSetupsPerBatch = 7;
constexpr int kWorkers = 2;
constexpr int kConnections = 4;
constexpr int kCacheCapacity = 64;
constexpr int kWorkingSetPerFamily = 32;  // 96 keys in all
constexpr int kSamplePerFamily = 2;       // keys checked against local plans
constexpr int kWhatifTrajectories = 4;
constexpr int kWhatifMarginIterations = 4;
constexpr double kLowQps = 500.0;
constexpr double kHighQps = 1500.0;
constexpr double kLatencyLimitMs = 50.0;
// Requests per saturation batch (~0.5 s at ~4,000 req/s), and the batches
// the traced daemon gets.
constexpr std::size_t kBatch = 2000;
constexpr int kTracedBatches = 4;
// Daemons the saturation phase is split over.
constexpr int kDaemons = 4;
constexpr double kLadderMinQps = 300.0;
constexpr double kLadderMaxQps = 9600.0;
constexpr int kLadderRungs = 257;  // ~1.4% apart
constexpr double kLadderProbes = 12.0;  // rungs run, retries included

enum Kind { kPing, kStats, kPlanCold, kPlanRepeat, kAudit, kWhatif };
const char* const kKindNames[] = {"ping",  "stats", "plan_cold",
                                  "plan_repeat", "audit", "whatif"};
/// Requests of each kind per 100 (see the top of the file for where the
/// weights come from).
const std::pair<Kind, int> kMix[] = {{kPing, 24},      {kStats, 8},
                                     {kPlanCold, 16},  {kPlanRepeat, 32},
                                     {kAudit, 16},     {kWhatif, 4}};

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(mix64(mix64(seed ^ mix64(a)) + b) >> 11) *
         0x1.0p-53;
}

const topo::TopologyFamily kFamilies[] = {topo::TopologyFamily::kClos,
                                          topo::TopologyFamily::kFlat,
                                          topo::TopologyFamily::kReconf};

/// The NPD of one seeded variant: preset B reduced with its demand scaled
/// down by a factor in [0.85, 1]. Lower demand keeps every state the
/// unscaled plan passes safe (ECMP loads are linear in volume), so every
/// variant has a plan, but the factor changes the key and the checks.
json::Value variant_npd(std::uint64_t seed, int family, std::uint64_t variant) {
  const topo::TopologyFamily fam = kFamilies[family];
  npd::NpdDocument doc = pipeline::synth_document(
      fam, topo::PresetId::kB, topo::PresetScale::kReduced,
      npd::default_migration(fam));
  const double f = 1.0 - 0.15 * unit(seed, static_cast<std::uint64_t>(family),
                                     variant);
  doc.name += "-v" + std::to_string(variant);
  doc.demand.egress_frac *= f;
  doc.demand.ingress_frac *= f;
  doc.demand.east_west_frac *= f;
  doc.demand.intra_dc_frac *= f;
  doc.flat_mig.origin_utilization_cap *= f;
  doc.reconf_mig.origin_utilization_cap *= f;
  return npd::to_json(doc);
}

json::Value plan_params(const json::Value& npd) {
  json::Object params;
  params["npd"] = npd;
  params["planner"] = "astar";
  return json::Value(std::move(params));
}

/// A working-set key checked end to end: its NPD and the plan the local
/// pipeline produces for it (wall time zeroed).
struct SampleKey {
  json::Value npd;
  json::Value plan;
  std::string local_bytes;
};

/// klotski_served as a child process on an ephemeral loopback port.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& work_dir,
         const std::vector<std::string>& extra_args = {}) {
    const std::string endpoint_file =
        work_dir + "/endpoint-" + std::to_string(::getpid()) + ".txt";
    ::unlink(endpoint_file.c_str());
    int ready[2];
    if (::pipe(ready) != 0) throw std::runtime_error("pipe failed");
    const std::string log_path = work_dir + "/served.log";
    std::vector<std::string> args = {
        binary,
        "--listen=127.0.0.1:0",
        "--endpoint-out=" + endpoint_file,
        "--workers=" + std::to_string(kWorkers),
        "--cache-capacity=" + std::to_string(kCacheCapacity),
        "--ready-fd=" + std::to_string(ready[1]),
    };
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    // vfork, not fork: fork copies the page tables of this process, which
    // holds every generated request, so its cost would grow with the run
    // and show up in setup_s. The child makes only raw system calls.
    const pid_t pid = ::vfork();
    if (pid < 0) throw std::runtime_error("vfork failed");
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      ::close(ready[0]);
      if (log_fd >= 0) {
        ::dup2(log_fd, 1);
        ::dup2(log_fd, 2);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    pid_ = pid;
    if (log_fd >= 0) ::close(log_fd);
    ::close(ready[1]);
    pollfd pfd{ready[0], POLLIN, 0};
    char byte = 0;
    const bool up = ::poll(&pfd, 1, 30'000) == 1 && ::read(ready[0], &byte, 1) == 1;
    ::close(ready[0]);
    if (!up) {
      stop();
      throw std::runtime_error("klotski_served did not come up (see " +
                               log_path + ")");
    }
    endpoint_ = util::read_file(endpoint_file);
    while (!endpoint_.empty() && std::isspace(static_cast<unsigned char>(
                                     endpoint_.back()))) {
      endpoint_.pop_back();
    }
    ::unlink(endpoint_file.c_str());
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Graceful drain (SIGTERM); SIGKILL after 20 s. Returns the exit code,
  /// or -1 when it had to be killed or was already stopped.
  int stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const Clock::time_point start = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(start) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  const std::string& endpoint() const { return endpoint_; }
  int pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  std::string endpoint_;
};

/// One request of a phase and what happened to it.
struct Shot {
  Kind kind = kPing;
  serve::Request request;
  double due_ms = 0, sent_ms = 0, done_ms = 0;
  bool ok = false;
  bool cached = false;
  long long queued = -1;        // stats responses: jobs queued
  std::size_t response_bytes = 0;  // traced phases only
  std::string error;
};

struct Phase {
  std::vector<Shot> shots;
  double rate = 0.0;

  std::vector<double> latencies(int kind = -1) const {
    std::vector<double> out;
    for (const Shot& s : shots) {
      if (kind >= 0 && s.kind != kind) continue;
      out.push_back(s.done_ms - s.due_ms);
    }
    return out;
  }
  std::vector<double> lateness() const {
    std::vector<double> out;
    for (const Shot& s : shots) out.push_back(s.sent_ms - s.due_ms);
    return out;
  }
  bool all_ok() const {
    return std::all_of(shots.begin(), shots.end(),
                       [](const Shot& s) { return s.ok; });
  }
};

class MixGenerator {
 public:
  MixGenerator(std::uint64_t seed, std::vector<SampleKey> samples)
      : seed_(seed), samples_(std::move(samples)) {
    for (int family = 0; family < 3; ++family) {
      for (int v = 0; v < kWorkingSetPerFamily; ++v) {
        working_set_[family].push_back(
            plan_params(variant_npd(seed, family, static_cast<std::uint64_t>(v))));
      }
    }
  }

  /// Builds `count` requests for phase number `phase` (so cold variants
  /// and whatif seeds never repeat across phases). Kinds are stratified:
  /// every block of 100 requests holds exactly the mix, in seeded order, so
  /// heavy requests do not cluster by chance.
  std::vector<Shot> build(int phase, std::size_t count) const {
    std::vector<Shot> shots(count);
    std::vector<Kind> block;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t tag = (static_cast<std::uint64_t>(phase) << 32) | i;
      if (i % 100 == 0) {
        block.clear();
        for (const auto& [kind, weight] : kMix) block.insert(block.end(), weight, kind);
        for (std::size_t j = block.size() - 1; j > 0; --j) {
          std::swap(block[j], block[static_cast<std::size_t>(
                                  unit(seed_, 101, tag + j) * static_cast<double>(j + 1))]);
        }
      }
      Shot& shot = shots[i];
      shot.kind = block[i % 100];
      shot.request.id = std::to_string(tag);
      shot.request.params = json::Object{};
      const int family = static_cast<int>(unit(seed_, 102, tag) * 3.0);
      switch (shot.kind) {
        case kPing:
          shot.request.method = "ping";
          break;
        case kStats:
          shot.request.method = "stats";
          break;
        case kPlanCold:
          shot.request.method = "plan";
          shot.request.params =
              plan_params(variant_npd(seed_, family, (1ULL << 40) + tag));
          break;
        case kPlanRepeat:
          shot.request.method = "plan";
          shot.request.params = working_set_[family][static_cast<std::size_t>(
              unit(seed_, 103, tag) * kWorkingSetPerFamily)];
          break;
        case kAudit:
        case kWhatif: {
          const SampleKey& key = sample(tag);
          json::Object params;
          params["npd"] = key.npd;
          params["plan"] = key.plan;
          if (shot.kind == kWhatif) {
            params["trajectories"] = kWhatifTrajectories;
            params["margin_iterations"] = kWhatifMarginIterations;
            params["seed"] = static_cast<std::int64_t>(tag);
          }
          shot.request.method = shot.kind == kAudit ? "audit" : "whatif";
          shot.request.params = json::Value(std::move(params));
          break;
        }
      }
    }
    return shots;
  }

 private:
  const SampleKey& sample(std::uint64_t tag) const {
    return samples_[static_cast<std::size_t>(unit(seed_, 104, tag) *
                                             static_cast<double>(samples_.size()))];
  }

  std::uint64_t seed_;
  std::vector<SampleKey> samples_;
  std::vector<json::Value> working_set_[3];  // plan params per family
};

bool response_ok(Kind kind, const serve::Response& response) {
  if (!response.ok() || !response.result.is_object()) return false;
  const json::Object& result = response.result.as_object();
  switch (kind) {
    case kPlanCold:
    case kPlanRepeat: {
      const json::Value* plan = result.find("plan");
      return plan != nullptr && plan->is_object() &&
             plan->get_double("cost", 0.0) > 0.0;
    }
    case kAudit: {
      const json::Value* ok = result.find("ok");
      return ok != nullptr && ok->is_bool() && ok->as_bool();
    }
    case kWhatif:
      return result.contains("report");
    case kStats:
      return result.contains("jobs") && result.contains("cache");
    case kPing:
      return true;
    default:
      return false;
  }
}

/// Sends the shots open-loop at `rate` over kConnections connections.
Phase run_phase(const std::string& endpoint, std::vector<Shot> shots,
                double rate, bool traced) {
  Phase phase;
  phase.rate = rate;
  phase.shots = std::move(shots);
  std::vector<serve::Client> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(serve::Client::connect_with_retry(
        serve::Endpoint::parse(endpoint)));
  }
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  auto ms_since_t0 = [t0] {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };
  auto worker = [&](serve::Client& client) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= phase.shots.size()) return;
      Shot& shot = phase.shots[i];
      shot.due_ms = 1e3 * static_cast<double>(i) / rate;
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(shot.due_ms)));
      shot.sent_ms = ms_since_t0();
      try {
        const serve::Response response = client.call(shot.request);
        shot.done_ms = ms_since_t0();
        shot.ok = response_ok(shot.kind, response);
        shot.cached = response.cached;
        if (!shot.ok) shot.error = response.status + " " + response.error;
        if (shot.kind == kStats && shot.ok) {
          shot.queued = response.result.at("jobs").get_int("queued", -1);
        }
        if (traced) shot.response_bytes = response.to_line().size();
      } catch (const std::exception& e) {
        shot.done_ms = ms_since_t0();
        shot.error = std::string("transport: ") + e.what();
        try {
          client = serve::Client(serve::Endpoint::parse(endpoint));
        } catch (const std::exception&) {
          // The next request on this connection reports the failure.
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (serve::Client& client : clients) {
    threads.emplace_back(worker, std::ref(client));
  }
  for (std::thread& t : threads) t.join();
  return phase;
}

void count_operations(Outcome& out, const Phase& phase, const char* label) {
  for (const Shot& s : phase.shots) {
    out.operation(s.ok, std::string(label) + " " + kKindNames[s.kind] + ": " +
                            s.error);
  }
}

json::Value stats_of(serve::Client& client) {
  const serve::Response response = client.call("stats", json::Object{});
  if (!response.ok()) throw std::runtime_error("stats failed: " + response.error);
  return response.result;
}

long long stat(const json::Value& stats, const char* group, const char* key) {
  return stats.at(group).get_int(key, 0);
}

/// Durations in ms of every span named `name` in a Chrome trace_event file.
std::vector<double> span_ms(const json::Value& trace, const std::string& name) {
  std::vector<double> out;
  for (const json::Value& event : trace.at("traceEvents").as_array()) {
    if (event.at("name").as_string() == name) {
      out.push_back(static_cast<double>(event.get_int("dur", 0)) / 1e3);
    }
  }
  return out;
}

/// Each sample key's cold plan, then its replay: the served plan must equal
/// the local pipeline's, and the cached response the cold one. Leaves the
/// sample keys in the daemon's cache.
void check_samples(serve::Client& client, const std::vector<SampleKey>& samples,
                   Outcome& out) {
  for (const SampleKey& key : samples) {
    const serve::Response cold = client.call("plan", plan_params(key.npd));
    const serve::Response hit = client.call("plan", plan_params(key.npd));
    out.operation(cold.ok() && !cold.cached && hit.ok(), "sample plan (cold)");
    out.gate(cold.ok() && hit.ok() && hit.cached &&
                 json::dump(hit.result.at("plan"), 2) ==
                     json::dump(cold.result.at("plan"), 2),
             "cached plan response differs from the cold one");
    out.gate(cold.ok() && without_wall(cold.result.at("plan")) == key.local_bytes,
             "served plan differs from the local run_pipeline plan");
  }
}

/// After the load: served plans still equal the local pipeline's, and a
/// replay is still answered from the cache with the same bytes.
void replay_samples(serve::Client& client, const std::vector<SampleKey>& samples,
                    Outcome& out) {
  for (const SampleKey& key : samples) {
    const serve::Response first = client.call("plan", plan_params(key.npd));
    const serve::Response again = client.call("plan", plan_params(key.npd));
    out.operation(first.ok() && again.ok(), "sample plan (replay)");
    if (!first.ok() || !again.ok()) continue;
    out.gate(again.cached && json::dump(again.result.at("plan"), 2) ==
                                 json::dump(first.result.at("plan"), 2),
             "cached plan response differs from the response before it");
    out.gate(without_wall(first.result.at("plan")) == key.local_bytes,
             "served plan differs from the local run_pipeline plan");
  }
}

}  // namespace

void run_serve_mix(const Options& options, Outcome& out) {
  // Sampled working-set keys and their local plans (the byte-identity
  // reference and the payload of audit/whatif requests).
  std::vector<SampleKey> samples;
  for (int family = 0; family < 3; ++family) {
    for (int v = 0; v < kSamplePerFamily; ++v) {
      SampleKey key;
      key.npd = variant_npd(options.seed, family, static_cast<std::uint64_t>(v));
      const pipeline::EdpResult local =
          pipeline::run_pipeline(npd::from_json(key.npd));
      out.gate(local.plan.found, "local plan for sample key failed");
      key.plan = pipeline::plan_to_json(local.migration.task, local.plan);
      key.local_bytes = without_wall(key.plan);
      samples.push_back(std::move(key));
    }
  }
  const MixGenerator mix(options.seed, samples);

  // Set-up: daemon start to first answered ping.
  std::vector<double> setup_s;
  auto setup_batch = [&] {
    for (int rep = 0; rep < kSetupsPerBatch; ++rep) {
      const Clock::time_point start = Clock::now();
      Daemon probed(options.served, options.work_dir);
      {
        serve::Client probe = serve::Client::connect_with_retry(
            serve::Endpoint::parse(probed.endpoint()));
        out.gate(probe.call("ping", json::Object{}).ok(), "first ping failed");
        setup_s.push_back(seconds_since(start));
      }
      out.gate(probed.stop() == 0, "daemon did not drain cleanly");
    }
  };
  setup_batch();

  // Phases 0 and 1 are the open-loop warm-up and low phase; the traced pass
  // replays both. Saturation batches and the other phases draw fresh
  // requests from phase 2 on.
  const auto warm_up_count = static_cast<std::size_t>(kHighQps * options.seconds * 0.1);
  const auto low_count = static_cast<std::size_t>(kLowQps * options.seconds * 0.1);
  int phase_no = 2;
  auto saturation_batch = [&](const std::string& endpoint, const char* label) {
    Phase batch = run_phase(endpoint, mix.build(phase_no++, kBatch),
                            std::numeric_limits<double>::infinity(), false);
    count_operations(out, batch, label);
    return batch;
  };
  auto batch_seconds = [](const Phase& batch) {
    double last_done_ms = 0.0;
    for (const Shot& shot : batch.shots) {
      last_done_ms = std::max(last_done_ms, shot.done_ms);
    }
    return last_done_ms / 1e3;
  };

  // Saturation, for 90% of --seconds, split over kDaemons daemons started
  // one after another: batches of kBatch requests that are all due at once,
  // so each connection sends its next request as soon as the previous one
  // is answered (a closed loop with 4 clients). Requests are built between
  // batches, outside the timed spans. One daemon's batches agree within a
  // few percent, but daemons started seconds apart differ by 10-25%
  // (README), so work_s is the median over the batches of all daemons.
  // Each daemon first gets the sample checks and one untimed batch: the
  // first step up in load after a daemon starts stalls it for ~0.5 s (a
  // user pays it once per daemon start).
  const double per_daemon_s = options.seconds * 0.9 / kDaemons;
  std::vector<double> batch_s, peak_mb;
  double kind_ms[std::size(kKindNames)] = {};
  for (int d = 0; d < kDaemons; ++d) {
    Daemon daemon(options.served, options.work_dir);
    serve::Client control = serve::Client::connect_with_retry(
        serve::Endpoint::parse(daemon.endpoint()));
    check_samples(control, samples, out);
    saturation_batch(daemon.endpoint(), "warm-up");
    for (double spent = 0.0; spent < per_daemon_s;) {
      setup_batch();
      const Phase batch = saturation_batch(daemon.endpoint(), "saturation");
      for (const Shot& shot : batch.shots) {
        kind_ms[shot.kind] += shot.done_ms - shot.sent_ms;
      }
      batch_s.push_back(batch_seconds(batch));
      spent += batch_s.back();
    }
    replay_samples(control, samples, out);
    peak_mb.push_back(
        static_cast<double>(proc_status_field(daemon.pid(), "VmHWM")) / 1024.0);
    out.gate(daemon.stop() == 0, "daemon did not drain cleanly");
  }
  std::cout << "  saturation: " << batch_s.size() << " batches of " << kBatch
            << " requests on " << kDaemons << " daemons; batch seconds";
  for (double b : batch_s) std::cout << " " << b;
  std::cout << "\n";
  out.end_to_end("setup_s", median(setup_s), "s");
  out.end_to_end("work_s", median(batch_s), "s");
  out.end_to_end("peak_rss_mb", median(peak_mb), "MB");
  out.detail("serve_saturated_qps", static_cast<double>(kBatch) / median(batch_s),
             "1/s");

  if (!options.trace) return;

  // The open-loop phases, untraced, on a fresh daemon: warm-up (10% of
  // --seconds), low (10%), high (10%) and the ladder (20%). Latency at
  // fixed rates is too unsteady to bound (README), so these run on
  // --trace 1 runs only and are reported with the workload's figures.
  Daemon daemon(options.served, options.work_dir);
  const double high_s = options.seconds * 0.1;
  auto timed_phase = [&](double rate, double seconds) {
    setup_batch();
    const auto count = static_cast<std::size_t>(rate * seconds);
    return run_phase(daemon.endpoint(), mix.build(phase_no++, count), rate,
                     false);
  };
  count_operations(out,
                   run_phase(daemon.endpoint(), mix.build(0, warm_up_count),
                             kHighQps, false),
                   "warm-up");
  setup_batch();
  const Phase low =
      run_phase(daemon.endpoint(), mix.build(1, low_count), kLowQps, false);
  const Phase high = timed_phase(kHighQps, high_s);
  count_operations(out, low, "low");
  count_operations(out, high, "high");
  // Latency at the fixed rates swings with load on the host (idle vCPUs
  // wake slowly) by more than any bound a later change could be held to
  // (README), so it is printed here and reported, unbounded, with the
  // workload's figures.
  const double p50_low = median(low.latencies());
  const double p99_low = quantile(low.latencies(), 0.99);
  const double p50_high = median(high.latencies());
  const double p99_high = quantile(high.latencies(), 0.99);
  std::cout << "  low " << kLowQps << "/s: p50 " << p50_low << " ms, p99 "
            << p99_low << " ms (" << low.shots.size() << " requests)\n"
            << "  high " << kHighQps << "/s: p50 " << p50_high << " ms, p99 "
            << p99_high << " ms (" << high.shots.size() << " requests)\n";

  // Ladder: kLadderRungs geometric rates from kLadderMinQps to
  // kLadderMaxQps, searched by bisection for the highest rung that meets
  // the limit. A refused or failed request misses the limit; so does a
  // rung whose generator fell behind (a growing backlog). A missed rung is
  // run once more before it counts, so one stall cannot halve the range.
  const double rung_s = options.seconds * 0.2 / kLadderProbes;
  auto rung_rate = [](int rung) {
    return kLadderMinQps *
           std::pow(kLadderMaxQps / kLadderMinQps,
                    static_cast<double>(rung) / (kLadderRungs - 1));
  };
  auto meets_limit = [&](int rung) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const Phase phase = timed_phase(rung_rate(rung), rung_s);
      count_operations(out, phase, "ladder");
      const double p99 = quantile(phase.latencies(), 0.99);
      const bool pass = phase.all_ok() && p99 <= kLatencyLimitMs &&
                        quantile(phase.lateness(), 0.99) <= kLatencyLimitMs;
      std::cout << "  ladder " << rung_rate(rung) << " qps: p99 " << p99
                << " ms" << (pass ? "" : " (limit missed)") << "\n";
      if (pass) return true;
    }
    return false;
  };
  double max_qps = 0.0;  // when even the lowest rung misses the limit
  if (meets_limit(0)) {
    int lo = 0, hi = kLadderRungs;  // rung lo meets the limit, hi does not
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      (meets_limit(mid) ? lo : hi) = mid;
    }
    max_qps = rung_rate(lo);
  }
  // The ladder hinges on p99 pass/fail calls, which inherit the p99's
  // swings (README), so it is reported unbounded with the workload's
  // figures. The bounded capacity figure is the closed-loop one below.
  std::cout << "  max_qps (p99 <= " << kLatencyLimitMs << " ms): " << max_qps
            << "/s\n";

  out.gate(daemon.stop() == 0, "daemon did not drain cleanly");

  // Traced pass: a fresh daemon with its metrics registry and tracer on,
  // written on drain, gets the same sample checks, warm-up and low-phase
  // requests as the untraced daemon did. Response sizes are recorded, and
  // the daemon's /proc entry and stats are polled during the low phase.
  const std::string metrics_path = options.work_dir + "/served-metrics.json";
  const std::string trace_path = options.work_dir + "/served-trace.json";
  ::unlink(metrics_path.c_str());
  ::unlink(trace_path.c_str());
  Daemon traced_daemon(options.served, options.work_dir,
                       {"--metrics-out=" + metrics_path,
                        "--trace-out=" + trace_path});
  serve::Client traced_control = serve::Client::connect_with_retry(
      serve::Endpoint::parse(traced_daemon.endpoint()));
  check_samples(traced_control, samples, out);
  const Phase traced_warm_up = run_phase(
      traced_daemon.endpoint(), mix.build(0, warm_up_count), kHighQps, false);
  count_operations(out, traced_warm_up, "traced warm-up");
  const json::Value before = stats_of(traced_control);
  std::atomic<bool> done{false};
  long long threads_peak = 0, rss_peak_kb = 0;
  std::thread monitor([&] {
    while (!done.load()) {
      threads_peak = std::max(
          threads_peak, proc_status_field(traced_daemon.pid(), "Threads"));
      rss_peak_kb = std::max(rss_peak_kb,
                             proc_status_field(traced_daemon.pid(), "VmRSS"));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  const Phase traced = run_phase(traced_daemon.endpoint(),
                                 mix.build(1, low_count), kLowQps, true);
  done.store(true);
  monitor.join();
  const json::Value after = stats_of(traced_control);
  count_operations(out, traced, "traced");
  std::vector<Phase> traced_batches;
  std::vector<double> traced_batch_s;
  for (int b = 0; b < kTracedBatches; ++b) {
    traced_batches.push_back(
        saturation_batch(traced_daemon.endpoint(), "traced saturation"));
    traced_batch_s.push_back(batch_seconds(traced_batches.back()));
  }
  out.gate(traced_daemon.stop() == 0, "traced daemon did not drain cleanly");

  for (int kind : {kPing, kAudit, kWhatif}) {
    out.detail(std::string("serve.") + kKindNames[kind] + "_p50_ms",
               median(traced.latencies(kind)), "ms");
  }
  std::vector<double> cold, cached;
  for (const Shot& s : traced.shots) {
    if (s.kind != kPlanCold && s.kind != kPlanRepeat) continue;
    (s.cached ? cached : cold).push_back(s.done_ms - s.due_ms);
  }
  out.detail("serve.plan_cold_p50_ms", median(cold), "ms");
  out.detail("serve.plan_cached_p50_ms", median(cached), "ms");
  out.detail("serve.plan_hit_share",
             static_cast<double>(cached.size()) /
                 static_cast<double>(std::max<std::size_t>(1, cold.size() + cached.size())),
             "ratio");
  const long long hits = stat(after, "cache", "hits") - stat(before, "cache", "hits");
  const long long misses =
      stat(after, "cache", "misses") - stat(before, "cache", "misses");
  out.detail("serve.cache_hit_ratio",
             hits + misses > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0.0,
             "ratio");
  out.detail("serve.cache_evictions",
             static_cast<double>(stat(after, "cache", "evictions") -
                                 stat(before, "cache", "evictions")),
             "count");
  out.detail("serve.coalesced",
             static_cast<double>(stat(after, "cache", "coalesced") -
                                 stat(before, "cache", "coalesced")),
             "count");
  out.detail("serve.rejected_overloaded",
             static_cast<double>(stat(after, "jobs", "rejected_overloaded") -
                                 stat(before, "jobs", "rejected_overloaded")),
             "count");
  long long queue_max = 0;
  for (const Shot& s : traced.shots) queue_max = std::max(queue_max, s.queued);
  out.detail("serve.queue_depth_max", static_cast<double>(queue_max), "count");

  // The daemon's own spans, over its whole traced life. A cold plan's time
  // from send to answer splits into planning (serve.plan_run) and the rest:
  // admission, cache, the pre-emit audit, JSON and transport.
  const json::Value trace = json::parse(util::read_file(trace_path));
  const json::Value metrics = json::parse(util::read_file(metrics_path));
  std::vector<double> plan_run_ms = span_ms(trace, "serve.plan_run");
  const std::vector<double> whatif_run_ms = span_ms(trace, "serve.whatif_run");
  out.gate(static_cast<long long>(plan_run_ms.size()) ==
               metrics.at("counters").get_int("serve.plan_runs", -1),
           "serve.plan_run spans differ from the serve.plan_runs counter");
  // The first spans are the sample checks' cold plans, run one at a time
  // with no load; they are left out.
  plan_run_ms.erase(plan_run_ms.begin(),
                    plan_run_ms.begin() + static_cast<std::ptrdiff_t>(std::min(
                                              plan_run_ms.size(), samples.size())));
  std::vector<const Phase*> traced_phases = {&traced_warm_up, &traced};
  for (const Phase& batch : traced_batches) traced_phases.push_back(&batch);
  double cold_plan_ms = 0.0;
  for (const Phase* phase : traced_phases) {
    for (const Shot& s : phase->shots) {
      if ((s.kind == kPlanCold || s.kind == kPlanRepeat) && !s.cached) {
        cold_plan_ms += s.done_ms - s.sent_ms;
      }
    }
  }
  out.detail("serve.plan_run_ms_p50", median(plan_run_ms), "ms");
  out.detail("serve.whatif_run_ms_p50", median(whatif_run_ms), "ms");
  out.detail("serve.plan_run_share",
             cold_plan_ms > 0.0 ? std::accumulate(plan_run_ms.begin(),
                                                  plan_run_ms.end(), 0.0) /
                                      cold_plan_ms
                                : 0.0,
             "ratio");

  // Which kinds the serve time goes to, from the untraced saturation phase
  // (send to answer, summed per kind).
  const double all_ms =
      std::accumulate(std::begin(kind_ms), std::end(kind_ms), 0.0);
  for (std::size_t kind = 0; kind < std::size(kKindNames); ++kind) {
    out.detail(std::string("serve.time_share.") + kKindNames[kind],
               kind_ms[kind] / all_ms, "ratio");
  }

  out.detail("serve.max_qps", max_qps, "1/s");
  out.detail("serve.p50_ms.low", p50_low, "ms");
  out.detail("serve.p99_ms.low", p99_low, "ms");
  out.detail("serve.p50_ms.high", p50_high, "ms");
  out.detail("serve.p99_ms.high", p99_high, "ms");
  out.detail("serve.gen_late_p99_ms", quantile(high.lateness(), 0.99), "ms");
  out.detail("serve.daemon_threads_peak", static_cast<double>(threads_peak),
             "count");
  out.detail("serve.daemon_rss_mb", static_cast<double>(rss_peak_kb) / 1024.0,
             "MB");
  double bytes = 0;
  for (const Shot& s : traced.shots) bytes += static_cast<double>(s.response_bytes);
  out.detail("json.response_kb_mean",
             bytes / 1024.0 / static_cast<double>(traced.shots.size()), "KB");
  out.detail("trace.overhead_ms.serve_p50_low",
             median(traced.latencies()) - p50_low, "ms");

  // The planning layers, on the sampled keys' NPDs: the cold plans the
  // daemon makes for them, made here on TimedChecker stacks.
  PlanSplit split;
  std::vector<double> build_ms, init_ms;
  for (const SampleKey& key : samples) {
    Clock::time_point start = Clock::now();
    migration::MigrationCase c = npd::build_case(npd::from_json(key.npd));
    build_ms.push_back(seconds_since(start) * 1e3);
    start = Clock::now();
    { pipeline::CheckerBundle b = pipeline::make_standard_checker(c.task); }
    init_ms.push_back(seconds_since(start) * 1e3);
    const CasePlan timed = plan_case(c.task, "astar", 1, &split);
    out.operation(timed.plan.found, "sample plan on the timed checker stack");
    out.gate(timed.bytes == key.local_bytes,
             "sample plan on the timed checker stack differs from run_pipeline's");
  }
  // Requests the traced daemon served: the sample checks, warm-up, low
  // phase, two stats calls and the saturation batches.
  const double traced_requests = static_cast<double>(
      2 * samples.size() + warm_up_count + low_count + 2 + kTracedBatches * kBatch);
  report_shared_layers(out, split, ObsTotals::from(metrics, trace),
                       traced_requests / static_cast<double>(kBatch),
                       median(build_ms), median(init_ms),
                       median(traced_batch_s) - median(batch_s));
}

}  // namespace perfbench
