// The `daemon` workload: an in-process ServiceDaemon on loopback with
// 2 pool workers; two client connections each submit, back to back,
// small sweep campaigns (4 cases of a few simulated seconds). Every streamed
// record must be byte-identical to an in-process SweepEngine run of the
// same CampaignRequest.
#include <algorithm>
#include <atomic>
#include <thread>

#include "layers.hpp"
#include "meter.hpp"
#include "svc/campaign_scheduler.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/wire.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace svc = hars::svc;

constexpr double kCaseSeconds = 20.0;
constexpr int kClients = 2;
/// Pool workers of the daemon, and jobs of the in-process runs its
/// records and overhead are compared with.
constexpr int kWorkers = 2;
constexpr int kSetupReps = 15;

/// One small campaign per PARSEC benchmark: two benchmarks x {Baseline,
/// HARS-EI}, a few simulated seconds per case. Every benchmark is in two
/// campaigns; `seed` picks the pairing, so the work of a whole set does
/// not depend on it.
std::vector<svc::CampaignRequest> make_requests(std::uint64_t seed,
                                                std::uint64_t exp_seed) {
  const auto benches = hars::all_parsec_benchmarks();
  const std::size_t offset = 1 + seed % (benches.size() - 1);
  std::vector<svc::CampaignRequest> requests;
  for (std::size_t r = 0; r < benches.size(); ++r) {
    svc::CampaignRequest req;
    req.benches = {
        std::string(hars::parsec_code(benches[r])),
        std::string(hars::parsec_code(benches[(r + offset) % benches.size()]))};
    req.variants = {"Baseline", "HARS-EI"};
    req.duration_sec = kCaseSeconds;
    req.seed = exp_seed;
    requests.push_back(req);
  }
  return requests;
}

/// The in-process run of `request` (its records as text, and its wall
/// time); ticks are sampled like every other run.
struct Local {
  std::vector<std::string> lines;
  std::vector<hars::Record> records;
  double wall_ms = 0.0;
  hars::SweepReport report;
};

Local run_local(const svc::CampaignRequest& request, int jobs, bool traced,
                Result& result) {
  hars::SweepSpec spec;
  std::size_t cases = 0;
  const std::string error = svc::expand_sweep_campaign(request, &spec, &cases);
  if (!error.empty()) throw std::runtime_error(error);
  const hars::BuilderMutator base = spec.base_mutator();
  spec.base([base](hars::ExperimentBuilder& b) {
    base(b);
    b.sample_every(kSlicePeriod, tick_sampler());
  });
  if (traced) trace_cases(spec);
  hars::SweepOptions options;
  options.jobs = jobs;
  options.keep_results = false;
  CaptureSink sink;
  hars::SweepEngine engine(options);
  engine.add_sink(sink);
  const std::int64_t start = now_ns();
  Local local;
  local.report = engine.run(spec);
  local.wall_ms = ms_since(start);
  result.attempt(cases);
  if (local.report.failed != 0) result.fail("in-process campaign case failed");
  local.lines = std::move(sink.lines);
  local.records = std::move(sink.records);
  return local;
}

std::vector<Local> run_all_local(
    const std::vector<svc::CampaignRequest>& requests, int jobs,
    Result& result) {
  std::vector<Local> out;
  for (const svc::CampaignRequest& r : requests) {
    out.push_back(run_local(r, jobs, false, result));
  }
  return out;
}

/// A daemon with `jobs` pool workers, serving on a background thread for
/// the object's lifetime.
class Daemon {
 public:
  explicit Daemon(int jobs)
      : daemon_(config(jobs)), thread_([this] { daemon_.serve(); }) {}
  ~Daemon() {
    daemon_.stop();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  const svc::Address& address() const { return daemon_.address(); }

 private:
  static svc::DaemonConfig config(int jobs) {
    svc::DaemonConfig c;
    c.jobs = jobs;
    return c;
  }
  svc::ServiceDaemon daemon_;
  std::thread thread_;
};

/// One campaign as a client saw it.
struct Seen {
  double first_record_ms = 0.0;  ///< From submit.
  double ack_ms = 0.0;           ///< From submit (wire client only).
  double wall_ms = 0.0;          ///< Submit to summary.
  std::size_t cases = 0;
};

void check_records(const std::vector<std::string>& got,
                   const std::vector<std::string>& want, Result& result) {
  result.attempt();
  if (got != want) result.fail("daemon records differ from the local run");
}

/// Submits over the raw frame protocol so the ack's arrival is visible.
Seen submit_wire(svc::Socket& socket, std::uint64_t id,
                 const svc::CampaignRequest& request,
                 const std::vector<std::string>& want, Result& result) {
  svc::Request req;
  req.id = id;
  req.verb = "submit";
  req.campaign = request;
  Seen seen;
  std::vector<std::string> lines;
  const std::int64_t start = now_ns();
  if (!svc::write_frame(socket, svc::encode_request(req))) {
    throw std::runtime_error("daemon connection lost");
  }
  std::string payload;
  for (;;) {
    if (svc::read_frame(socket, &payload) != svc::FrameResult::kOk) {
      throw std::runtime_error("daemon connection lost");
    }
    const hars::json::Value value = hars::json::parse(payload);
    const std::string type = svc::response_type(value);
    if (type == "ack") {
      seen.ack_ms = ms_since(start);
      seen.cases = svc::parse_ack(value).cases;
    } else if (type == "record") {
      if (lines.empty()) seen.first_record_ms = ms_since(start);
      lines.push_back(record_text(svc::parse_record(value)));
    } else if (type == "summary") {
      break;
    } else {
      throw std::runtime_error("daemon answered " + payload);
    }
  }
  seen.wall_ms = ms_since(start);
  check_records(lines, want, result);
  return seen;
}

/// Runs `clients` connections, each submitting back to back until
/// `seconds` pass; `submit` does one campaign, request `next++` modulo
/// `requests` (so the requests are served in turn across calls).
template <typename Submit>
std::vector<Seen> closed_loop(int clients, double seconds,
                              std::size_t requests,
                              std::atomic<std::size_t>& next, Submit submit,
                              Result& result) {
  std::mutex mutex;
  std::vector<Seen> seen;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Result local_result;
      std::vector<Seen> local;
      try {
        while (now_ns() < deadline) {
          const int i = static_cast<int>(next++ % requests);
          local.push_back(submit(c, i, local_result));
        }
      } catch (const std::exception& e) {
        local_result.fail(std::string("daemon client: ") + e.what());
      }
      std::lock_guard<std::mutex> lock(mutex);
      seen.insert(seen.end(), local.begin(), local.end());
      result.attempt(local_result.attempted());
      for (std::size_t f = 0; f < local_result.failed(); ++f) {
        result.fail("daemon client check failed");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return seen;
}

std::vector<double> field(const std::vector<Seen>& seen, double Seen::*member) {
  std::vector<double> out;
  for (const Seen& s : seen) out.push_back(s.*member);
  return out;
}

void add_model_metrics(const std::vector<Local>& locals, Result& result) {
  std::vector<double> ratios;
  std::vector<double> in_window;
  std::vector<double> mgr_cpu;
  for (const Local& local : locals) {
    for (const hars::Record& r : local.records) {
      if (r.text("variant") != "HARS-EI") continue;
      in_window.push_back(r.number("in_window_fraction"));
      mgr_cpu.push_back(r.number("manager_cpu_pct"));
      ratios.push_back(
          r.number("perf_per_watt") /
          hars::record_number(
              local.records,
              {{"bench", r.text("bench")}, {"variant", "Baseline"}},
              "perf_per_watt"));
    }
  }
  result.add("model.gm_pp_norm", geomean(ratios), "ratio", ratios.size());
  result.add("model.in_window", mean(in_window), "fraction", in_window.size());
  result.add("model.mgr_cpu_pct", mean(mgr_cpu), "%", mgr_cpu.size());
}

/// Set-up: the in-process runs of every request at fresh experiment
/// seeds (cold calibration caches), several times, each a unit of
/// `meter`; the last seed's runs are the reference the daemon's records
/// are checked against. Every rep's runs are appended to `every_rep` when
/// given.
std::vector<Local> set_up(const Options& options, int reps,
                          std::vector<svc::CampaignRequest>& requests,
                          RefMeter& meter, Result& result,
                          std::vector<Local>* every_rep = nullptr) {
  std::vector<Local> reference;
  for (int k = 1; k <= reps; ++k) {
    requests = make_requests(options.seed, options.seed + 1000003ull * k);
    meter.measure_setup(
        [&] { reference = run_all_local(requests, kWorkers, result); });
    if (every_rep != nullptr) {
      every_rep->insert(every_rep->end(), reference.begin(), reference.end());
    }
  }
  return reference;
}

void run_traced(const Options& options, Result& result) {
  measure_svc_layer(options, options.seconds / 2, result);

  // The same campaigns in process, alternately traced and not.
  std::vector<svc::CampaignRequest> requests;
  RefMeter setup(kWorkers);
  const std::vector<Local> reference =
      set_up(options, 1, requests, setup, result);
  TracedSection section;
  alternate(
      options.seconds / 2, 2, section,
      [&] {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          check_records(
              run_local(requests[i], kWorkers, false, result).lines,
              reference[i].lines, result);
        }
      },
      [&] {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const Local local =
              run_local(requests[i], kWorkers, true, result);
          check_records(local.lines, reference[i].lines, result);
          add_sweep(section, local.report);
        }
      });
  emit_layer_metrics(section, result);
  finish_traced_run(options, result);
}

}  // namespace

void measure_svc_layer(const Options& options, double budget_s,
                       Result& result) {
  std::vector<svc::CampaignRequest> requests;
  RefMeter setup(kWorkers);
  std::vector<Local> reference = set_up(options, 1, requests, setup, result);

  std::vector<Seen> seen;
  std::vector<double> overhead_ms;
  {
    Daemon daemon(kWorkers);
    std::vector<svc::Socket> sockets;
    for (int c = 0; c < kClients; ++c) {
      sockets.push_back(svc::connect_to(daemon.address()));
    }
    std::atomic<std::size_t> next{0};
    seen = closed_loop(
        kClients, budget_s / 2, requests.size(), next,
        [&](int c, int i, Result& r) {
          return submit_wire(sockets[c], static_cast<std::uint64_t>(i + 1),
                             requests[i], reference[i].lines, r);
        },
        result);
    // Overhead: one client alone, paired with the same campaign run in
    // process; the pair's order alternates so drift cancels.
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(budget_s / 2 * 1e9);
    for (int i = 0; overhead_ms.size() < 8 || now_ns() < deadline; ++i) {
      const std::size_t r = static_cast<std::size_t>(i) % requests.size();
      const auto remote = [&] {
        return submit_wire(sockets[0], static_cast<std::uint64_t>(1000 + i),
                           requests[r], reference[r].lines, result)
            .wall_ms;
      };
      const auto local = [&] {
        return run_local(requests[r], kWorkers, false, result).wall_ms;
      };
      if (i % 2 == 0) {
        const double l = local();
        overhead_ms.push_back(remote() - l);
      } else {
        const double d = remote();
        overhead_ms.push_back(d - local());
      }
    }
  }
  (void)take_tick_samples();
  std::vector<double> after_ack;
  for (const Seen& s : seen) after_ack.push_back(s.first_record_ms - s.ack_ms);
  const std::vector<double> first = field(seen, &Seen::first_record_ms);
  result.add("svc.first_record_ms_p50", quantile(first, 0.5), "ms",
             first.size());
  result.add("svc.first_record_ms_p90", quantile(first, 0.9), "ms",
             first.size());
  result.add("svc.ack_ms_p50", median(field(seen, &Seen::ack_ms)), "ms",
             seen.size());
  result.add("svc.first_record_after_ack_ms_p50", median(after_ack), "ms",
             after_ack.size());
  result.add("svc.overhead_ms_p50", median(overhead_ms), "ms",
             overhead_ms.size());
  // The daemon turned the metrics registry on; later sections expect it
  // off unless they are traced.
  set_registry(false);
}

void run_daemon(const Options& options, Result& result) {
  if (options.trace) {
    run_traced(options, result);
    return;
  }
  // The set-up runs are the process's first: their slices also pay for
  // first-touch memory, so their tick samples stay in the set-up meter.
  std::vector<svc::CampaignRequest> requests;
  RefMeter setup(kWorkers);
  std::vector<Local> every_rep;
  const std::vector<Local> reference =
      set_up(options, kSetupReps, requests, setup, result, &every_rep);

  // Client traffic in one-second units, each followed by the reference
  // loop (the daemon idles meanwhile).
  RefMeter traffic(kWorkers);
  {
    Daemon daemon(kWorkers);
    std::vector<std::unique_ptr<svc::ServiceClient>> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<svc::ServiceClient>(daemon.address()));
    }
    const auto submit = [&](int c, int i, Result& r) {
      std::vector<std::string> lines;
      const svc::SubmitOutcome outcome = clients[c]->submit_sweep(
          requests[i], [&](const hars::Record& record) {
            lines.push_back(record_text(record));
          });
      if (!outcome.ok) throw std::runtime_error("campaign refused");
      check_records(lines, reference[i].lines, r);
      Seen s;
      s.cases = outcome.summary.cases;
      return s;
    };
    std::atomic<std::size_t> next{0};
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    while (traffic.units() < 2 || now_ns() < deadline) {
      traffic.measure([&] {
        std::size_t cases = 0;
        for (const Seen& s : closed_loop(kClients, 1.0, requests.size(), next,
                                         submit, result)) {
          cases += s.cases;
        }
        return cases;
      });
    }
  }

  // The tick cost of these campaigns, sampled in process (the daemon's
  // own runs take no sampler): three more seconds of the reference runs,
  // in units of at least half a second.
  RefMeter in_process(kWorkers);
  const std::int64_t tick_deadline = now_ns() + 3000000000;
  while (in_process.units() < 2 || now_ns() < tick_deadline) {
    in_process.measure([&] {
      std::size_t cases = 0;
      const std::int64_t unit_end = now_ns() + 500000000;
      while (now_ns() < unit_end) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const Local run = run_local(requests[i], kWorkers, false, result);
          check_records(run.lines, reference[i].lines, result);
          cases += run.report.outcomes.size();
        }
      }
      return cases;
    });
  }

  add_setup_time(setup, result);
  add_case_cost(traffic, result);
  add_tick_cost(in_process, result);
  add_model_metrics(every_rep, result);
}

}  // namespace perfbench
