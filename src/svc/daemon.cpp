#include "svc/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>
#include <utility>

#include "obs/writers.hpp"
#include "svc/frame_queue.hpp"
#include "svc/service_cache.hpp"
#include "svc/wire.hpp"

namespace hars {
namespace svc {

namespace {

/// Batch ceiling for one writer-thread write() call.
constexpr std::size_t kWriteBatchBytes = 256u << 10;

}  // namespace

struct ServiceDaemon::Connection {
  Connection(Socket s, std::size_t queue_frames)
      : socket(std::move(s)), queue(queue_frames) {}

  Socket socket;
  FrameQueue queue;
  std::uint64_t session = 0;
  std::thread handler;
  std::thread writer;
  std::mutex runners_mutex;
  std::vector<std::thread> runners;
  /// Runners that have returned but are not joined yet (runners_mutex).
  std::vector<std::thread::id> returned_runners;
  std::atomic<bool> done{false};

  /// Called by a runner as its last action.
  void runner_returned() {
    std::lock_guard<std::mutex> lock(runners_mutex);
    returned_runners.push_back(std::this_thread::get_id());
  }

  /// Joins the runners that have returned, so a long-lived connection
  /// holds only its in-flight campaigns' threads. Needs runners_mutex.
  void join_returned_runners() {
    for (const std::thread::id id : returned_runners) {
      const auto it = std::find_if(
          runners.begin(), runners.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      it->join();
      runners.erase(it);
    }
    returned_runners.clear();
  }

  /// Frames (already enveloped) flow through the bounded queue; a
  /// false push (teardown races) is deliberately ignored.
  void send(const std::string& payload) { queue.push(encode_frame(payload)); }
};

namespace {

/// ResultSink that streams records to the connection's frame queue and
/// advances the campaign's live progress counter.
class RemoteSink final : public ResultSink {
 public:
  RemoteSink(ServiceDaemon::Connection& connection, std::uint64_t request_id,
             CampaignScheduler::Campaign& campaign,
             std::atomic<std::uint64_t>& records_total,
             obs::CounterId records_metric)
      : connection_(connection),
        request_id_(request_id),
        campaign_(campaign),
        records_total_(records_total),
        records_metric_(records_metric) {}

  void write(const Record& record) override {
    connection_.send(encode_record(request_id_, record));
    campaign_.emitted.fetch_add(1, std::memory_order_relaxed);
    records_total_.fetch_add(1, std::memory_order_relaxed);
    obs::counter_add(records_metric_);
  }

 private:
  ServiceDaemon::Connection& connection_;
  std::uint64_t request_id_;
  CampaignScheduler::Campaign& campaign_;
  std::atomic<std::uint64_t>& records_total_;
  obs::CounterId records_metric_;
};

}  // namespace

ServiceDaemon::ServiceDaemon(DaemonConfig config)
    : config_(std::move(config)),
      listener_(Listener::listen(config_.listen)),
      sessions_(config_.limits),
      scheduler_(config_.jobs) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.set_enabled(true);
  requests_metric_ =
      registry.register_counter("svc.requests", "Protocol requests handled");
  records_metric_ =
      registry.register_counter("svc.records", "Records streamed to clients");
  campaigns_metric_ =
      registry.register_counter("svc.campaigns", "Campaigns admitted");
  sessions_gauge_ =
      registry.register_gauge("svc.sessions.active", "Open client sessions");
  campaigns_gauge_ = registry.register_gauge("svc.campaigns.active",
                                             "Campaigns currently running");
}

ServiceDaemon::~ServiceDaemon() {
  stop();
  reap_connections(/*join_all=*/true);
}

void ServiceDaemon::begin_drain() {
  drain_requested_.store(true, std::memory_order_release);
}

void ServiceDaemon::stop() {
  stop_requested_.store(true, std::memory_order_release);
  drain_requested_.store(true, std::memory_order_release);
}

void ServiceDaemon::serve() {
  obs::ensure_thread_registered();
  using Clock = std::chrono::steady_clock;
  std::optional<Clock::time_point> drain_start;
  bool draining_started = false;

  for (;;) {
    if (config_.drain_signal != nullptr &&
        config_.drain_signal->load(std::memory_order_relaxed) != 0) {
      drain_requested_.store(true, std::memory_order_release);
    }
    const bool stopping = stop_requested_.load(std::memory_order_acquire);
    if ((drain_requested_.load(std::memory_order_acquire) || stopping) &&
        !draining_started) {
      draining_started = true;
      drain_start = Clock::now();
      sessions_.begin_drain();
      scheduler_.drain_all();
    }
    reap_connections(/*join_all=*/false);
    obs::gauge_set(sessions_gauge_,
                   static_cast<double>(sessions_.active_sessions()));
    obs::gauge_set(campaigns_gauge_,
                   static_cast<double>(scheduler_.active_count()));

    if (draining_started) {
      bool idle;
      {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        idle = connections_.empty();
      }
      if (idle) break;
      const double waited =
          std::chrono::duration<double>(Clock::now() - *drain_start).count();
      if (stopping || waited > config_.drain_timeout_sec) {
        force_close_connections();
        reap_connections(/*join_all=*/true);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }

    std::optional<Socket> accepted = listener_.accept(/*timeout_ms=*/100);
    if (!accepted.has_value()) continue;
    const std::optional<std::uint64_t> session = sessions_.open_session();
    if (!session.has_value()) {
      ErrorInfo error;
      error.code = sessions_.draining() ? ErrorCode::kDraining
                                        : ErrorCode::kTooManyClients;
      error.message = sessions_.draining()
                          ? "daemon is draining"
                          : "client limit reached, retry later";
      write_frame(*accepted, encode_error(error));
      continue;  // Socket closes on scope exit.
    }
    auto connection = std::make_unique<Connection>(std::move(*accepted),
                                                   config_.send_queue_frames);
    connection->session = *session;
    Connection* raw = connection.get();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->writer = std::thread(&ServiceDaemon::writer_loop, this, raw);
    raw->handler = std::thread(&ServiceDaemon::handle_connection, this, raw);
  }

  listener_.close();
  reap_connections(/*join_all=*/true);
}

void ServiceDaemon::writer_loop(Connection* connection) {
  std::string batch;
  while (connection->queue.pop_batch(&batch, kWriteBatchBytes)) {
    if (!connection->socket.write_all(batch)) {
      // Peer gone: unblock producers and drop everything still queued.
      connection->queue.discard_all();
      break;
    }
  }
}

void ServiceDaemon::handle_connection(Connection* connection) {
  obs::ensure_thread_registered();
  for (;;) {
    std::string payload;
    std::string error;
    const FrameResult result =
        read_frame(connection->socket, &payload, &error);
    if (result == FrameResult::kOversize ||
        result == FrameResult::kError) {
      // The stream is desynchronized after a bad envelope: report once
      // and hang up.
      ErrorInfo info;
      info.code = ErrorCode::kBadRequest;
      info.message = error.empty() ? "malformed frame" : error;
      connection->send(encode_error(info));
      break;
    }
    if (result != FrameResult::kOk) break;  // Orderly close.
    handle_request(connection, payload);
  }

  // Teardown: a dead client's campaigns are cancelled (they finish
  // their in-flight cases and stop), runners drain into the queue (the
  // writer discards if the peer is really gone), then the queue closes
  // and the writer flushes out.
  scheduler_.cancel_session(connection->session);
  std::vector<std::thread> runners;
  {
    std::lock_guard<std::mutex> lock(connection->runners_mutex);
    runners.swap(connection->runners);
    connection->returned_runners.clear();
  }
  for (std::thread& runner : runners) runner.join();
  connection->queue.close();
  if (connection->writer.joinable()) connection->writer.join();
  connection->socket.shutdown_both();
  connection->socket.close();
  sessions_.close_session(connection->session);
  connection->done.store(true, std::memory_order_release);
}

void ServiceDaemon::handle_request(Connection* connection,
                                   const std::string& payload) {
  obs::counter_add(requests_metric_);
  Request request;
  try {
    request = parse_request(json::parse(payload));
  } catch (const std::exception& e) {
    ErrorInfo error;
    error.code = ErrorCode::kBadRequest;
    error.message = e.what();
    connection->send(encode_error(error));
    return;
  }

  if (request.verb == "ping") {
    connection->send(encode_pong(request.id));
  } else if (request.verb == "metrics") {
    std::ostringstream text;
    obs::write_prometheus(text,
                          obs::MetricsRegistry::instance().take_snapshot());
    connection->send(encode_metrics_text(request.id, text.str()));
  } else if (request.verb == "status") {
    connection->send(encode_status(request.id, scheduler_.status()));
  } else if (request.verb == "stats") {
    StatsInfo stats;
    stats.id = request.id;
    stats.sessions = sessions_.active_sessions();
    stats.campaigns_active = scheduler_.active_count();
    stats.campaigns_total = scheduler_.total_count();
    stats.records_streamed =
        records_streamed_.load(std::memory_order_relaxed);
    stats.caches =
        service_cache_stats(obs::MetricsRegistry::instance().take_snapshot());
    connection->send(encode_stats(stats));
  } else if (request.verb == "drain") {
    AckInfo ack;
    ack.id = request.id;
    connection->send(encode_ack(ack));
    begin_drain();
  } else if (request.verb == "cancel") {
    if (scheduler_.cancel(request.target)) {
      AckInfo ack;
      ack.id = request.id;
      ack.campaign = request.target;
      connection->send(encode_ack(ack));
    } else {
      ErrorInfo error;
      error.id = request.id;
      error.code = ErrorCode::kNotFound;
      error.message =
          "no active campaign " + std::to_string(request.target);
      connection->send(encode_error(error));
    }
  } else if (request.verb == "submit") {
    handle_submit(connection, request);
  } else {
    ErrorInfo error;
    error.id = request.id;
    error.code = ErrorCode::kUnknownVerb;
    error.message = "unknown verb '" + request.verb + "'";
    connection->send(encode_error(error));
  }
}

void ServiceDaemon::handle_submit(Connection* connection,
                                  const Request& request) {
  auto reject = [&](ErrorCode code, std::string message) {
    ErrorInfo error;
    error.id = request.id;
    error.code = code;
    error.message = std::move(message);
    connection->send(encode_error(error));
  };

  const CampaignRequest& campaign_request = request.campaign;
  std::shared_ptr<SweepSpec> spec;
  std::uint64_t cases = 1;
  if (campaign_request.mode == "run") {
    ExperimentBuilder probe;
    const std::string error = build_run_experiment(campaign_request, &probe);
    if (!error.empty()) {
      reject(ErrorCode::kBadRequest, error);
      return;
    }
  } else {
    spec = std::make_shared<SweepSpec>();
    std::size_t expanded = 0;
    const std::string error =
        expand_sweep_campaign(campaign_request, spec.get(), &expanded);
    if (!error.empty()) {
      reject(ErrorCode::kBadRequest, error);
      return;
    }
    cases = expanded;
  }

  // Admission charges only the cases this submission will actually run
  // (a resume skips [0, start_case)).
  const std::uint64_t charged =
      cases > campaign_request.start_case ? cases - campaign_request.start_case
                                          : 0;
  const std::optional<ErrorCode> denied =
      sessions_.admit_campaign(connection->session, charged);
  if (denied.has_value()) {
    const char* why = *denied == ErrorCode::kDraining ? "daemon is draining"
                      : *denied == ErrorCode::kQuotaExceeded
                          ? "per-client campaign quota reached"
                          : "global queued-case budget exhausted";
    reject(*denied, why);
    return;
  }

  CampaignScheduler::CampaignPtr campaign =
      scheduler_.register_campaign(connection->session, cases);
  obs::counter_add(campaigns_metric_);
  AckInfo ack;
  ack.id = request.id;
  ack.campaign = campaign->id;
  ack.cases = cases;
  connection->send(encode_ack(ack));

  std::lock_guard<std::mutex> lock(connection->runners_mutex);
  connection->join_returned_runners();
  if (campaign_request.mode == "run") {
    connection->runners.emplace_back(&ServiceDaemon::run_single_campaign,
                                     this, connection, request, campaign);
  } else {
    connection->runners.emplace_back(&ServiceDaemon::run_sweep_campaign, this,
                                     connection, request, campaign,
                                     std::move(spec));
  }
}

void ServiceDaemon::run_sweep_campaign(Connection* connection, Request request,
                                       CampaignScheduler::CampaignPtr campaign,
                                       std::shared_ptr<SweepSpec> spec) {
  obs::ensure_thread_registered();
  const std::uint64_t charged =
      campaign->cases > request.campaign.start_case
          ? campaign->cases - request.campaign.start_case
          : 0;
  try {
    RemoteSink sink(*connection, request.id, *campaign, records_streamed_,
                    records_metric_);
    SweepOptions options;
    options.keep_results = false;
    options.shared_pool = &scheduler_.pool();
    options.control = &campaign->control;
    options.start_case = request.campaign.start_case;
    SweepEngine engine(options);
    engine.add_sink(sink);
    const SweepReport report = engine.run(*spec);

    SummaryInfo summary;
    summary.id = request.id;
    summary.campaign = campaign->id;
    summary.status = report.status;
    summary.cases = report.outcomes.size();
    summary.emitted_through = report.emitted_through;
    summary.failed = report.failed;
    summary.wall_ms = report.wall_ms;
    connection->send(encode_summary(summary));
  } catch (const std::exception& e) {
    ErrorInfo error;
    error.id = request.id;
    error.code = ErrorCode::kInternal;
    error.message = e.what();
    connection->send(encode_error(error));
  }
  scheduler_.unregister_campaign(campaign->id);
  sessions_.release_campaign(connection->session, charged);
  connection->runner_returned();
}

void ServiceDaemon::run_single_campaign(
    Connection* connection, Request request,
    CampaignScheduler::CampaignPtr campaign) {
  obs::ensure_thread_registered();
  try {
    ExperimentBuilder builder;
    const std::string error =
        build_run_experiment(request.campaign, &builder);
    if (!error.empty()) throw std::runtime_error(error);
    const ExperimentResult result = builder.build().run();
    campaign->emitted.store(1, std::memory_order_relaxed);
    records_streamed_.fetch_add(1, std::memory_order_relaxed);
    obs::counter_add(records_metric_);
    connection->send(encode_run_result(
        request.id, run_payload_of(result, request.campaign.want_trace)));
  } catch (const std::exception& e) {
    ErrorInfo error;
    error.id = request.id;
    error.code = ErrorCode::kInternal;
    error.message = e.what();
    connection->send(encode_error(error));
  }
  scheduler_.unregister_campaign(campaign->id);
  sessions_.release_campaign(connection->session, 1);
  connection->runner_returned();
}

void ServiceDaemon::force_close_connections() {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (const std::unique_ptr<Connection>& connection : connections_) {
    connection->queue.discard_all();
    connection->socket.shutdown_both();
  }
}

void ServiceDaemon::reap_connections(bool join_all) {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (join_all || (*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const std::unique_ptr<Connection>& connection : finished) {
    if (connection->handler.joinable()) connection->handler.join();
    if (connection->writer.joinable()) connection->writer.join();
  }
}

}  // namespace svc
}  // namespace hars
