// End-to-end loopback tests of the hars_simd service: an in-process
// ServiceDaemon on an ephemeral port, real sockets, real clients. The
// tentpole assertion is byte-identity — the CSV a client writes from
// daemon-streamed records equals a local in-process run of the same
// campaign, for any worker count and any number of concurrent clients.
#include "svc/daemon.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "svc/campaign_scheduler.hpp"
#include "svc/client.hpp"
#include "svc/wire.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep_engine.hpp"

namespace hars {
namespace svc {
namespace {

/// In-process daemon on an ephemeral loopback port, served by a
/// background thread for the fixture's lifetime.
class DaemonHarness {
 public:
  explicit DaemonHarness(int jobs, SessionLimits limits = {}) {
    DaemonConfig config;
    config.listen = Address::parse("tcp:127.0.0.1:0");
    config.jobs = jobs;
    config.limits = limits;
    daemon_ = std::make_unique<ServiceDaemon>(config);
    thread_ = std::thread([this] { daemon_->serve(); });
  }

  ~DaemonHarness() {
    daemon_->stop();
    thread_.join();
  }

  const Address& address() const { return daemon_->address(); }
  ServiceDaemon& daemon() { return *daemon_; }

 private:
  std::unique_ptr<ServiceDaemon> daemon_;
  std::thread thread_;
};

/// The reference campaign: 8 short cases across two benches, two
/// variants and two target fractions.
CampaignRequest small_campaign() {
  CampaignRequest campaign;
  campaign.benches = {"SW", "BO"};
  campaign.variants = {"Baseline", "HARS-E"};
  campaign.fractions = {0.85, 0.95};
  campaign.duration_sec = 5.0;
  campaign.derive_seeds = true;
  return campaign;
}

/// CSV of a local in-process run of `campaign` — the byte-identity
/// reference the daemon-streamed reconstruction must match.
std::string local_csv(const CampaignRequest& campaign, int jobs) {
  SweepSpec spec;
  std::size_t cases = 0;
  const std::string error = expand_sweep_campaign(campaign, &spec, &cases);
  EXPECT_EQ(error, "");
  std::ostringstream out;
  CsvSink sink(out);
  SweepOptions options;
  options.jobs = jobs;
  options.keep_results = false;
  SweepEngine engine(options);
  engine.add_sink(sink);
  const SweepReport report = engine.run(spec);
  EXPECT_EQ(report.failed, 0u);
  return out.str();
}

/// Submits `campaign` and returns the CSV reconstructed from the
/// record stream.
std::string remote_csv(const Address& address,
                       const CampaignRequest& campaign,
                       SummaryInfo* summary_out = nullptr) {
  ServiceClient client(address);
  std::ostringstream out;
  CsvSink sink(out);
  const SubmitOutcome outcome = client.submit_sweep(
      campaign, [&](const Record& record) { sink.write(record); });
  EXPECT_TRUE(outcome.ok) << (outcome.error ? outcome.error->message : "");
  if (summary_out != nullptr && outcome.ok) *summary_out = outcome.summary;
  return out.str();
}

TEST(DaemonLoopback, PingPong) {
  DaemonHarness harness(/*jobs=*/1);
  ServiceClient client(harness.address());
  EXPECT_TRUE(client.ping());
}

TEST(DaemonLoopback, ByteIdentityAcrossJobsAndConcurrentClients) {
  const CampaignRequest campaign = small_campaign();
  const std::string reference = local_csv(campaign, /*jobs=*/1);
  ASSERT_FALSE(reference.empty());
  // The local reference itself is worker-count independent.
  EXPECT_EQ(local_csv(campaign, /*jobs=*/4), reference);

  for (int jobs : {1, 4}) {
    DaemonHarness harness(jobs);
    // Two clients submit the same campaign concurrently; both streams
    // must reconstruct to the reference bytes.
    std::string csv_a;
    std::string csv_b;
    SummaryInfo summary_a;
    std::thread client_a([&] {
      csv_a = remote_csv(harness.address(), campaign, &summary_a);
    });
    std::thread client_b(
        [&] { csv_b = remote_csv(harness.address(), campaign); });
    client_a.join();
    client_b.join();
    EXPECT_EQ(csv_a, reference) << "jobs=" << jobs;
    EXPECT_EQ(csv_b, reference) << "jobs=" << jobs;
    EXPECT_EQ(summary_a.status, "complete");
    EXPECT_EQ(summary_a.cases, 8u);
    EXPECT_EQ(summary_a.emitted_through, 8u);
    EXPECT_EQ(summary_a.failed, 0u);
  }
}

TEST(DaemonLoopback, ResumeSkipsAlreadyEmittedCases) {
  CampaignRequest campaign = small_campaign();
  const std::string full = local_csv(campaign, 1);

  DaemonHarness harness(/*jobs=*/2);
  campaign.start_case = 5;
  SummaryInfo summary;
  const std::string tail_csv = remote_csv(harness.address(), campaign,
                                          &summary);
  EXPECT_EQ(summary.status, "complete");
  EXPECT_EQ(summary.cases, 8u);
  EXPECT_EQ(summary.emitted_through, 8u);

  // The resumed stream is the tail of the full run: same trailing data
  // rows (the CSV header is re-emitted by the fresh sink).
  std::istringstream full_lines(full);
  std::vector<std::string> lines;
  for (std::string line; std::getline(full_lines, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 9u);  // header + 8 single-app cases
  std::string expected = lines[0] + "\n";
  for (std::size_t i = 6; i < lines.size(); ++i) expected += lines[i] + "\n";
  EXPECT_EQ(tail_csv, expected);
}

TEST(DaemonLoopback, RunModeMatchesLocalExecution) {
  DaemonHarness harness(/*jobs=*/1);

  CampaignRequest campaign;
  campaign.mode = "run";
  campaign.benches = {"SW"};
  campaign.variants = {"HARS-E"};
  campaign.duration_sec = 5.0;
  campaign.want_trace = true;

  ServiceClient client(harness.address());
  const SubmitOutcome outcome = client.submit_run(campaign);
  ASSERT_TRUE(outcome.ok) << (outcome.error ? outcome.error->message : "");

  ExperimentBuilder builder;
  ASSERT_EQ(build_run_experiment(campaign, &builder), "");
  const RunResultPayload local =
      run_payload_of(builder.build().run(), /*include_traces=*/true);

  ASSERT_EQ(outcome.result.apps.size(), local.apps.size());
  const RunAppPayload& remote_app = outcome.result.apps[0];
  const RunAppPayload& local_app = local.apps[0];
  EXPECT_EQ(remote_app.label, local_app.label);
  EXPECT_EQ(remote_app.metrics.norm_perf, local_app.metrics.norm_perf);
  EXPECT_EQ(remote_app.metrics.avg_power_w, local_app.metrics.avg_power_w);
  EXPECT_EQ(remote_app.metrics.heartbeats, local_app.metrics.heartbeats);
  EXPECT_EQ(remote_app.metrics.energy_j, local_app.metrics.energy_j);
  ASSERT_EQ(remote_app.trace.size(), local_app.trace.size());
  if (!remote_app.trace.empty()) {
    const TracePoint& r = remote_app.trace.back();
    const TracePoint& l = local_app.trace.back();
    EXPECT_EQ(r.hb_index, l.hb_index);
    EXPECT_EQ(r.big_cores, l.big_cores);
    EXPECT_EQ(r.big_freq_ghz, l.big_freq_ghz);
  }
  EXPECT_EQ(outcome.result.avg_power_w, local.avg_power_w);
  EXPECT_EQ(outcome.result.adaptations, local.adaptations);
  EXPECT_EQ(outcome.result.has_static_state, local.has_static_state);
  EXPECT_EQ(outcome.result.static_state_text, local.static_state_text);
}

TEST(DaemonLoopback, BadSubmitIsATypedError) {
  DaemonHarness harness(/*jobs=*/1);
  ServiceClient client(harness.address());

  CampaignRequest campaign;
  campaign.benches = {"NOPE"};
  const SubmitOutcome outcome =
      client.submit_sweep(campaign, [](const Record&) {});
  EXPECT_FALSE(outcome.ok);
  ASSERT_TRUE(outcome.error.has_value());
  EXPECT_EQ(outcome.error->code, ErrorCode::kBadRequest);
  EXPECT_NE(outcome.error->message.find("NOPE"), std::string::npos);
}

TEST(DaemonLoopback, UnknownVerbAndMalformedFramesAreTypedErrors) {
  DaemonHarness harness(/*jobs=*/1);

  {
    Socket raw = connect_to(harness.address());
    ASSERT_TRUE(write_frame(raw, "{\"id\":1,\"verb\":\"frobnicate\"}"));
    std::string payload;
    ASSERT_EQ(read_frame(raw, &payload), FrameResult::kOk);
    const ErrorInfo error = parse_error(json::parse(payload));
    EXPECT_EQ(error.code, ErrorCode::kUnknownVerb);
  }
  {
    Socket raw = connect_to(harness.address());
    ASSERT_TRUE(write_frame(raw, "this is not json"));
    std::string payload;
    ASSERT_EQ(read_frame(raw, &payload), FrameResult::kOk);
    const ErrorInfo error = parse_error(json::parse(payload));
    EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  }
  {
    // A malformed envelope desynchronizes the stream: one error frame,
    // then the daemon hangs up.
    Socket raw = connect_to(harness.address());
    ASSERT_TRUE(raw.write_all("not-a-length\n"));
    std::string payload;
    ASSERT_EQ(read_frame(raw, &payload), FrameResult::kOk);
    EXPECT_EQ(parse_error(json::parse(payload)).code, ErrorCode::kBadRequest);
    EXPECT_EQ(read_frame(raw, &payload), FrameResult::kClosed);
  }
}

TEST(DaemonLoopback, CancellingAMissingCampaignIsNotFound) {
  DaemonHarness harness(/*jobs=*/1);
  ServiceClient client(harness.address());
  ErrorInfo error;
  EXPECT_FALSE(client.cancel(424242, &error));
  EXPECT_EQ(error.code, ErrorCode::kNotFound);
}

TEST(DaemonLoopback, ClientCapRejectsTheExtraConnection) {
  SessionLimits limits;
  limits.max_clients = 1;
  DaemonHarness harness(/*jobs=*/1, limits);
  ServiceClient first(harness.address());
  ASSERT_TRUE(first.ping());
  // The daemon answers the over-cap connection with kTooManyClients and
  // closes it; the ping conversation sees the error frame, not a pong.
  ServiceClient second(harness.address());
  EXPECT_FALSE(second.ping());
}

TEST(DaemonLoopback, MetricsVerbServesPrometheusText) {
  DaemonHarness harness(/*jobs=*/1);
  ServiceClient client(harness.address());
  ASSERT_TRUE(client.ping());
  const std::string text = client.metrics_text();
  EXPECT_NE(text.find("hars_svc_requests"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
}

TEST(DaemonLoopback, StatsReportSessionsCampaignsAndCacheTier) {
  DaemonHarness harness(/*jobs=*/2);
  const CampaignRequest campaign = small_campaign();
  remote_csv(harness.address(), campaign);

  ServiceClient client(harness.address());
  const StatsInfo stats = client.stats();
  EXPECT_GE(stats.sessions, 1u);
  // The finished campaign may still be mid-unregister (summary is sent
  // before the bookkeeping clears).
  EXPECT_LE(stats.campaigns_active, 1u);
  EXPECT_GE(stats.campaigns_total, 1u);
  EXPECT_GE(stats.records_streamed, 8u);
  // The shared tier has seen this campaign's calibrations.
  bool calibration_row = false;
  for (const CacheStat& cache : stats.caches) {
    if (cache.name == "calibration") {
      calibration_row = true;
      EXPECT_GE(cache.entries, 1u);
    }
  }
  EXPECT_TRUE(calibration_row);
}

/// Memory mappings of this process (Linux /proc/self/maps lines). Every
/// live or unjoined thread holds a stack mapping of its own.
std::size_t process_mappings() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST(DaemonLoopback, LongLivedConnectionJoinsFinishedRunners) {
  if (!std::ifstream("/proc/self/maps")) {
    GTEST_SKIP() << "no /proc/self/maps to count thread stacks";
  }
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "ThreadSanitizer maps memory for every thread it has seen";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "ThreadSanitizer maps memory for every thread it has seen";
#endif
#endif
  DaemonHarness harness(/*jobs=*/1);
  ServiceClient client(harness.address());
  CampaignRequest campaign;
  campaign.benches = {"SW"};
  campaign.variants = {"Baseline"};
  campaign.duration_sec = 1.0;
  const auto submit = [&] {
    const SubmitOutcome outcome =
        client.submit_sweep(campaign, [](const Record&) {});
    ASSERT_TRUE(outcome.ok);
  };
  submit();
  submit();
  const std::size_t mappings = process_mappings();
  for (int i = 0; i < 40; ++i) submit();
  // Each campaign runs on its own runner thread. A finished runner is
  // joined at the connection's next submit, so its stack is reused;
  // unjoined, every campaign would keep one more stack mapped until the
  // client disconnects.
  EXPECT_LE(process_mappings(), mappings + 8);
}

}  // namespace
}  // namespace svc
}  // namespace hars
