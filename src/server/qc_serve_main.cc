// qc_serve: the serving-daemon binary. Loads (generates) TPC-H storage at
// QC_SERVE_SF, starts the server with QC_SERVE_* options, and runs until
// SIGTERM/SIGINT — on which it drains gracefully and exits 0.
//
// Signal handling uses the classic self-pipe pattern: the handler only
// writes one byte to a non-blocking pipe; all real shutdown work happens on
// the main thread, so no async-signal-unsafe call ever runs in handler
// context.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/knobs.h"
#include "server/server.h"
#include "telemetry/log.h"
#include "telemetry/metrics.h"
#include "tpch/datagen.h"

namespace {

int g_sig_pipe[2] = {-1, -1};

void OnSignal(int) {
  char b = 's';
  ssize_t ignored = ::write(g_sig_pipe[1], &b, 1);
  (void)ignored;
}

}  // namespace

int main() {
  if (::pipe(g_sig_pipe) != 0) {
    std::perror("qc_serve: pipe");
    return 1;
  }
  struct sigaction sa;
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  using qc::telemetry::Log;
  using qc::telemetry::LogKv;
  using qc::telemetry::LogLevel;

  // The configuration in effect: every knob set in the environment, with
  // its value after parsing and clamping.
  std::vector<LogKv> config;
  for (int i = 0; i < qc::kNumKnobs; ++i) {
    auto k = static_cast<qc::Knob>(i);
    if (qc::KnobStr(k) != nullptr) {
      config.emplace_back(qc::KnobInfo(k).name, qc::KnobText(k));
    }
  }
  Log(LogLevel::kInfo, "config", std::move(config));
  double sf = qc::KnobDouble(qc::Knob::kServeSf);
  Log(LogLevel::kInfo, "boot", {{"sf", sf}});
  qc::storage::Database db = qc::tpch::MakeTpchDatabase(sf);

  qc::server::ServerOptions opts = qc::server::ServerOptions::FromEnv();
  qc::server::Server server(&db, opts);
  if (!server.Start()) return 1;
  // Pre-compile every query so the first client request never pays
  // lowering latency (requests for other levels still compile lazily).
  Log(LogLevel::kInfo, "warm", {{"level", opts.level}});
  server.WarmPlans();
  Log(LogLevel::kInfo, "listening", {{"port", server.port()}});
  std::fflush(stderr);

  // Block until a termination signal arrives.
  pollfd pfd{g_sig_pipe[0], POLLIN, 0};
  for (;;) {
    int rc = ::poll(&pfd, 1, -1);
    if (rc > 0 && (pfd.revents & POLLIN)) break;
  }
  Log(LogLevel::kInfo, "draining", {});
  bool clean = server.Drain();
  server.Stop();
  // Shutdown summary straight from the registry snapshot: every counter
  // and gauge /metrics served, keyed by its family name without the
  // "qc_server_" prefix and "_total" suffix, as one key=value log record.
  qc::telemetry::MetricsSnapshot snap = server.stats().Snapshot();
  std::vector<std::string> keys;  // the LogKv keys point into these
  keys.reserve(snap.samples.size());
  std::vector<LogKv> kvs;
  kvs.emplace_back("status", clean ? "clean" : "stragglers_cancelled");
  for (const qc::telemetry::MetricSample& s : snap.samples) {
    if (s.kind == qc::telemetry::MetricKind::kHistogram) continue;
    keys.push_back(s.name.substr(std::strlen("qc_server_")));
    std::string& key = keys.back();
    if (s.kind == qc::telemetry::MetricKind::kCounter) {
      key.resize(key.size() - std::strlen("_total"));
      kvs.emplace_back(key.c_str(), static_cast<unsigned long long>(s.counter));
    } else {
      kvs.emplace_back(key.c_str(), static_cast<long long>(s.gauge));
    }
  }
  Log(LogLevel::kInfo, "shutdown", std::move(kvs));
  return 0;
}
