// Serving-daemon latency/robustness benchmark: runs an in-process Server
// over loopback sockets, drives it with C concurrent client threads issuing
// R requests each (rotating across a small query mix), and reports
// throughput plus p50/p95/p99 latency and the robustness counters (sheds,
// retries, downshifts).
//
// Knobs:
//   QC_BENCH_SF    scale factor (default 0.01 — latency, not scan speed, is
//                  what this bench measures)
// The load shape is fixed (kClients, kReqs, kWorkers, kFairHeavy,
// kFairProbes below) so every run measures the same load.
//
// Before the server starts, the clients' request sequence runs directly,
// back to back, on one warm JIT Interpreter; its p95 is the reference the
// served p95 is bounded by, so the gate covers the server's own overhead
// and queueing, not execution speed (perfbench's job).
//
// After the main mix, a fairness phase runs a 1-heavy/1-light tenant mix
// (heavy floods the join-heavy query over several connections, light paces
// short probes) and reports per-tenant p95; a light p95 near the heavy p95
// means FIFO-like starvation.
//
// The run ends with the gates of bench/gates.h (ok requests, shed rate,
// fairness, served p95); the exit status is their verdict.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/knobs.h"
#include "exec/interp.h"
#include "gates.h"
#include "server/plan_cache.h"
#include "server/server.h"
#include "tpch/datagen.h"

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ConnectTo(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in a;
  std::memset(&a, 0, sizeof(a));
  a.sin_family = AF_INET;
  a.sin_port = htons(static_cast<uint16_t>(port));
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& s) {
  const char* p = s.data();
  size_t left = s.size();
  while (left > 0) {
    ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n <= 0) return false;
    p += n;
    left -= static_cast<size_t>(n);
  }
  return true;
}

// Reads one line-protocol response; returns the first line ("" on error).
std::string ReadResponse(int fd) {
  std::string buf;
  char tmp[8192];
  for (;;) {
    bool done =
        (buf.compare(0, 3, "ERR") == 0 && buf.find('\n') != std::string::npos) ||
        buf.find("\n.\n") != std::string::npos;
    if (done) break;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 30000) <= 0) return "";
    ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) return "";
    buf.append(tmp, static_cast<size_t>(n));
  }
  return buf.substr(0, buf.find('\n'));
}

constexpr int kClients = 4;      // concurrent client connections
constexpr int kReqs = 50;        // requests per client
constexpr int kWorkers = 2;      // server worker threads
constexpr int kFairHeavy = 6;    // heavy-tenant connections, fairness phase
constexpr int kFairProbes = 40;  // light-tenant probes, fairness phase

// A short query mix: cheap aggregations + a join-heavy one, so the
// latency distribution reflects both dispatch overhead and real work.
// Client c's request i is kMix[(c + i) % kMixLen].
constexpr int kMix[] = {1, 3, 6, 12};
constexpr int kMixLen = 4;

struct ClientResult {
  std::vector<int64_t> latencies_us;  // successful requests only
  int64_t ok = 0;
  int64_t err = 0;
};

// Percentile of sorted microsecond latencies, in ms.
double Pct(const std::vector<int64_t>& v, double p) {
  if (v.empty()) return 0;
  size_t idx = static_cast<size_t>(p * (v.size() - 1));
  return v[idx] / 1000.0;
}

// p95 (ms) of every client's request sequence run directly, back to back,
// on one warm JIT Interpreter with the Programs the daemon builds (level 5,
// one thread): the execution time the served latency is measured against.
// -1 when a plan fails to build.
double DirectP95Ms(qc::storage::Database* db) {
  qc::server::PlanCache plans(db);
  qc::exec::InterpOptions run;
  run.engine = qc::exec::InterpOptions::Engine::kJit;
  qc::exec::Interpreter interp(db, run);
  const qc::exec::Program* progs[kMixLen];
  for (int i = 0; i < kMixLen; ++i) {
    std::string err;
    progs[i] = plans.Get(kMix[i], 5, &err);
    if (progs[i] == nullptr) {
      std::fprintf(stderr, "serve_latency: Q%d: %s\n", kMix[i], err.c_str());
      return -1;
    }
    interp.Run(*progs[i], run);
  }
  std::vector<int64_t> lat;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kReqs; ++i) {
      int64_t t0 = NowUs();
      interp.Run(*progs[(c + i) % kMixLen], run);
      lat.push_back(NowUs() - t0);
    }
  }
  std::sort(lat.begin(), lat.end());
  return Pct(lat, 0.95);
}

}  // namespace

int main() {
  const double sf = qc::KnobDouble(qc::Knob::kBenchSf, 0.01);

  std::fprintf(stderr, "serve_latency: sf=%g clients=%d reqs=%d workers=%d\n",
               sf, kClients, kReqs, kWorkers);
  qc::storage::Database db = qc::tpch::MakeTpchDatabase(sf);
  const double direct_p95 = DirectP95Ms(&db);
  if (direct_p95 < 0) return 1;

  qc::server::ServerOptions opts;
  opts.port = 0;
  opts.workers = kWorkers;
  opts.queue_capacity = 256;
  opts.seed = 42;
  qc::server::Server server(&db, opts);
  if (!server.Start()) {
    std::fprintf(stderr, "serve_latency: server failed to start\n");
    return 1;
  }
  server.WarmPlans();

  std::vector<ClientResult> results(kClients);
  const int64_t bench_t0 = NowUs();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientResult& res = results[c];
        int fd = ConnectTo(server.port());
        if (fd < 0) return;
        for (int i = 0; i < kReqs; ++i) {
          int q = kMix[(c + i) % kMixLen];
          std::string req = "QUERY " + std::to_string(q) + "\n";
          int64_t t0 = NowUs();
          if (!SendAll(fd, req)) break;
          std::string first = ReadResponse(fd);
          if (first.compare(0, 3, "OK ") == 0) {
            res.latencies_us.push_back(NowUs() - t0);
            ++res.ok;
          } else {
            ++res.err;
          }
        }
        ::close(fd);
      });
    }
    for (auto& t : threads) t.join();
  }
  const double wall_s = (NowUs() - bench_t0) / 1e6;

  std::vector<int64_t> lat;
  int64_t ok = 0, err = 0;
  for (const ClientResult& r : results) {
    lat.insert(lat.end(), r.latencies_us.begin(), r.latencies_us.end());
    ok += r.ok;
    err += r.err;
  }
  std::sort(lat.begin(), lat.end());
  const double p50 = Pct(lat, 0.50), p95 = Pct(lat, 0.95),
               p99 = Pct(lat, 0.99);
  const double qps = wall_s > 0 ? ok / wall_s : 0;

  // --- fairness phase: one heavy tenant vs one light tenant ---------------
  // The heavy tenant keeps kFairHeavy connections saturated with the
  // join-heavy query; the light tenant paces short probes through the same
  // queue. Weighted-fair admission must bound the light tenant's p95 near
  // ONE heavy service time; under FIFO it would sit behind the whole heavy
  // backlog and converge on the heavy p95.
  std::vector<int64_t> heavy_lat, light_lat;
  int64_t heavy_ok = 0, light_ok = 0;
  {
    std::atomic<bool> fair_stop{false};
    std::vector<ClientResult> heavy_res(kFairHeavy);
    std::vector<std::thread> heavy_threads;
    for (int c = 0; c < kFairHeavy; ++c) {
      heavy_threads.emplace_back([&, c] {
        ClientResult& res = heavy_res[c];
        int fd = ConnectTo(server.port());
        if (fd < 0) return;
        while (!fair_stop.load(std::memory_order_relaxed)) {
          int64_t t0 = NowUs();
          if (!SendAll(fd, "QUERY 12 client=heavy\n")) break;
          std::string first = ReadResponse(fd);
          if (first.compare(0, 3, "OK ") == 0) {
            res.latencies_us.push_back(NowUs() - t0);
            ++res.ok;
          } else if (first.empty()) {
            break;
          } else {
            ++res.err;
          }
        }
        ::close(fd);
      });
    }
    int fd = ConnectTo(server.port());
    for (int i = 0; fd >= 0 && i < kFairProbes; ++i) {
      int64_t t0 = NowUs();
      if (!SendAll(fd, "QUERY 1 client=light\n")) break;
      std::string first = ReadResponse(fd);
      if (first.compare(0, 3, "OK ") == 0) {
        light_lat.push_back(NowUs() - t0);
        ++light_ok;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (fd >= 0) ::close(fd);
    fair_stop.store(true);
    for (auto& t : heavy_threads) t.join();
    for (const ClientResult& r : heavy_res) {
      heavy_lat.insert(heavy_lat.end(), r.latencies_us.begin(),
                       r.latencies_us.end());
      heavy_ok += r.ok;
    }
    std::sort(heavy_lat.begin(), heavy_lat.end());
    std::sort(light_lat.begin(), light_lat.end());
  }
  const double fair_light_p95 = Pct(light_lat, 0.95);
  const double fair_heavy_p95 = Pct(heavy_lat, 0.95);
  std::printf("serve_fairness: heavy_conns=%d heavy_ok=%lld "
              "heavy_p95=%.2fms light_ok=%lld light_p95=%.2fms\n",
              kFairHeavy, static_cast<long long>(heavy_ok), fair_heavy_p95,
              static_cast<long long>(light_ok), fair_light_p95);

  const qc::server::ServerStats& st = server.stats();
  const uint64_t shed = st.shed_queue_full.load() +
                        st.shed_queue_deadline.load() +
                        st.shed_draining.load();
  const uint64_t total = ok + err;
  const double shed_rate = total > 0 ? static_cast<double>(shed) / total : 0;

  std::printf("serve_latency: ok=%lld err=%lld qps=%.1f "
              "p50=%.2fms p95=%.2fms p99=%.2fms "
              "shed=%llu retries=%llu downshifts=%llu\n",
              static_cast<long long>(ok), static_cast<long long>(err), qps,
              p50, p95, p99, static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(st.retries.load()),
              static_cast<unsigned long long>(st.downshifts.load()));

  server.Stop();
  const double clients_per_worker = static_cast<double>(kClients) / kWorkers;
  const bool pass = qc::bench::Report(qc::bench::ServeChecks(
      {static_cast<long long>(ok), shed_rate, p95, direct_p95,
       clients_per_worker, static_cast<long long>(light_ok), fair_light_p95,
       fair_heavy_p95}));
  return pass ? 0 : 1;
}
