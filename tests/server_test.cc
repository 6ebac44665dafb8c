// Robustness suite for the serving daemon (src/server/): admission control,
// queue deadlines, kill-on-disconnect, retry/backoff, graceful degradation,
// drain, and a chaos sweep over the srv_* network fault sites. Every test
// runs a real Server on an ephemeral loopback port and talks to it over
// real sockets — the same bytes a production client would send.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compiler.h"
#include "exec/interp.h"
#include "qplan/plan.h"
#include "scoped_env.h"
#include "server/protocol.h"
#include "server/server.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace qc::server {
namespace {

storage::Database* Db() {
  static storage::Database* db =
      new storage::Database(tpch::MakeTpchDatabase(0.01));
  return db;
}

// Canonical expected rows: compile at `level`, run on the ungoverned VM.
std::string RefRows(int q, int level) {
  ir::TypeFactory types;
  qplan::PlanPtr plan = tpch::MakeQuery(q);
  qplan::ResolvePlan(plan.get(), *Db());
  compiler::QueryCompiler qc(Db(), &types);
  compiler::CompileResult res =
      qc.Compile(*plan, compiler::StackConfig::Level(level), "ref");
  exec::Interpreter interp(Db());
  return RenderRows(interp.Run(*res.fn));
}

ServerOptions TestOptions() {
  ServerOptions o;
  o.port = 0;
  o.workers = 1;
  o.queue_capacity = 8;
  o.debug_endpoints = true;
  o.default_jit = false;  // deterministic engine for byte-exact comparisons
  return o;
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 10000) {
  int64_t deadline = NowMs() + timeout_ms;
  while (NowMs() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// --- minimal socket client -------------------------------------------------

int ConnectTo(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in a;
  std::memset(&a, 0, sizeof(a));
  a.sin_family = AF_INET;
  a.sin_port = htons(static_cast<uint16_t>(port));
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)), 0);
  return fd;
}

// Tolerates resets mid-send (chaos sweep tears connections down under us).
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

// Reads until `done(buf)` or timeout/EOF; returns whatever arrived.
std::string RecvUntil(int fd, const std::function<bool(const std::string&)>& done,
                      int timeout_ms = 15000) {
  std::string buf;
  int64_t deadline = NowMs() + timeout_ms;
  while (!done(buf)) {
    int64_t remain = deadline - NowMs();
    if (remain <= 0) break;
    pollfd p{fd, POLLIN, 0};
    int rc = ::poll(&p, 1, static_cast<int>(remain));
    if (rc <= 0) continue;
    char tmp[8192];
    ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) break;  // EOF or error: return what we have
    buf.append(tmp, static_cast<size_t>(n));
  }
  return buf;
}

// One complete line-protocol response: an ERR/PONG line, or an OK header
// followed by rows and the lone-"." terminator line.
bool LineRespComplete(const std::string& b) {
  if (b.compare(0, 3, "ERR") == 0 || b.compare(0, 4, "PONG") == 0) {
    return b.find('\n') != std::string::npos;
  }
  return b.find("\n.\n") != std::string::npos;
}

std::string LineRequest(int fd, const std::string& line, int timeout_ms = 15000) {
  if (!SendAll(fd, line)) return "";
  return RecvUntil(fd, LineRespComplete, timeout_ms);
}

struct HttpResp {
  bool complete = false;
  int code = 0;
  std::map<std::string, std::string> headers;
  std::string body;
};

HttpResp HttpReq(int port, const std::string& method, const std::string& target,
                 const std::string& extra_headers, int timeout_ms = 15000) {
  HttpResp r;
  int fd = ConnectTo(port);
  if (!SendAll(fd, method + " " + target + " HTTP/1.1\r\nHost: t\r\n" +
                       extra_headers + "\r\n")) {
    ::close(fd);
    return r;
  }
  auto done = [](const std::string& b) {
    size_t he = b.find("\r\n\r\n");
    if (he == std::string::npos) return false;
    size_t cl = b.find("Content-Length: ");
    if (cl == std::string::npos || cl > he) return true;  // malformed: stop
    size_t clen = std::strtoul(b.c_str() + cl + 16, nullptr, 10);
    return b.size() >= he + 4 + clen;
  };
  std::string raw = RecvUntil(fd, done, timeout_ms);
  ::close(fd);
  size_t he = raw.find("\r\n\r\n");
  if (he == std::string::npos) return r;
  r.complete = true;
  r.body = raw.substr(he + 4);
  std::string head = raw.substr(0, he);
  size_t sp = head.find(' ');
  if (sp != std::string::npos) r.code = std::atoi(head.c_str() + sp + 1);
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos) {
    size_t end = head.find("\r\n", pos + 2);
    std::string line = head.substr(pos + 2, end == std::string::npos
                                                ? std::string::npos
                                                : end - pos - 2);
    size_t colon = line.find(": ");
    if (colon != std::string::npos) {
      r.headers[line.substr(0, colon)] = line.substr(colon + 2);
    }
    pos = end;
  }
  return r;
}

HttpResp HttpGet(int port, const std::string& target, int timeout_ms = 15000) {
  return HttpReq(port, "GET", target, "", timeout_ms);
}

// ---------------------------------------------------------------------------

TEST(ServerTest, ServesQueriesBitExactOnBothProtocols) {
  ServerOptions opts = TestOptions();
  opts.workers = 2;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  HttpResp h = HttpGet(server.port(), "/query?q=1");
  ASSERT_TRUE(h.complete);
  EXPECT_EQ(h.code, 200);
  EXPECT_EQ(h.headers["X-QC-Status"], "ok");
  EXPECT_EQ(h.headers["X-QC-Engine"], "vm");
  EXPECT_EQ(h.body, RefRows(1, 5));

  // JIT-engine request: may degrade, must stay byte-exact either way.
  HttpResp j = HttpGet(server.port(), "/query?q=3&engine=jit");
  ASSERT_TRUE(j.complete);
  EXPECT_EQ(j.code, 200);
  EXPECT_EQ(j.body, RefRows(3, 5));

  // Same query over the line protocol: identical rows, OK framing.
  int fd = ConnectTo(server.port());
  std::string resp = LineRequest(fd, "QUERY 1\n");
  ::close(fd);
  ASSERT_EQ(resp.compare(0, 3, "OK "), 0) << resp;
  size_t nl = resp.find('\n');
  EXPECT_EQ(resp.substr(nl + 1, resp.size() - nl - 3), RefRows(1, 5));

  // Health answers inline even while workers are free-running. /metrics is
  // the one counter export: the retired JSON endpoint and line command are
  // unknown routes like any other.
  HttpResp hz = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(hz.code, 200);
  EXPECT_EQ(hz.body, "ok\n");
  HttpResp st = HttpGet(server.port(), "/stats");
  EXPECT_EQ(st.code, 404);
  EXPECT_EQ(st.headers["X-QC-Status"], "not_found");
  EXPECT_EQ(st.body, "not_found\n");
  fd = ConnectTo(server.port());
  resp = LineRequest(fd, "STATS\n");
  ::close(fd);
  EXPECT_EQ(resp.compare(0, 15, "ERR bad_request"), 0) << resp;
  server.Stop();
}

TEST(ServerTest, ShedsWithOverloadedWhenAdmissionQueueIsFull) {
  ServerOptions opts = TestOptions();
  opts.workers = 1;
  opts.queue_capacity = 1;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  // Occupy the only worker, then fill the 1-slot queue, then overflow it.
  int c1 = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(c1, "BLOCK 3000\n"));
  ASSERT_TRUE(WaitFor([&] {
    return server.stats().requests.load() >= 1 && server.stats().ok.load() == 0;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // worker pops

  int c2 = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(c2, "BLOCK 100\n"));  // sits in the queue
  ASSERT_TRUE(WaitFor([&] { return server.stats().requests.load() >= 2; }));

  int c3 = ConnectTo(server.port());
  std::string resp = LineRequest(c3, "QUERY 1\n");
  EXPECT_EQ(resp.compare(0, 14, "ERR overloaded"), 0) << resp;
  EXPECT_GE(server.stats().shed_queue_full.load(), 1u);

  // The shed was immediate: the blocked worker is still busy.
  EXPECT_EQ(server.stats().ok.load(), 0u);
  ::close(c1);
  ::close(c2);
  ::close(c3);
  server.Stop();
}

TEST(ServerTest, ShedsRequestsWhoseQueueDeadlineExpired) {
  ServerOptions opts = TestOptions();
  opts.workers = 1;
  opts.queue_deadline_ms = 50;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  int c1 = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(c1, "BLOCK 800\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Queued behind an 800ms block with a 50ms queue deadline: by the time
  // the worker frees up, running it would serve a client that gave up.
  int c2 = ConnectTo(server.port());
  std::string resp = LineRequest(c2, "QUERY 1 deadline_ms=5000\n");
  EXPECT_EQ(resp.compare(0, 18, "ERR queue_deadline"), 0) << resp;
  EXPECT_EQ(server.stats().shed_queue_deadline.load(), 1u);
  ::close(c1);
  ::close(c2);
  server.Stop();
}

TEST(ServerTest, DisconnectCancelsInflightAndFreesTheWorker) {
  ServerOptions opts = TestOptions();
  opts.workers = 1;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  int c1 = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(c1, "BLOCK 8000\n"));
  ASSERT_TRUE(WaitFor([&] { return server.stats().requests.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ::close(c1);  // client walks away mid-query

  ASSERT_TRUE(
      WaitFor([&] { return server.stats().disconnect_cancels.load() >= 1; }));

  // The kill must free the only worker long before the 8s block finishes.
  int64_t t0 = NowMs();
  int c2 = ConnectTo(server.port());
  std::string resp = LineRequest(c2, "QUERY 1\n", 5000);
  ::close(c2);
  EXPECT_EQ(resp.compare(0, 3, "OK "), 0) << resp;
  EXPECT_LT(NowMs() - t0, 4000);
  EXPECT_GE(server.stats().failed_cancelled.load(), 1u);
  server.Stop();
}

TEST(ServerTest, RetriesTransientResourceFailureWithinDeadline) {
  ServerOptions opts = TestOptions();
  opts.max_retries = 2;
  opts.retry_base_ms = 1;
  opts.retry_max_ms = 4;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  // Warm the (q=1, level=2) plan so the armed run measures execution only.
  HttpResp warm = HttpGet(server.port(), "/query?q=1&level=2");
  ASSERT_EQ(warm.code, 200);

  // One-shot allocation fault: attempt 1 trips kResourceFailure, the
  // retry runs clean — the client sees success plus a retry count.
  ScopedEnv fault("QC_FAULT", "alloc_heap:1");
  HttpResp h = HttpGet(server.port(), "/query?q=1&level=2");
  ASSERT_TRUE(h.complete);
  EXPECT_EQ(h.code, 200);
  EXPECT_EQ(h.headers["X-QC-Status"], "ok");
  EXPECT_EQ(h.headers["X-QC-Retries"], "1");
  EXPECT_EQ(h.body, RefRows(1, 2));
  EXPECT_EQ(server.stats().retries.load(), 1u);
  EXPECT_EQ(server.stats().failed_resource.load(), 0u);
  server.Stop();
}

TEST(ServerTest, ExhaustedRetriesDownshiftThenRecover) {
  ServerOptions opts = TestOptions();
  opts.max_retries = 0;  // no retry budget: the failure surfaces
  opts.recover_ok = 2;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  HttpResp warm = HttpGet(server.port(), "/query?q=1&level=2");
  ASSERT_EQ(warm.code, 200);

  {
    ScopedEnv fault("QC_FAULT", "alloc_heap:1");
    HttpResp h = HttpGet(server.port(), "/query?q=1&level=2");
    ASSERT_TRUE(h.complete);
    EXPECT_EQ(h.code, 503);  // transient by contract: retryable
    EXPECT_EQ(h.headers["X-QC-Status"],
              exec::QueryStatusName(exec::QueryStatusCode::kResourceFailure));
    EXPECT_EQ(h.headers["Retry-After"], "1");
  }
  EXPECT_GE(server.stats().failed_resource.load(), 1u);
  EXPECT_EQ(server.downshift_level(), 1);  // degraded, serving continues

  // Degraded-mode responses advertise the downshift; after recover_ok
  // consecutive successes the server steps back to full service.
  HttpResp d1 = HttpGet(server.port(), "/query?q=1&level=2");
  EXPECT_EQ(d1.code, 200);
  EXPECT_EQ(d1.headers["X-QC-Downshift"], "1");
  HttpResp d2 = HttpGet(server.port(), "/query?q=1&level=2");
  EXPECT_EQ(d2.code, 200);
  EXPECT_EQ(server.downshift_level(), 0);
  HttpResp d3 = HttpGet(server.port(), "/query?q=1&level=2");
  EXPECT_EQ(d3.headers["X-QC-Downshift"], "0");
  server.Stop();
}

TEST(ServerTest, DrainShedsNewRequestsAndCancelsStragglers) {
  ServerOptions opts = TestOptions();
  opts.workers = 1;
  opts.drain_deadline_ms = 100;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  int c1 = ConnectTo(server.port());
  int c2 = ConnectTo(server.port());  // connect before the listener closes
  ASSERT_TRUE(SendAll(c1, "BLOCK 8000\n"));
  ASSERT_TRUE(WaitFor([&] { return server.stats().requests.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  server.BeginDrain();
  EXPECT_TRUE(server.draining());
  std::string resp = LineRequest(c2, "QUERY 1\n");
  EXPECT_EQ(resp.compare(0, 12, "ERR draining"), 0) << resp;
  EXPECT_GE(server.stats().shed_draining.load(), 1u);

  // The 8s block cannot finish inside the 100ms drain deadline: Drain must
  // cancel it through its control and report the unclean drain.
  EXPECT_FALSE(server.Drain());
  EXPECT_GE(server.stats().drain_kills.load(), 1u);
  std::string straggler = RecvUntil(c1, LineRespComplete, 5000);
  EXPECT_EQ(straggler.compare(0, 13, "ERR cancelled"), 0) << straggler;
  ::close(c1);
  ::close(c2);
  server.Stop();
}

TEST(ServerTest, DrainWithNoInflightWorkIsClean) {
  Server server(Db(), TestOptions());
  ASSERT_TRUE(server.Start());
  EXPECT_TRUE(server.Drain());
  EXPECT_EQ(server.stats().drain_kills.load(), 0u);
  server.Stop();
}

// --- telemetry endpoints ---------------------------------------------------

// Strips line framing: "OK ...\n<body>.\n" -> body.
std::string LineBody(const std::string& resp) {
  size_t nl = resp.find('\n');
  if (nl == std::string::npos || resp.size() < nl + 3) return "";
  return resp.substr(nl + 1, resp.size() - nl - 3);
}

// First sample value of `family` in Prometheus text ("family 123\n").
bool PromValue(const std::string& text, const std::string& family,
               long long* out) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (text.compare(pos, family.size(), family) == 0 &&
        pos + family.size() < end && text[pos + family.size()] == ' ') {
      *out = std::strtoll(text.c_str() + pos + family.size() + 1, nullptr, 10);
      return true;
    }
    pos = end + 1;
  }
  return false;
}

// /metrics is the daemon's one counter export: after a scripted mix of
// outcomes (successes, a retry, a bad request), every counter member of
// ServerStats must equal its qc_server_*_total family. The exposition is
// read over one line-protocol connection that stays open while the members
// are compared, so no counter moves in between (metadata requests are not
// admitted queries, and every outcome is counted before its response).
TEST(ServerTest, MetricsEndpointMatchesEveryServerCounter) {
  ServerOptions opts = TestOptions();
  opts.workers = 2;
  opts.max_retries = 2;
  opts.retry_base_ms = 1;
  opts.retry_max_ms = 4;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  // Traffic mix: two successes, one retried transient failure, one
  // unroutable request.
  ASSERT_EQ(HttpGet(server.port(), "/query?q=1").code, 200);
  ASSERT_EQ(HttpGet(server.port(), "/query?q=3&level=2").code, 200);
  {
    ScopedEnv fault("QC_FAULT", "alloc_heap:1");
    EXPECT_EQ(HttpGet(server.port(), "/query?q=3&level=2").code, 200);
  }
  EXPECT_EQ(server.stats().retries.load(), 1u);
  EXPECT_EQ(HttpGet(server.port(), "/no_such_endpoint").code, 404);

  // The HTTP rendering carries the exposition-format content type and the
  // latency histogram.
  HttpResp prom = HttpGet(server.port(), "/metrics");
  ASSERT_EQ(prom.code, 200);
  EXPECT_EQ(prom.headers["Content-Type"], "text/plain; version=0.0.4");
  EXPECT_NE(prom.body.find("# TYPE qc_server_requests_total counter"),
            std::string::npos);
  EXPECT_NE(prom.body.find("qc_server_request_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(prom.body.find("qc_server_request_ms_count"), std::string::npos);
  // Engine-level globals ride along in the same exposition.
  EXPECT_NE(prom.body.find("qc_plan_cache_misses_total"), std::string::npos);

  int fd = ConnectTo(server.port());
  std::string metrics = LineBody(LineRequest(fd, "METRICS\n"));
  ASSERT_FALSE(metrics.empty());
  const ServerStats& st = server.stats();
#define EXPECT_FAMILY_EQ_MEMBER(member, help)                              \
  {                                                                        \
    SCOPED_TRACE(#member);                                                 \
    long long v = -1;                                                      \
    ASSERT_TRUE(PromValue(metrics, "qc_server_" #member "_total", &v));    \
    EXPECT_EQ(static_cast<uint64_t>(v), st.member.load());                 \
  }
  QC_SERVER_COUNTER_LIST(EXPECT_FAMILY_EQ_MEMBER)
#undef EXPECT_FAMILY_EQ_MEMBER
  long long level = -1;
  ASSERT_TRUE(PromValue(metrics, "qc_server_downshift_level", &level));
  EXPECT_EQ(level, st.downshift_level.load());
  ::close(fd);

  // Spot-check the mix actually landed in the export.
  long long oks = 0, retries = 0, bad = 0;
  ASSERT_TRUE(PromValue(metrics, "qc_server_ok_total", &oks));
  ASSERT_TRUE(PromValue(metrics, "qc_server_retries_total", &retries));
  ASSERT_TRUE(PromValue(metrics, "qc_server_bad_requests_total", &bad));
  EXPECT_GE(oks, 3);
  EXPECT_EQ(retries, 1);
  EXPECT_GE(bad, 1);
  server.Stop();
}

// ?trace=1 records the request's execution as a Chrome trace, returns its
// id in-band (X-QC-Trace / trace= token), and serves the JSON at
// /debug/trace/<id>; untraced requests stay byte-identical and unknown ids
// 404.
TEST(ServerTest, PerRequestTraceRoundTrip) {
  ServerOptions opts = TestOptions();
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  // Untraced request: no trace header at all.
  HttpResp plain = HttpGet(server.port(), "/query?q=1");
  ASSERT_EQ(plain.code, 200);
  EXPECT_EQ(plain.headers.count("X-QC-Trace"), 0u);

  HttpResp traced = HttpGet(server.port(), "/query?q=1&trace=1");
  ASSERT_EQ(traced.code, 200);
  EXPECT_EQ(traced.body, RefRows(1, 5));  // tracing never changes the rows
  ASSERT_EQ(traced.headers.count("X-QC-Trace"), 1u);
  std::string id = traced.headers["X-QC-Trace"];
  ASSERT_FALSE(id.empty());

  HttpResp trace = HttpGet(server.port(), "/debug/trace/" + id);
  ASSERT_EQ(trace.code, 200);
  EXPECT_EQ(trace.headers["Content-Type"], "application/json");
  EXPECT_NE(trace.body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.body.find("\"name\":\"exec\""), std::string::npos);
  EXPECT_NE(trace.body.find("\"ph\":\"X\""), std::string::npos);

  EXPECT_EQ(HttpGet(server.port(), "/debug/trace/999999999").code, 404);
  EXPECT_EQ(HttpGet(server.port(), "/debug/trace/bogus").code, 404);

  // Same round trip over the line protocol: OK header advertises the id,
  // TRACE <id> fetches the JSON.
  int fd = ConnectTo(server.port());
  std::string resp = LineRequest(fd, "QUERY 1 trace=1\n");
  ASSERT_EQ(resp.compare(0, 3, "OK "), 0) << resp;
  std::string header = resp.substr(0, resp.find('\n'));
  size_t tpos = header.find(" trace=");
  ASSERT_NE(tpos, std::string::npos) << header;
  std::string line_id = header.substr(tpos + 7);
  std::string trace_resp = LineRequest(fd, "TRACE " + line_id + "\n");
  ::close(fd);
  ASSERT_EQ(trace_resp.compare(0, 3, "OK "), 0) << trace_resp;
  EXPECT_NE(LineBody(trace_resp).find("\"traceEvents\":["),
            std::string::npos);
  server.Stop();
}

// --- client control plane: request ids, cancel-by-id, fairness -------------

// Reads one newline-terminated line (e.g. the "ID <n>" early ack).
std::string RecvLine(int fd, int timeout_ms = 5000) {
  return RecvUntil(
      fd,
      [](const std::string& b) { return b.find('\n') != std::string::npos; },
      timeout_ms);
}

// Prometheus sample with a client label: `family{client="name"} 123`.
bool PromClientValue(const std::string& text, const std::string& family,
                     const std::string& client, long long* out) {
  std::string needle = family + "{client=\"" + client + "\"} ";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtoll(text.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

// ack=1 returns the server-assigned id before the result; POST /cancel/<id>
// from another connection trips the running request's control, which must
// unwind within safepoint granularity — far faster than the block itself —
// and answer the victim with the structured cancelled status.
TEST(ServerTest, CancelByIdUnwindsRunningRequestWithinSafepoints) {
  ServerOptions opts = TestOptions();
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  int a = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(a, "BLOCK 8000 ack=1\n"));
  std::string ack = RecvLine(a);
  ASSERT_EQ(ack.compare(0, 3, "ID "), 0) << ack;
  std::string id = ack.substr(3, ack.find('\n') - 3);
  ASSERT_FALSE(id.empty());
  ASSERT_TRUE(WaitFor([&] { return server.stats().requests.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // worker pops

  int64_t t0 = NowMs();
  HttpResp c = HttpReq(server.port(), "POST", "/cancel/" + id, "");
  ASSERT_TRUE(c.complete);
  EXPECT_EQ(c.code, 200);
  EXPECT_EQ(c.headers["X-QC-Request-Id"], id);
  EXPECT_EQ(c.body, "cancelled\n");

  std::string victim = RecvUntil(a, LineRespComplete, 5000);
  EXPECT_EQ(victim.compare(0, 13, "ERR cancelled"), 0) << victim;
  EXPECT_NE(victim.find(" id=" + id), std::string::npos) << victim;
  // An 8s block unwound in safepoint time, not block time.
  EXPECT_LT(NowMs() - t0, 2000);
  EXPECT_GE(server.stats().cancels_by_id.load(), 1u);
  EXPECT_GE(server.stats().failed_cancelled.load(), 1u);
  ::close(a);

  // Unknown and already-finalized ids are an idempotent 404 on both
  // protocols.
  EXPECT_EQ(HttpReq(server.port(), "POST", "/cancel/" + id, "").code, 404);
  EXPECT_EQ(HttpReq(server.port(), "POST", "/cancel/999999", "").code, 404);
  int fd = ConnectTo(server.port());
  std::string nf = LineRequest(fd, "CANCEL 999999\n");
  EXPECT_EQ(nf.compare(0, 13, "ERR not_found"), 0) << nf;
  ::close(fd);
  server.Stop();
}

// Cancelling a request that is still queued sheds it immediately — the
// victim's answer cannot wait for a worker to pop it.
TEST(ServerTest, CancelByIdShedsQueuedRequestImmediately) {
  ServerOptions opts = TestOptions();
  opts.workers = 1;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  int a = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(a, "BLOCK 3000\n"));  // occupies the only worker
  ASSERT_TRUE(WaitFor([&] { return server.stats().requests.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  int b = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(b, "BLOCK 2000 ack=1\n"));  // parks in the queue
  std::string ack = RecvLine(b);
  ASSERT_EQ(ack.compare(0, 3, "ID "), 0) << ack;
  std::string id = ack.substr(3, ack.find('\n') - 3);

  int c = ConnectTo(server.port());
  int64_t t0 = NowMs();
  std::string cresp = LineRequest(c, "CANCEL " + id + "\n");
  ASSERT_EQ(cresp.compare(0, 3, "OK "), 0) << cresp;
  EXPECT_NE(cresp.find("cancelled"), std::string::npos) << cresp;

  std::string victim = RecvUntil(b, LineRespComplete, 5000);
  EXPECT_EQ(victim.compare(0, 13, "ERR cancelled"), 0) << victim;
  // Shed straight out of the queue: long before the 3s blocker frees the
  // worker, let alone the 2s victim block running.
  EXPECT_LT(NowMs() - t0, 1500);
  EXPECT_GE(server.stats().cancels_by_id.load(), 1u);
  ::close(a);
  ::close(b);
  ::close(c);
  server.Stop();
}

// Compile once, run anywhere: the plan cache builds one Program per
// (query, level) and every worker runs that same object, so two workers
// executing one plan on the JIT stitch it once (a per-worker engine cache
// stitches twice). Blocks pin the query onto each worker in turn.
TEST(ServerTest, WorkersShareOneProgramPerPlan) {
  if (!exec::jit::JitAvailable()) GTEST_SKIP() << "JIT unavailable";
  ServerOptions opts = TestOptions();
  opts.workers = 2;
  opts.query_threads = 2;
  opts.default_jit = true;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  auto jit_compiles = [&] {  // the family registers on its first stitch
    long long v = 0;
    PromValue(HttpGet(server.port(), "/metrics").body,
              "qc_jit_compiles_total", &v);
    return v;
  };
  auto pinned = [&] {  // blocks a worker has popped and not finished
    long long v = 0;
    PromClientValue(HttpGet(server.port(), "/metrics").body,
                    "qc_server_client_inflight", "pin", &v);
    return v;
  };
  // Occupies one worker until cancelled; returns the connection.
  auto block = [&](std::string* id) {
    const long long running = pinned();
    int fd = ConnectTo(server.port());
    EXPECT_TRUE(SendAll(fd, "BLOCK 10000 ack=1 client=pin\n"));
    std::string ack = RecvLine(fd);
    EXPECT_EQ(ack.compare(0, 3, "ID "), 0) << ack;
    *id = ack.substr(3, ack.find('\n') - 3);
    EXPECT_TRUE(WaitFor([&] { return pinned() == running + 1; }));
    return fd;
  };
  auto cancel = [&](int fd, const std::string& id) {
    EXPECT_EQ(HttpReq(server.port(), "POST", "/cancel/" + id, "").code, 200);
    RecvUntil(fd, LineRespComplete, 5000);
    ::close(fd);
  };
  const std::string want = RefRows(3, 5);
  const long long before = jit_compiles();

  std::string id_a, id_b;
  int a = block(&id_a);
  HttpResp first = HttpGet(server.port(), "/query?q=3");  // the other worker
  int b = block(&id_b);  // ... which now blocks
  cancel(a, id_a);
  HttpResp second = HttpGet(server.port(), "/query?q=3");  // the first one
  HttpResp vm = HttpGet(server.port(), "/query?q=3&engine=vm");
  cancel(b, id_b);

  for (const HttpResp* r : {&first, &second}) {
    EXPECT_EQ(r->code, 200);
    EXPECT_EQ(r->headers.at("X-QC-Engine"), "jit");
    EXPECT_EQ(r->body, want);
  }
  EXPECT_EQ(vm.code, 200);
  EXPECT_EQ(vm.headers["X-QC-Engine"], "vm");
  EXPECT_EQ(vm.body, want);
  EXPECT_EQ(jit_compiles() - before, 1);
  server.Stop();
}

// One heavy tenant floods 4 connections with 200ms blocks; a light tenant
// sends short probes. Round-robin admission bounds each probe's wait by
// roughly one heavy block; FIFO would park every probe behind the whole
// heavy backlog (>=600ms).
TEST(ServerTest, FairAdmissionBoundsLightClientUnderHeavyFlood) {
  ServerOptions opts = TestOptions();
  opts.workers = 1;
  opts.queue_capacity = 64;
  opts.queue_deadline_ms = 5000;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  std::atomic<bool> stop{false};
  std::atomic<int> heavy_ok{0};
  std::vector<std::thread> heavy;
  for (int i = 0; i < 4; ++i) {
    heavy.emplace_back([&] {
      int fd = ConnectTo(server.port());
      while (!stop.load()) {
        std::string r = LineRequest(fd, "BLOCK 200 client=heavy\n", 8000);
        if (r.compare(0, 3, "OK ") != 0) break;
        heavy_ok.fetch_add(1);
      }
      ::close(fd);
    });
  }
  // Let the flood establish a standing backlog.
  ASSERT_TRUE(WaitFor([&] { return server.stats().requests.load() >= 4; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  int64_t worst = 0;
  int light = ConnectTo(server.port());
  for (int i = 0; i < 5; ++i) {
    int64_t t0 = NowMs();
    std::string r = LineRequest(light, "BLOCK 10 client=light\n", 8000);
    ASSERT_EQ(r.compare(0, 3, "OK "), 0) << r;
    int64_t took = NowMs() - t0;
    if (took > worst) worst = took;
  }
  ::close(light);
  stop.store(true);
  for (auto& t : heavy) t.join();

  // RR bound: the in-progress heavy block (<=200ms) + own 10ms run +
  // slack. The FIFO baseline is >=600ms per probe (3 queued heavy blocks
  // plus the running one).
  EXPECT_LT(worst, 450) << "light client starved behind the heavy backlog";
  EXPECT_GE(heavy_ok.load(), 4);
  server.Stop();
}

// Per-client token bucket: a greedy tenant burns its burst and gets
// structured 429/"quota" sheds — distinct from 503 overload — while other
// tenants (including anonymous) keep being served.
TEST(ServerTest, PerClientQuotaShedsWith429OnBothProtocols) {
  ServerOptions opts = TestOptions();
  opts.client_qps = 1;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  int okc = 0, shed = 0;
  int fd = ConnectTo(server.port());
  for (int i = 0; i < 6; ++i) {
    std::string r = LineRequest(fd, "BLOCK 1 client=greedy\n");
    if (r.compare(0, 3, "OK ") == 0) ++okc;
    if (r.compare(0, 9, "ERR quota") == 0) ++shed;
  }
  ::close(fd);
  EXPECT_GE(okc, 1);   // the burst admits
  EXPECT_GE(shed, 3);  // the flood hits the bucket
  EXPECT_GE(server.stats().shed_quota.load(), 3u);

  // Anonymous traffic is a different tenant: unaffected by greedy's debt.
  EXPECT_EQ(HttpGet(server.port(), "/query?q=1").code, 200);

  // HTTP identity via the X-QC-Client header sheds the same way.
  int ok_http = 0, shed_http = 0;
  for (int i = 0; i < 6; ++i) {
    HttpResp h = HttpReq(server.port(), "GET", "/debug/block?ms=1",
                         "X-QC-Client: gulp\r\n");
    if (h.code == 200) ++ok_http;
    if (h.code == 429) {
      ++shed_http;
      EXPECT_EQ(h.headers["X-QC-Status"], "quota");
    }
  }
  EXPECT_GE(ok_http, 1);
  EXPECT_GE(shed_http, 3);
  server.Stop();
}

// The per-client inflight cap defers (the queue holds the request until a
// slot frees) instead of shedding: the capped tenant's work serializes,
// other tenants use the idle workers meanwhile, nobody sees an error.
TEST(ServerTest, PerClientInflightCapDefersWithoutShedding) {
  ServerOptions opts = TestOptions();
  opts.workers = 2;
  opts.client_inflight = 1;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  int64_t t0 = NowMs();
  int a = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(a, "BLOCK 400 client=capped\n"));
  ASSERT_TRUE(WaitFor([&] { return server.stats().requests.load() >= 1; }));
  int b = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(b, "BLOCK 400 client=capped\n"));
  ASSERT_TRUE(WaitFor([&] { return server.stats().requests.load() >= 2; }));

  // The second worker is idle (capped's 2nd block defers): other tenants
  // run immediately.
  int c = ConnectTo(server.port());
  std::string fast = LineRequest(c, "BLOCK 10 client=other\n", 5000);
  EXPECT_EQ(fast.compare(0, 3, "OK "), 0) << fast;
  EXPECT_LT(NowMs() - t0, 2000);
  ::close(c);

  std::string ra = RecvUntil(a, LineRespComplete, 5000);
  std::string rb = RecvUntil(b, LineRespComplete, 5000);
  EXPECT_EQ(ra.compare(0, 3, "OK "), 0) << ra;
  EXPECT_EQ(rb.compare(0, 3, "OK "), 0) << rb;
  // cap=1 serialized the two 400ms blocks; in parallel they'd finish ~400ms
  // after t0.
  EXPECT_GE(NowMs() - t0, 780);
  EXPECT_EQ(server.stats().shed_quota.load(), 0u);
  EXPECT_EQ(server.stats().shed_client_queue.load(), 0u);
  ::close(a);
  ::close(b);
  server.Stop();
}

// --- connection hardening --------------------------------------------------

// A socket dribbling an unfinished request (slow loris) and an idle
// keep-alive socket both age out on their timeouts; a connection with real
// in-flight work is never evicted.
TEST(ServerTest, SlowLorisAndIdleKeepAliveConnectionsAreEvicted) {
  ServerOptions opts = TestOptions();
  opts.io_idle_ms = 300;
  opts.idle_ms = 700;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  // Busy control: outlives both timeouts because its work is in flight.
  int busy = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(busy, "BLOCK 1500\n"));

  // Idle keep-alive: one successful round trip, then silence.
  int idle = ConnectTo(server.port());
  std::string pong = LineRequest(idle, "PING\n");
  ASSERT_EQ(pong.compare(0, 4, "PONG"), 0) << pong;

  // Slow loris: keeps the socket "active" by dribbling bytes, but the age
  // of its oldest unparsed byte keeps growing — liveness of the socket
  // must not defeat the stalled-request clock.
  int loris = ConnectTo(server.port());
  const char kDribble[] = "QUERY 1 x";  // never newline-terminated
  bool loris_dead = false;
  int64_t t0 = NowMs();
  size_t li = 0;
  while (NowMs() - t0 < 5000) {
    char byte = kDribble[li++ % (sizeof(kDribble) - 1)];
    if (::send(loris, &byte, 1, MSG_NOSIGNAL) < 0) {
      loris_dead = true;
      break;
    }
    char tmp[64];
    ssize_t n = ::recv(loris, tmp, sizeof(tmp), MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      loris_dead = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  EXPECT_TRUE(loris_dead) << "slow loris survived the io timeout";
  EXPECT_GE(server.stats().evicted_stalled.load(), 1u);
  ::close(loris);

  ASSERT_TRUE(
      WaitFor([&] { return server.stats().evicted_idle.load() >= 1; }, 5000));
  pollfd pe{idle, POLLIN, 0};
  ASSERT_GT(::poll(&pe, 1, 5000), 0);
  char tmp[8];
  EXPECT_EQ(::recv(idle, tmp, sizeof(tmp), 0), 0);  // clean EOF
  ::close(idle);

  // The busy connection delivered its result despite running far past
  // io_idle_ms.
  std::string r = RecvUntil(busy, LineRespComplete, 8000);
  EXPECT_EQ(r.compare(0, 3, "OK "), 0) << r;
  ::close(busy);
  server.Stop();
}

// At the global connection ceiling the newest idle keep-alive socket is
// recycled (LIFO) so the fresh client still gets served; established idle
// sockets observe a clean EOF, never a hang.
TEST(ServerTest, ConnectionCeilingEvictsNewestIdleSocket) {
  ServerOptions opts = TestOptions();
  opts.max_conns = 4;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) {
    int fd = ConnectTo(server.port());
    std::string pong = LineRequest(fd, "PING\n");
    ASSERT_EQ(pong.compare(0, 4, "PONG"), 0) << pong;
    fds.push_back(fd);
  }

  int fresh = ConnectTo(server.port());
  std::string resp = LineRequest(fresh, "QUERY 1\n");
  EXPECT_EQ(resp.compare(0, 3, "OK "), 0) << resp;
  EXPECT_GE(server.stats().conn_evicted.load(), 1u);

  // LIFO: the most recently accepted idle socket was the victim.
  pollfd pv{fds[3], POLLIN, 0};
  ASSERT_GT(::poll(&pv, 1, 5000), 0);
  char tmp[8];
  EXPECT_EQ(::recv(fds[3], tmp, sizeof(tmp), 0), 0);
  // The oldest socket still works.
  std::string pong = LineRequest(fds[0], "PING\n");
  EXPECT_EQ(pong.compare(0, 4, "PONG"), 0) << pong;
  for (int fd : fds) ::close(fd);
  ::close(fresh);
  server.Stop();
}

// --- input bounds ----------------------------------------------------------

// Parser-level bounds: each over-limit dimension maps to its own structured
// status with must_close set, and client identity is sanitized, not trusted.
TEST(ServerTest, OversizedRequestsAreRejectedStructurally) {
  ProtoLimits lim;

  // Request line over max_line: 414, framing unrecoverable.
  ParsedRequest p = ParseRequest(
      "GET /query?q=1&pad=" + std::string(5000, 'a') +
          " HTTP/1.1\r\nHost: t\r\n\r\n",
      lim);
  EXPECT_EQ(p.kind, ParsedRequest::Kind::kBad);
  EXPECT_EQ(p.http_code, 414);
  EXPECT_TRUE(p.must_close);

  // Header block over max_headers: 431.
  std::string hdrs;
  for (int i = 0; i < 600; ++i) {
    hdrs += "X-Pad-" + std::to_string(i) + ": aaaaaaaaaaaaaaaaaaaaaaaa\r\n";
  }
  p = ParseRequest("GET /healthz HTTP/1.1\r\n" + hdrs + "\r\n", lim);
  EXPECT_EQ(p.kind, ParsedRequest::Kind::kBad);
  EXPECT_EQ(p.http_code, 431);
  EXPECT_TRUE(p.must_close);

  // Declared POST body over max_body: 413 before a single body byte needs
  // to be buffered.
  p = ParseRequest("POST /cancel/7 HTTP/1.1\r\nContent-Length: 9999\r\n\r\n",
                   lim);
  EXPECT_EQ(p.kind, ParsedRequest::Kind::kBad);
  EXPECT_EQ(p.http_code, 413);
  EXPECT_TRUE(p.must_close);

  // In-bounds POST waits for its body, then routes.
  p = ParseRequest("POST /cancel/7 HTTP/1.1\r\nContent-Length: 3\r\n\r\nab",
                   lim);
  EXPECT_EQ(p.kind, ParsedRequest::Kind::kNeedMore);
  p = ParseRequest("POST /cancel/7 HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                   lim);
  EXPECT_EQ(p.kind, ParsedRequest::Kind::kCancel);
  EXPECT_EQ(p.cancel_id, 7u);
  // Cancel is POST-only.
  p = ParseRequest("GET /cancel/7 HTTP/1.1\r\n\r\n", lim);
  EXPECT_EQ(p.kind, ParsedRequest::Kind::kBad);
  EXPECT_EQ(p.http_code, 405);

  // Line-protocol line over max_line: 431 with line framing.
  p = ParseRequest("QUERY 1 " + std::string(5000, 'x') + "\n", lim);
  EXPECT_EQ(p.kind, ParsedRequest::Kind::kBad);
  EXPECT_FALSE(p.http);
  EXPECT_EQ(p.error, "request_too_large");
  EXPECT_TRUE(p.must_close);

  // CANCEL line command parses; ids are strict.
  p = ParseRequest("CANCEL 42\n", lim);
  EXPECT_EQ(p.kind, ParsedRequest::Kind::kCancel);
  EXPECT_EQ(p.cancel_id, 42u);

  // Client identity: strict alphabet, bounded length, header beats param.
  p = ParseRequest("QUERY 1 client=ok-id.1\n", lim);
  EXPECT_EQ(p.client, "ok-id.1");
  p = ParseRequest("QUERY 1 client=bad!id\n", lim);
  EXPECT_EQ(p.client, "");
  p = ParseRequest("QUERY 1 client=" + std::string(40, 'a') + "\n", lim);
  EXPECT_EQ(p.client, "");
  p = ParseRequest(
      "GET /query?q=1&client=urlid HTTP/1.1\r\nX-QC-Client: hdrid\r\n\r\n",
      lim);
  EXPECT_EQ(p.client, "hdrid");
}

// Socket-level bounds: a newline-less flood is answered with a structured
// error once it crosses the line bound — the server does not buffer it
// indefinitely — and the hard per-connection buffer cap closes a flooding
// connection even while a request is in flight (the parser idle).
TEST(ServerTest, OversizedSocketFloodsAreBounded) {
  ServerOptions opts = TestOptions();
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  int fd = ConnectTo(server.port());
  SendAll(fd, std::string(8192, 'Q'));  // no newline, no framing
  std::string resp = RecvUntil(
      fd,
      [](const std::string& b) {
        return b.find("request_too_large") != std::string::npos;
      },
      5000);
  EXPECT_NE(resp.find("request_too_large"), std::string::npos) << resp;
  ::close(fd);
  EXPECT_GE(server.stats().bad_requests.load(), 1u);

  // While a request is in flight, pipelined bytes wait unparsed — but only
  // up to the 64K hard cap, after which the connection is torn down.
  int b1 = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(b1, "BLOCK 1500\n"));
  ASSERT_TRUE(WaitFor([&] { return server.stats().requests.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  SendAll(b1, std::string(100 * 1024, 'z'));  // may be cut short: fine
  std::string flood = RecvUntil(
      b1,
      [](const std::string& b) {
        return b.find("request_too_large") != std::string::npos;
      },
      5000);
  EXPECT_NE(flood.find("request_too_large"), std::string::npos) << flood;
  ::close(b1);
  ASSERT_TRUE(WaitFor([&] { return server.stats().bad_requests.load() >= 2; }));

  // The server is unharmed.
  EXPECT_EQ(HttpGet(server.port(), "/query?q=1").code, 200);
  server.Stop();
}

// Pipelining past the per-connection cap while a request is in flight is a
// structured 429 + close, and the server keeps serving everyone else.
TEST(ServerTest, PipelineFloodOverCapClosesConnection) {
  ServerOptions opts = TestOptions();
  opts.pipeline_cap = 4;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  int fd = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(fd, "BLOCK 800\n"));
  ASSERT_TRUE(WaitFor([&] { return server.stats().requests.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::string burst;
  for (int i = 0; i < 8; ++i) burst += "PING\n";
  ASSERT_TRUE(SendAll(fd, burst));
  std::string resp = RecvUntil(
      fd,
      [](const std::string& b) {
        return b.find("pipeline_limit") != std::string::npos;
      },
      5000);
  EXPECT_NE(resp.find("pipeline_limit"), std::string::npos) << resp;
  EXPECT_GE(server.stats().pipeline_limited.load(), 1u);
  ::close(fd);
  EXPECT_EQ(HttpGet(server.port(), "/query?q=1").code, 200);
  server.Stop();
}

// A slow reader dribbling a deep pipeline of real result sets: the event
// loop must ride EAGAIN through partial writes without dropping, reordering
// or duplicating a single byte. The client window is shrunk so back-pressure
// genuinely reaches the server's send path.
TEST(ServerTest, SlowReaderDrainsPipelinedResultsByteExact) {
  ServerOptions opts = TestOptions();
  opts.pipeline_cap = 512;
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  const std::string expect = RefRows(16, 5);
  ASSERT_FALSE(expect.empty());
  size_t n = 320 * 1024 / expect.size() + 4;
  if (n > 256) n = 256;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcv = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcv, sizeof(rcv));
  sockaddr_in a;
  std::memset(&a, 0, sizeof(a));
  a.sin_family = AF_INET;
  a.sin_port = htons(static_cast<uint16_t>(server.port()));
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)), 0);

  std::string burst;
  for (size_t i = 0; i < n; ++i) burst += "QUERY 16\n";
  ASSERT_TRUE(SendAll(fd, burst));

  // Dribble: small reads, deliberately slower than the workers render.
  std::string all;
  size_t terms = 0, scanned = 0;
  int64_t deadline = NowMs() + 120000;
  char tmp[1536];
  while (terms < n && NowMs() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 1000) <= 0) continue;
    ssize_t got = ::recv(fd, tmp, sizeof(tmp), 0);
    ASSERT_GT(got, 0) << "connection died after " << all.size() << " bytes, "
                      << terms << "/" << n << " responses";
    all.append(tmp, static_cast<size_t>(got));
    for (;;) {  // count "\n.\n" frame terminators seen so far
      size_t hit = all.find("\n.\n", scanned);
      if (hit == std::string::npos) {
        scanned = all.size() < 2 ? 0 : all.size() - 2;
        break;
      }
      ++terms;
      scanned = hit + 2;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(terms, n) << "only " << terms << " of " << n << " responses";

  // Byte-exact reassembly of every frame.
  size_t pos = 0;
  for (size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(all.compare(pos, 3, "OK "), 0) << all.substr(pos, 40);
    size_t he = all.find('\n', pos);
    ASSERT_NE(he, std::string::npos);
    ASSERT_TRUE(all.compare(he + 1, expect.size(), expect) == 0)
        << "rows of response " << i << " differ";
    pos = he + 1 + expect.size();
    ASSERT_EQ(all.compare(pos, 2, ".\n"), 0);
    pos += 2;
  }
  EXPECT_EQ(pos, all.size());
  ::close(fd);
  server.Stop();
}

// The labeled qc_server_client_* families of /metrics count exactly the
// per-client outcomes the client observed, and the flat shed counter
// equals the per-client sum.
TEST(ServerTest, PerClientCountersMatchObservedOutcomes) {
  ServerOptions opts = TestOptions();
  opts.client_qps = 1;  // force at least one quota shed
  Server server(Db(), opts);
  ASSERT_TRUE(server.Start());

  int fd = ConnectTo(server.port());
  long long okc = 0, shed = 0;
  for (int i = 0; i < 4; ++i) {
    std::string r = LineRequest(fd, "BLOCK 1 client=alice\n");
    if (r.compare(0, 3, "OK ") == 0) ++okc;
    if (r.compare(0, 9, "ERR quota") == 0) ++shed;
  }
  ASSERT_GE(okc, 1);
  ASSERT_GE(shed, 1);

  std::string metrics = LineBody(LineRequest(fd, "METRICS\n"));
  ::close(fd);

  long long admitted = -1, done = -1, q = -1, flat = -1;
  ASSERT_TRUE(PromClientValue(metrics, "qc_server_client_admitted_total",
                              "alice", &admitted))
      << metrics;
  ASSERT_TRUE(
      PromClientValue(metrics, "qc_server_client_done_total", "alice", &done));
  ASSERT_TRUE(PromClientValue(metrics, "qc_server_client_shed_quota_total",
                              "alice", &q));
  EXPECT_EQ(admitted, okc);
  EXPECT_EQ(done, okc);  // every admitted block finished before the read
  EXPECT_EQ(q, shed);
  ASSERT_TRUE(PromValue(metrics, "qc_server_shed_quota_total", &flat));
  EXPECT_EQ(flat, shed);  // alice is the only shedding tenant
  server.Stop();
}

// Chaos sweep over the serving daemon's network fault sites (plus one
// compound network+execution spec): under every injected failure the
// server must neither crash nor hang, every affected client must observe
// either a structured error or a clean disconnect, and after disarming the
// server must serve perfectly again.
TEST(ServerChaosTest, NetworkFaultSitesFailCleanAndServerSurvives) {
  const char* kSpecs[] = {
      "srv_accept:1",  "srv_read:1",   "srv_read:3",
      "srv_write:1",   "srv_write:3",  "srv_queue:1",
      "srv_timeout:1", "srv_cancel:1", "srv_read:2,alloc_heap:1",
  };
  for (const char* spec : kSpecs) {
    SCOPED_TRACE(spec);
    ServerOptions opts = TestOptions();
    opts.workers = 2;
    Server server(Db(), opts);
    ASSERT_TRUE(server.Start());
    // Warm before arming so plan compilation is off the chaos path.
    ASSERT_EQ(HttpGet(server.port(), "/query?q=1").code, 200);
    {
      ScopedEnv fault("QC_FAULT", spec);
      // Exercise the cancel control plane so srv_cancel has a path to fire;
      // under every other spec this is a harmless 404/torn connection.
      {
        int cfd = ConnectTo(server.port());
        std::string cresp = LineRequest(cfd, "CANCEL 999999\n", 5000);
        EXPECT_TRUE(cresp.empty() || cresp.compare(0, 3, "OK ") == 0 ||
                    cresp.compare(0, 3, "ERR") == 0)
            << cresp;
        ::close(cfd);
      }
      for (int i = 0; i < 4; ++i) {
        int fd = ConnectTo(server.port());
        std::string resp = LineRequest(fd, "QUERY 1\n", 5000);
        // Structured outcome or torn connection — both acceptable under
        // injected network failure; crashes and hangs are not.
        EXPECT_TRUE(resp.empty() || resp.compare(0, 3, "OK ") == 0 ||
                    resp.compare(0, 3, "ERR") == 0)
            << resp;
        ::close(fd);
      }
      EXPECT_GE(server.stats().net_faults.load(), 1u);
    }
    // Disarmed: full service, correct bytes.
    HttpResp clean = HttpGet(server.port(), "/query?q=1");
    EXPECT_EQ(clean.code, 200);
    EXPECT_EQ(clean.body, RefRows(1, 5));
    server.Stop();
  }
}

}  // namespace
}  // namespace qc::server
