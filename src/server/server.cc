#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/knobs.h"
#include "common/fault.h"
#include "server/protocol.h"
#include "server/retry.h"
#include "telemetry/log.h"
#include "telemetry/trace.h"

namespace qc::server {

namespace {

// Hard per-connection inbound bound: while a request is in flight the
// parser is not consulted, so this is what stops a client from streaming
// unbounded bytes into the buffer (the parser's own ProtoLimits bounds,
// all smaller, govern the parse path).
constexpr size_t kMaxRequestBytes = 64 * 1024;
constexpr int kPollMs = 100;
constexpr ProtoLimits kProtoLimits{};

void SleepMs(int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

ServerOptions ServerOptions::FromEnv() {
  ServerOptions o;
  auto knob = [](Knob k) { return static_cast<int>(KnobInt(k)); };
  o.port = knob(Knob::kServePort);  // 7117, where ServerOptions{} has 0
  o.workers = knob(Knob::kServeWorkers);
  o.query_threads = knob(Knob::kServeThreads);
  o.queue_capacity = knob(Knob::kServeQueueCap);
  o.max_deadline_ms = KnobInt(Knob::kServeMaxDeadlineMs);
  o.queue_deadline_ms = KnobInt(Knob::kServeQueueMs);
  o.max_mem_mb = KnobInt(Knob::kServeMaxMemMb);
  o.drain_deadline_ms = KnobInt(Knob::kServeDrainMs);
  o.debug_endpoints = KnobFlag(Knob::kServeDebug);
  o.client_qps = static_cast<double>(KnobInt(Knob::kServeClientQps));
  o.client_inflight = knob(Knob::kServeClientInflight);
  o.client_queue = knob(Knob::kServeClientQueue);
  o.idle_ms = KnobInt(Knob::kServeIdleMs);
  o.io_idle_ms = KnobInt(Knob::kServeIoMs);
  o.pipeline_cap = knob(Knob::kServePipeline);
  o.max_conns = knob(Knob::kServeMaxConns);
  return o;
}

#define QC_SERVER_COUNTER_INIT(member, help) \
  member(*registry.AddCounter("qc_server_" #member "_total", help)),

ServerStats::ServerStats()
    : QC_SERVER_COUNTER_LIST(QC_SERVER_COUNTER_INIT)
      downshift_level(*registry.AddGauge(
          "qc_server_downshift_level",
          "Current degradation level (0 full service .. 2 single-thread VM).")),
      request_ms(*registry.AddHistogram(
          "qc_server_request_ms",
          "End-to-end worker latency per executed request (milliseconds).",
          {0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
           5000, 10000})) {}

#undef QC_SERVER_COUNTER_INIT

std::string ServerStats::ToPrometheus() const {
  // One page serves the server families and the process-global engine
  // families (JIT, governor, plan cache) — one scrape sees everything.
  return Snapshot().ToPrometheus() +
         telemetry::MetricsRegistry::Global().Snapshot().ToPrometheus();
}

namespace {

FairAdmissionQueue::Limits QueueLimits(const ServerOptions& o) {
  FairAdmissionQueue::Limits l;
  l.capacity = static_cast<size_t>(o.queue_capacity < 1 ? 1
                                                        : o.queue_capacity);
  l.client_queue =
      o.client_queue > 0 ? static_cast<size_t>(o.client_queue) : 0;
  l.client_qps = o.client_qps > 0 ? o.client_qps : 0;
  l.client_inflight = o.client_inflight > 0 ? o.client_inflight : 0;
  return l;
}

}  // namespace

Server::Server(storage::Database* db, ServerOptions opts)
    : db_(db),
      opts_(std::move(opts)),
      plans_(db),
      queue_(QueueLimits(opts_)) {}

Server::~Server() { Stop(); }

bool Server::Start() {
  if (started_) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    std::perror("qc_serve: socket");
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(opts_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    std::perror("qc_serve: bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);

  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) < 0) {
    std::perror("qc_serve: pipe2");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];

  for (int i = 0; i < opts_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(db_));
    Worker* w = workers_.back().get();
    w->thread = std::thread([this, w] { WorkerMain(w); });
  }
  loop_ = std::thread([this] { EventLoop(); });
  started_ = true;
  return true;
}

void Server::Wake() {
  if (wake_wr_ >= 0) {
    char b = 'w';
    // Best-effort: a full pipe already guarantees a pending wake.
    ssize_t ignored = ::write(wake_wr_, &b, 1);
    (void)ignored;
  }
}

void Server::BeginDrain() {
  if (!draining_.exchange(true, std::memory_order_relaxed)) Wake();
}

bool Server::Drain() {
  BeginDrain();
  const int64_t deadline =
      exec::GovNowNs() + opts_.drain_deadline_ms * 1000000;
  auto idle = [&] {
    return active_.load(std::memory_order_relaxed) == 0 && queue_.size() == 0;
  };
  while (exec::GovNowNs() < deadline) {
    if (idle()) return true;
    SleepMs(1);
  }
  // Drain deadline passed: cancel every outstanding request through its
  // control (executing queries unwind within one safepoint interval;
  // queued ones are popped, observed aborted, and answered "cancelled").
  bool clean = idle();
  if (!clean) {
    std::vector<RequestPtr> out;
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      for (auto& kv : outstanding_) out.push_back(kv.second);
    }
    stats_.drain_kills.Add(out.size());
    telemetry::Log(telemetry::LogLevel::kWarn, "drain_kill",
                   {{"stragglers", static_cast<unsigned long long>(
                                       out.size())}});
    for (auto& r : out) r->Kill();
    // The unwind itself is bounded by the safepoint contract, but give it a
    // generous hard stop so Drain() can never hang the caller.
    const int64_t hard = exec::GovNowNs() + 10ll * 1000 * 1000 * 1000;
    while (!idle() && exec::GovNowNs() < hard) SleepMs(1);
  }
  return clean;
}

void Server::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  Drain();
  queue_.Close();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  stop_.store(true, std::memory_order_relaxed);
  Wake();
  if (loop_.joinable()) loop_.join();
  // The loop has exited: session/listen/wake fds are now exclusively ours.
  for (auto& kv : sessions_) {
    if (kv.second->fd >= 0) ::close(kv.second->fd);
  }
  sessions_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  wake_rd_ = wake_wr_ = -1;
}

// ---------------------------------------------------------------------------
// Event loop (single thread).
// ---------------------------------------------------------------------------

void Server::EventLoop() {
  std::vector<pollfd> fds;
  std::vector<SessionPtr> polled;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (draining_.load(std::memory_order_relaxed) && listen_fd_ >= 0) {
      ::close(listen_fd_);  // stop accepting the moment drain begins
      listen_fd_ = -1;
    }
    fds.clear();
    polled.clear();
    fds.push_back({wake_rd_, POLLIN, 0});
    if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& kv : sessions_) {
      short events = POLLIN;
      {
        std::lock_guard<std::mutex> lock(kv.second->mu);
        if (!kv.second->out.empty()) events |= POLLOUT;
      }
      fds.push_back({kv.first, events, 0});
      polled.push_back(kv.second);
    }
    int rc = ::poll(fds.data(), fds.size(), kPollMs);
    if (rc < 0 && errno != EINTR) SleepMs(1);

    size_t idx = 0;
    if (fds[idx].revents & POLLIN) {
      char buf[256];
      while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }
    ++idx;
    if (listen_fd_ >= 0) {
      if (fds[idx].revents & (POLLIN | POLLERR)) AcceptNew();
      ++idx;
    }
    for (size_t i = 0; i < polled.size(); ++i, ++idx) {
      const SessionPtr& s = polled[i];
      if (s->fd < 0) continue;  // closed earlier this iteration
      short re = fds[idx].revents;
      if (re & (POLLERR | POLLNVAL)) {
        CloseSession(s, /*cancel_inflight=*/true);
        continue;
      }
      if (re & POLLIN) HandleReadable(s);
      // POLLHUP with readable data still pending is handled by the read
      // path (recv returns 0 at EOF); a bare HUP closes here.
      if (s->fd >= 0 && (re & POLLHUP) && !(re & POLLIN)) {
        CloseSession(s, /*cancel_inflight=*/true);
        continue;
      }
      if (s->fd >= 0 && (re & POLLOUT)) FlushWrites(s);
    }
    // Worker completions appended response bytes and cleared inflight
    // slots: flush pending writes and resume parsing pipelined requests.
    polled.clear();
    for (auto& kv : sessions_) polled.push_back(kv.second);
    for (const SessionPtr& s : polled) {
      if (s->fd < 0) continue;
      FlushWrites(s);
      if (s->fd >= 0) ParseBuffered(s);
    }
    SweepTimeouts();
  }
}

void Server::SweepTimeouts() {
  if (sessions_.empty()) return;
  if (FaultPoint("srv_timeout")) {
    // Injected timeout: the sweep evicts one live connection as if it had
    // stalled — clients must treat it like any mid-flight disconnect.
    stats_.net_faults.Inc();
    stats_.evicted_stalled.Inc();
    CloseSession(sessions_.begin()->second, /*cancel_inflight=*/true);
    if (sessions_.empty()) return;
  }
  const int64_t now = exec::GovNowNs();
  const int64_t io_ns = opts_.io_idle_ms * 1000000;
  const int64_t idle_ns = opts_.idle_ms * 1000000;
  std::vector<SessionPtr> all;
  all.reserve(sessions_.size());
  for (auto& kv : sessions_) all.push_back(kv.second);
  for (const SessionPtr& s : all) {
    if (s->fd < 0) continue;
    bool has_out;
    bool has_inflight;
    {
      std::lock_guard<std::mutex> lock(s->mu);
      has_out = !s->out.empty();
      has_inflight = s->inflight != nullptr;
    }
    if (opts_.io_idle_ms > 0 && has_out && s->last_out_ns > 0 &&
        now - s->last_out_ns > io_ns) {
      // Rendered bytes the client will not read: a stalled writer holds
      // buffer memory for as long as we let it.
      stats_.evicted_stalled.Inc();
      CloseSession(s, /*cancel_inflight=*/true);
      continue;
    }
    if (opts_.io_idle_ms > 0 && !has_inflight && s->in_start_ns > 0 &&
        now - s->in_start_ns > io_ns) {
      // Slow loris: the *oldest unparsed byte* has aged out. A client
      // dribbling one byte per interval keeps last_in_ns fresh forever but
      // can never move in_start_ns without completing a request.
      stats_.evicted_stalled.Inc();
      CloseSession(s, /*cancel_inflight=*/true);
      continue;
    }
    if (opts_.idle_ms > 0 && !has_inflight && !has_out &&
        s->in_start_ns == 0) {
      int64_t last = s->accepted_ns;
      if (s->last_in_ns > last) last = s->last_in_ns;
      if (s->last_out_ns > last) last = s->last_out_ns;
      if (last > 0 && now - last > idle_ns) {
        stats_.evicted_idle.Inc();
        CloseSession(s, /*cancel_inflight=*/false);
      }
    }
  }
}

bool Server::MakeRoomForConnection() {
  if (sessions_.size() < static_cast<size_t>(opts_.max_conns)) return true;
  // At the ceiling: evict an idle keep-alive socket, LIFO by accept time —
  // the newest idle connection goes first, so long-established clients
  // keep their sockets while churny reconnectors recycle their own slots.
  SessionPtr victim;
  for (auto& kv : sessions_) {
    const SessionPtr& s = kv.second;
    bool busy;
    {
      std::lock_guard<std::mutex> lock(s->mu);
      busy = s->inflight != nullptr || !s->out.empty();
    }
    if (busy || !s->in.empty()) continue;
    if (victim == nullptr || s->accepted_ns > victim->accepted_ns) {
      victim = s;
    }
  }
  if (victim == nullptr) return false;
  stats_.conn_evicted.Inc();
  CloseSession(victim, /*cancel_inflight=*/false);
  return true;
}

void Server::AcceptNew() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept failure: back to poll
    }
    if (FaultPoint("srv_accept")) {
      // Injected accept-path failure: the connection is dropped cleanly,
      // the listener survives.
      stats_.net_faults.Inc();
      ::close(fd);
      continue;
    }
    if (!MakeRoomForConnection()) {
      // Ceiling reached and every socket is mid-request: refusing the new
      // connection sheds load at the cheapest possible point.
      stats_.conn_refused.Inc();
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto s = std::make_shared<Session>();
    s->fd = fd;
    s->accepted_ns = exec::GovNowNs();
    // Arm the stalled-writer clock from accept: a client whose very first
    // response write makes zero progress still ages out.
    s->last_out_ns = s->accepted_ns;
    sessions_[fd] = std::move(s);
    stats_.connections.Inc();
  }
}

void Server::HandleReadable(const SessionPtr& s) {
  if (FaultPoint("srv_read")) {
    // Injected socket-read failure == the peer vanished: tear the session
    // down, which cancels any in-flight query (kill-on-disconnect).
    stats_.net_faults.Inc();
    CloseSession(s, /*cancel_inflight=*/true);
    return;
  }
  char buf[16384];
  for (;;) {
    ssize_t n = ::recv(s->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      int64_t now = exec::GovNowNs();
      if (s->in.empty()) s->in_start_ns = now;
      s->last_in_ns = now;
      s->in.append(buf, static_cast<size_t>(n));
      // Hard inbound bound: past this point nothing in the buffer can be a
      // single legitimate request (every parser bound is smaller), so stop
      // reading — the flood check below closes the connection instead of
      // letting the buffer chase the sender.
      if (s->in.size() > kMaxRequestBytes) break;
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {  // EOF: client went away
      CloseSession(s, /*cancel_inflight=*/true);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseSession(s, /*cancel_inflight=*/true);
    return;
  }
  if (s->in.size() > kMaxRequestBytes) {
    stats_.bad_requests.Inc();
    RespondInline(s, RenderError(s->was_http, 431, "request_too_large"));
    CloseSession(s, /*cancel_inflight=*/true);
    return;
  }
  ParseBuffered(s);
}

void Server::ParseBuffered(const SessionPtr& s) {
  for (;;) {
    bool over_cap = false;
    {
      std::lock_guard<std::mutex> lock(s->mu);
      if (s->inflight != nullptr) {
        // One request executes at a time; pipelined bytes wait — but only
        // up to the cap. Counting newlines bounds the number of buffered
        // requests from below on both framings (every request contains at
        // least one), so a client can't park an unbounded backlog.
        size_t lines = 0;
        for (char c : s->in) lines += c == '\n';
        if (lines > static_cast<size_t>(opts_.pipeline_cap)) {
          stats_.pipeline_limited.Inc();
          s->out += RenderError(s->was_http, 429, "pipeline_limit");
          over_cap = true;
        } else {
          return;
        }
      }
    }
    if (over_cap) {
      FlushWrites(s);
      CloseSession(s, /*cancel_inflight=*/true);
      return;
    }
    ParsedRequest p = ParseRequest(s->in, kProtoLimits);
    if (p.kind == ParsedRequest::Kind::kNeedMore) {
      if (p.consumed == 0) return;
      s->in.erase(0, p.consumed);  // stray blank line
      if (s->in.empty()) s->in_start_ns = 0;
      continue;
    }
    s->in.erase(0, p.consumed);
    if (s->in.empty()) {
      s->in_start_ns = 0;
    } else {
      // Remaining pipelined bytes restart the slow-loris age clock.
      s->in_start_ns = exec::GovNowNs();
    }
    s->was_http = p.http;
    switch (p.kind) {
      case ParsedRequest::Kind::kBad: {
        stats_.bad_requests.Inc();
        RespondInline(s, RenderError(p.http, p.http_code, p.error.c_str()));
        if (p.must_close) {
          // The buffer holds an unframeable prefix (over-limit line,
          // header block, or body): nothing after it can be trusted, so
          // the connection must go.
          CloseSession(s, /*cancel_inflight=*/false);
          return;
        }
        break;
      }
      case ParsedRequest::Kind::kPing:
        RespondInline(s, "PONG\n");
        break;
      case ParsedRequest::Kind::kHealth: {
        ResponseMeta m;
        m.rows = 0;
        RespondInline(s, RenderResponse(p.http, m, "ok\n"));
        break;
      }
      case ParsedRequest::Kind::kMetrics: {
        ResponseMeta m;
        m.rows = 0;
        m.content_type = "text/plain; version=0.0.4";
        RespondInline(s, RenderResponse(p.http, m, RenderMetricsText()));
        break;
      }
      case ParsedRequest::Kind::kCancel:
        HandleCancel(s, p);
        break;
      case ParsedRequest::Kind::kTrace: {
        std::string json;
        if (!GetTrace(p.trace_id, &json)) {
          RespondInline(s, RenderError(p.http, 404, "not_found"));
          break;
        }
        ResponseMeta m;
        m.rows = 0;
        m.content_type = "application/json";
        RespondInline(s, RenderResponse(p.http, m, json + "\n"));
        break;
      }
      case ParsedRequest::Kind::kBlock:
        if (!opts_.debug_endpoints) {
          stats_.bad_requests.Inc();
          RespondInline(s, RenderError(p.http, 404, "not_found"));
          break;
        }
        AdmitQuery(s, p);
        break;
      case ParsedRequest::Kind::kQuery:
        AdmitQuery(s, p);
        break;
      case ParsedRequest::Kind::kNeedMore:
        return;  // unreachable
    }
    if (s->fd < 0) return;  // closed while responding
  }
}

void Server::AdmitQuery(const SessionPtr& s, const ParsedRequest& p) {
  stats_.requests.Inc();
  if (draining_.load(std::memory_order_relaxed)) {
    stats_.shed_draining.Inc();
    RespondInline(s, RenderError(p.http, 503, "draining"));
    return;
  }
  if (FaultPoint("srv_queue")) {
    // Injected admission failure: handled exactly like a full queue.
    stats_.net_faults.Inc();
    stats_.shed_queue_full.Inc();
    RespondInline(s, RenderError(p.http, 503, "overloaded"));
    return;
  }

  auto req = std::make_shared<Request>();
  req->kind = p.kind == ParsedRequest::Kind::kBlock ? Request::Kind::kBlock
                                                    : Request::Kind::kQuery;
  req->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  req->query = p.query;
  req->level = p.level > 0 ? p.level : opts_.level;
  req->want_jit = p.engine == -1 ? opts_.default_jit : (p.engine == 1);
  req->block_ms = p.block_ms < 0 ? 0 : p.block_ms;
  req->http = p.http;
  req->trace = p.trace;
  req->client = p.client;
  req->session = s;

  // Deadlines and budgets by default: an absent or out-of-cap parameter
  // becomes the server-wide cap, so no admitted request can ever run or
  // allocate unboundedly.
  int64_t now = exec::GovNowNs();
  int64_t dl_ms = p.deadline_ms;
  if (dl_ms <= 0 || dl_ms > opts_.max_deadline_ms) dl_ms = opts_.max_deadline_ms;
  req->deadline_abs_ns = now + dl_ms * 1000000;
  int64_t q_ms = opts_.queue_deadline_ms < dl_ms ? opts_.queue_deadline_ms
                                                 : dl_ms;
  req->queue_deadline_ns = now + q_ms * 1000000;
  req->admitted_ns = now;
  int64_t mem_mb = p.mem_mb;
  if (mem_mb <= 0 || mem_mb > opts_.max_mem_mb) mem_mb = opts_.max_mem_mb;
  req->mem_budget_bytes = mem_mb << 20;

  {
    std::lock_guard<std::mutex> lock(s->mu);
    s->inflight = req;
  }
  // Register BEFORE pushing: the moment TryPush succeeds a worker may pop,
  // finish, and TryFinalize — which must find the registry entry or the
  // exactly-once accounting (and the client's inflight slot) leaks.
  active_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    outstanding_[req->id] = req;
  }
  if (!p.http && p.ack) {
    // Line-protocol early acknowledgement: the id goes into the outbound
    // buffer BEFORE the queue push so it always precedes the response a
    // fast worker might render — the client can CANCEL a request it is
    // still waiting on. (A shed lands right after the ID line.)
    char line[32];
    int n = std::snprintf(line, sizeof(line), "ID %llu\n",
                          static_cast<unsigned long long>(req->id));
    std::lock_guard<std::mutex> lock(s->mu);
    if (!s->closed) s->out.append(line, static_cast<size_t>(n));
  }
  FairAdmissionQueue::Admit verdict = queue_.TryPush(req);
  if (verdict != FairAdmissionQueue::Admit::kAdmitted) {
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      outstanding_.erase(req->id);
    }
    active_.fetch_sub(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(s->mu);
      s->inflight = nullptr;
    }
    // Quota sheds are the client's own doing and answer 429 "quota";
    // global overload keeps the historical 503 "overloaded".
    switch (verdict) {
      case FairAdmissionQueue::Admit::kQuotaShed:
        stats_.shed_quota.Inc();
        RespondInline(s, RenderError(p.http, 429, "quota"));
        break;
      case FairAdmissionQueue::Admit::kClientQueueFull:
        stats_.shed_client_queue.Inc();
        RespondInline(s, RenderError(p.http, 429, "quota"));
        break;
      default:
        stats_.shed_queue_full.Inc();
        RespondInline(s, RenderError(p.http, 503, "overloaded"));
        break;
    }
    return;
  }
  if (!p.http && p.ack) FlushWrites(s);
}

void Server::HandleCancel(const SessionPtr& s, const ParsedRequest& p) {
  if (FaultPoint("srv_cancel")) {
    // Injected cancel-path failure: the control plane refuses, the target
    // request keeps running — cancel must be safe to retry.
    stats_.net_faults.Inc();
    RespondInline(s, RenderError(p.http, 503, "cancel_failed"));
    return;
  }
  RequestPtr target;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    auto it = outstanding_.find(p.cancel_id);
    if (it != outstanding_.end()) target = it->second;
  }
  if (target == nullptr) {
    // Unknown, already finished, or never admitted: idempotent 404.
    RespondInline(s, RenderError(p.http, 404, "not_found"));
    return;
  }
  stats_.cancels_by_id.Inc();
  target->Kill();
  if (RequestPtr queued = queue_.Remove(p.cancel_id)) {
    // Still queued: shed immediately instead of waiting for a worker to
    // pop it. Respond() routes through TryFinalize, so a worker that
    // raced us into popping wins and this path becomes a no-op.
    stats_.failed_cancelled.Inc();
    Respond(queued, RenderError(queued->http, 499, "cancelled", queued->id));
  }
  ResponseMeta m;
  m.rows = 0;
  m.request_id = p.cancel_id;
  RespondInline(s, RenderResponse(p.http, m, "cancelled\n"));
}

std::string Server::RenderMetricsText() {
  std::string out = stats_.ToPrometheus();
  auto clients = queue_.SnapshotClients();
  if (clients.empty()) return out;
  // The registry is label-free by design; the per-client families are the
  // one labeled surface and are rendered here from the queue's snapshot.
  auto emit = [&](const char* name, const char* help, const char* type,
                  auto field) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
    char line[256];
    for (const auto& c : clients) {
      std::snprintf(line, sizeof(line), "%s{client=\"%s\"} %lld\n", name,
                    c.name.empty() ? "anon" : c.name.c_str(),
                    static_cast<long long>(field(c)));
      out += line;
    }
  };
  using CS = FairAdmissionQueue::ClientSample;
  emit("qc_server_client_admitted_total", "Admitted requests per client.",
       "counter", [](const CS& c) { return static_cast<int64_t>(c.admitted); });
  emit("qc_server_client_done_total",
       "Finalized requests per client (any outcome).", "counter",
       [](const CS& c) { return static_cast<int64_t>(c.done); });
  emit("qc_server_client_shed_quota_total",
       "Quota sheds (token bucket + per-client queue bound) per client.",
       "counter",
       [](const CS& c) { return static_cast<int64_t>(c.shed_quota); });
  emit("qc_server_client_shed_queue_total",
       "Global-capacity sheds charged per client.", "counter",
       [](const CS& c) { return static_cast<int64_t>(c.shed_queue); });
  emit("qc_server_client_inflight", "Requests currently popped per client.",
       "gauge", [](const CS& c) { return static_cast<int64_t>(c.inflight); });
  emit("qc_server_client_queued", "Requests currently queued per client.",
       "gauge", [](const CS& c) { return static_cast<int64_t>(c.queued); });
  return out;
}

void Server::RespondInline(const SessionPtr& s, std::string wire) {
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->closed) return;
    s->out += wire;
  }
  FlushWrites(s);
}

void Server::FlushWrites(const SessionPtr& s) {
  std::string pending;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->out.empty()) return;
    pending.swap(s->out);
  }
  if (FaultPoint("srv_write")) {
    stats_.net_faults.Inc();
    CloseSession(s, /*cancel_inflight=*/true);
    return;
  }
  const char* p = pending.data();
  size_t left = pending.size();
  while (left > 0) {
    ssize_t n = ::send(s->fd, p, left, MSG_NOSIGNAL);
    if (n > 0) {
      p += n;
      left -= static_cast<size_t>(n);
      // Any forward progress resets the stalled-writer clock; only a
      // client accepting zero bytes for io_idle_ms gets evicted.
      s->last_out_ns = exec::GovNowNs();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Slow client: requeue the remainder IN FRONT of anything a worker
      // appended meanwhile, poll for POLLOUT.
      std::lock_guard<std::mutex> lock(s->mu);
      s->out.insert(0, p, left);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseSession(s, /*cancel_inflight=*/true);
    return;
  }
}

// `s` by value: a caller's reference may be into the entry erased below.
void Server::CloseSession(SessionPtr s, bool cancel_inflight) {
  RequestPtr inflight;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->closed) return;
    s->closed = true;
    inflight = std::move(s->inflight);
    s->inflight = nullptr;
    s->out.clear();
  }
  if (inflight != nullptr && cancel_inflight) {
    // Kill-on-disconnect: the client is gone, stop paying for its query.
    inflight->Kill();
    stats_.disconnect_cancels.Inc();
  }
  if (s->fd >= 0) {
    sessions_.erase(s->fd);
    ::close(s->fd);
    s->fd = -1;
  }
}

// ---------------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------------

void Server::WorkerMain(Worker* w) {
  while (RequestPtr req = queue_.Pop()) {
    int64_t now = exec::GovNowNs();
    if (req->aborted.load(std::memory_order_relaxed)) {
      // Killed while queued (disconnect, drain, or cancel-by-id): answer
      // cancelled — TryFinalize drops this quietly if a cancel-by-id
      // already finalized the request.
      stats_.failed_cancelled.Inc();
      Respond(req, RenderError(req->http, 499, "cancelled", req->id));
      continue;
    }
    if (now > req->queue_deadline_ns) {
      // Admitted but waited too long: shedding now is cheaper than running
      // a query whose client has likely timed out.
      stats_.shed_queue_deadline.Inc();
      Respond(req, RenderError(req->http, 503, "queue_deadline", req->id));
      continue;
    }
    if (req->kind == Request::Kind::kBlock) {
      ExecuteBlock(req);
    } else {
      Execute(w, req);
    }
  }
}

void Server::Execute(Worker* w, const RequestPtr& req) {
  const int64_t t0 = exec::GovNowNs();
  // ?trace=1: a per-request capture session wraps the plan lookup (so a
  // cold plan records parse/lower spans) and every execution attempt; the
  // rendered Chrome trace is stored under the request id for
  // /debug/trace/<id>.
  uint64_t trace_session = req->trace ? telemetry::TraceBeginSession() : 0;

  std::string err;
  const exec::Program* prog;
  {
    telemetry::TraceScope ts(trace_session);
    prog = plans_.Get(req->query, req->level, &err);
  }
  if (prog == nullptr) {
    if (trace_session != 0) telemetry::TraceEndSession(trace_session);
    stats_.bad_requests.Inc();
    Respond(req, RenderError(req->http, 500, "compile_failed", req->id));
    return;
  }
  // The degradation ladder is a per-run choice on the worker's one
  // Interpreter: jit@T, vm@T (level 1), vm@1 (level 2).
  const int downshift = downshift_level();
  const bool jit = req->want_jit && downshift < 1;
  exec::InterpOptions run;
  run.engine = jit ? exec::InterpOptions::Engine::kJit
                   : exec::InterpOptions::Engine::kBytecode;
  run.num_threads = downshift >= 2 ? 1 : opts_.query_threads;
  run.control = &req->control;

  RetryPolicy retry(opts_.seed ^ (req->id * 0x9e3779b97f4a7c15ULL),
                    opts_.max_retries, opts_.retry_base_ms,
                    opts_.retry_max_ms);
  storage::ResultTable result;
  exec::QueryStatus st;
  for (;;) {
    req->control.deadline_ns.store(req->deadline_abs_ns,
                                   std::memory_order_relaxed);
    req->control.memory_budget_bytes = req->mem_budget_bytes;
    {
      telemetry::TraceScope ts(trace_session);
      result = w->interp.Run(*prog, run);
    }
    st = w->interp.last_status();
    if (jit && w->interp.last_jit_stats().fallback_reason != 0) {
      // The JIT degraded under us (denied code pages, fault injection):
      // results are still exact on the VM, but new admissions stop asking
      // for native code until the server recovers.
      stats_.jit_fallbacks.Inc();
      int64_t cur = 0;
      if (stats_.downshift_level.compare_exchange_strong(
              cur, 1, std::memory_order_relaxed)) {
        telemetry::Log(telemetry::LogLevel::kWarn, "downshift",
                       {{"level", 1}, {"reason", "jit_fallback"},
                        {"request", static_cast<unsigned long long>(
                                        req->id)}});
      }
    }
    if (st.ok() || st.code != exec::QueryStatusCode::kResourceFailure) break;
    int64_t delay_ms = 0;
    if (req->aborted.load(std::memory_order_relaxed) ||
        !retry.ShouldRetry(req->deadline_abs_ns, &delay_ms)) {
      break;
    }
    stats_.retries.Inc();
    telemetry::Log(telemetry::LogLevel::kInfo, "retry",
                   {{"request", static_cast<unsigned long long>(req->id)},
                    {"attempt", retry.attempts()},
                    {"delay_ms", static_cast<long long>(delay_ms)}});
    // Jittered backoff, interruptible by disconnect/drain kills.
    int64_t until = exec::GovNowNs() + delay_ms * 1000000;
    while (exec::GovNowNs() < until &&
           !req->aborted.load(std::memory_order_relaxed)) {
      SleepMs(1);
    }
  }
  NoteOutcome(st.code);
  stats_.request_ms.Observe(
      static_cast<double>(exec::GovNowNs() - t0) / 1e6);

  ResponseMeta meta = MapStatus(st.code);
  meta.retries = retry.attempts();
  meta.downshift = downshift;
  meta.engine = jit ? "jit" : "vm";
  meta.request_id = req->id;
  if (trace_session != 0) {
    StoreTrace(req->id, telemetry::TraceEndSession(trace_session));
    meta.trace_id = req->id;
  }
  std::string body;
  if (st.ok()) {
    meta.rows = static_cast<int64_t>(result.size());
    body = RenderRows(result);
  } else {
    meta.rows = 0;
    body = std::string(meta.status) + "\n";
  }
  Respond(req, RenderResponse(req->http, meta, body));
}

void Server::ExecuteBlock(const RequestPtr& req) {
  // Deterministic worker occupancy for tests: a governed cancellable wait
  // that honors exactly the contract queries do — deadline and cancel trip
  // within ~1ms instead of one safepoint interval.
  exec::ExecControl& ctl = req->control;
  ctl.BeginRun();
  const int64_t end = exec::GovNowNs() + req->block_ms * 1000000;
  for (;;) {
    if (ctl.cancel.load(std::memory_order_relaxed)) {
      ctl.Trip(exec::QueryStatusCode::kCancelled);
      break;
    }
    if (req->deadline_abs_ns != 0 && exec::GovNowNs() >= req->deadline_abs_ns) {
      ctl.Trip(exec::QueryStatusCode::kDeadlineExceeded);
      break;
    }
    if (exec::GovNowNs() >= end) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  exec::QueryStatus st = ctl.status();
  NoteOutcome(st.code);
  ResponseMeta meta = MapStatus(st.code);
  meta.rows = 0;
  meta.request_id = req->id;
  std::string body = st.ok() ? "blocked\n" : std::string(meta.status) + "\n";
  Respond(req, RenderResponse(req->http, meta, body));
}

void Server::NoteOutcome(exec::QueryStatusCode code) {
  switch (code) {
    case exec::QueryStatusCode::kOk: {
      stats_.ok.Inc();
      // Recovery: enough consecutive healthy runs step the downshift
      // ladder back toward full service.
      int streak = ok_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (streak >= opts_.recover_ok) {
        int64_t cur = stats_.downshift_level.load(std::memory_order_relaxed);
        if (cur > 0 && stats_.downshift_level.compare_exchange_strong(
                           cur, cur - 1, std::memory_order_relaxed)) {
          ok_streak_.store(0, std::memory_order_relaxed);
          telemetry::Log(telemetry::LogLevel::kInfo, "recover",
                         {{"level", static_cast<long long>(cur - 1)},
                          {"ok_streak", streak}});
        }
      }
      return;
    }
    case exec::QueryStatusCode::kDeadlineExceeded:
      stats_.failed_deadline.Inc();
      return;
    case exec::QueryStatusCode::kCancelled:
      stats_.failed_cancelled.Inc();
      return;
    case exec::QueryStatusCode::kMemoryBudget:
      stats_.failed_memory.Inc();
      return;
    case exec::QueryStatusCode::kResourceFailure: {
      stats_.failed_resource.Inc();
      // Retries exhausted on a resource fault: downshift new admissions
      // (graceful degradation) and restart the recovery streak.
      ok_streak_.store(0, std::memory_order_relaxed);
      int64_t cur = stats_.downshift_level.load(std::memory_order_relaxed);
      while (cur < 2 && !stats_.downshift_level.compare_exchange_weak(
                            cur, cur + 1, std::memory_order_relaxed)) {
      }
      if (cur < 2) {
        stats_.downshifts.Inc();
        telemetry::Log(telemetry::LogLevel::kWarn, "downshift",
                       {{"level", static_cast<long long>(cur + 1)},
                        {"reason", "resource_failure"}});
      }
      return;
    }
  }
}

void Server::StoreTrace(uint64_t id, std::string json) {
  std::lock_guard<std::mutex> lock(trace_mu_);
  if (traces_.count(id) == 0) trace_order_.push_back(id);
  traces_[id] = std::move(json);
  while (trace_order_.size() > kMaxStoredTraces) {
    traces_.erase(trace_order_.front());
    trace_order_.pop_front();
  }
}

bool Server::GetTrace(uint64_t id, std::string* out) {
  std::lock_guard<std::mutex> lock(trace_mu_);
  auto it = traces_.find(id);
  if (it == traces_.end()) return false;
  *out = it->second;
  return true;
}

bool Server::TryFinalize(const RequestPtr& req) {
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    if (outstanding_.erase(req->id) == 0) return false;
  }
  queue_.OnFinished(req);
  active_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void Server::Respond(const RequestPtr& req, std::string wire) {
  // Exactly-once: a request can reach here from its worker AND from a
  // cancel-by-id that shed it while queued; whoever erases the registry
  // entry first owns the response, the loser drops out silently.
  if (!TryFinalize(req)) return;
  SessionPtr s = req->session;
  if (s != nullptr) {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->inflight == req) s->inflight = nullptr;
    if (!s->closed) s->out += wire;
  }
  Wake();
}

}  // namespace qc::server
