// qc_serve: a long-lived query-serving daemon over shared immutable TPC-H
// storage — ROADMAP item 2, built robustness-first on the PR 6 governance
// layer. One poll()-based event-loop thread multiplexes every client
// connection (HTTP/1.1 GET + line protocol, auto-detected); N worker
// threads execute admitted queries, each with its own exec::Interpreter
// (and WorkerPool when per-query threads > 1) against the shared database.
// Every worker runs the same immutable exec::Program per (query, level),
// built once by the cross-session compiled-plan cache.
//
// The robustness envelope, end to end:
//   * admission control  — bounded queue; full => immediate 503
//     "overloaded"; a request whose queue deadline expires before a worker
//     picks it up is shed with "queue_deadline" (server/admission.h);
//   * deadlines/budgets by default — every request's ExecControl gets a
//     deadline and memory budget clamped by QC_SERVE_MAX_DEADLINE_MS /
//     QC_SERVE_MAX_MEM_MB; unspecified means the cap, never unlimited;
//   * kill-on-disconnect — EOF/error on the client socket cancels the
//     session's in-flight control; the query unwinds within one safepoint
//     interval and the worker is free again;
//   * retry with jittered exponential backoff — transient kResourceFailure
//     trips re-run (immutable storage makes this idempotent), bounded by
//     ServerOptions::max_retries and the request's remaining deadline
//     (server/retry.h);
//   * graceful degradation — exhausted resource retries and JIT fallbacks
//     raise a server-wide downshift level (1: new admissions run the VM
//     engine instead of the JIT; 2: also single-threaded); sustained
//     successes step it back down. The level picks each run's {engine,
//     threads} — jit@T, vm@T, vm@1 — on the worker's one Interpreter.
//     Reported per response (X-QC-Downshift) and in /metrics;
//   * graceful drain — BeginDrain() (SIGTERM in the binary) stops
//     admissions, Drain() waits for in-flight work up to
//     QC_SERVE_DRAIN_MS, then cancels stragglers through their controls;
//     the process exits 0;
//   * multi-tenant fairness — requests carry an optional client id
//     (X-QC-Client / client=) into a weighted-fair admission queue with
//     per-client token-bucket quotas, queue bounds, and inflight caps
//     (server/admission.h); quota sheds answer 429 "quota", distinct from
//     the 503 overload path;
//   * cancel-by-id — every admitted request's id is returned to the client
//     (X-QC-Request-Id / id=); POST /cancel/<id> or CANCEL <id> trips that
//     request's ExecControl: queued work sheds immediately, running work
//     unwinds within one safepoint interval, and finalization stays
//     exactly-once through the outstanding-request registry;
//   * connection hardening — per-connection read/write stall and idle
//     timeouts swept from the poll() loop (slow-loris eviction), bounded
//     request-line/header/body buffers (414/431/413), a per-connection
//     pipelining cap, and a global connection ceiling with LIFO eviction
//     of idle keep-alive sockets.
//
// Faults: the srv_accept / srv_read / srv_write / srv_queue / srv_timeout /
// srv_cancel QC_FAULT sites make every network edge chaos-testable
// alongside the execution-side sites (common/fault.h).
#ifndef QC_SERVER_SERVER_H_
#define QC_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/interp.h"
#include "server/admission.h"
#include "server/plan_cache.h"
#include "server/session.h"
#include "storage/database.h"
#include "telemetry/metrics.h"

namespace qc::server {

struct ServerOptions {
  int port = 0;                    // 0 = ephemeral (read back via port())
  int workers = 2;                 // executing worker threads
  int query_threads = 1;           // morsel threads per query (downshiftable)
  int queue_capacity = 64;         // admission queue bound
  int64_t max_deadline_ms = 10000; // cap AND default run deadline
  int64_t queue_deadline_ms = 1000;  // cap AND default queue-wait deadline
  int64_t max_mem_mb = 256;        // cap AND default per-query memory budget
  int max_retries = 2;             // resource-failure retry attempts
  int64_t retry_base_ms = 1;
  int64_t retry_max_ms = 100;
  int64_t drain_deadline_ms = 2000;
  int recover_ok = 32;             // ok runs per downshift-level step-down
  int level = 5;                   // default stack level
  bool default_jit = true;         // engine when the request names none
  bool debug_endpoints = false;    // /debug/block (tests, chaos CI)
  uint64_t seed = 42;              // retry-jitter seed

  // Multi-tenant fairness (0 = unlimited; quotas are per client id).
  double client_qps = 0;       // token-bucket admissions/sec per client
  int client_inflight = 0;     // popped-but-unfinished cap per client
  int client_queue = 0;        // queued-request bound per client

  // Connection hardening.
  int64_t idle_ms = 60000;     // evict keep-alive sockets idle this long
  int64_t io_idle_ms = 10000;  // stalled read (slow loris) / write eviction
  int pipeline_cap = 16;       // buffered pipelined requests per connection
  int max_conns = 1024;        // global connection ceiling

  // QC_SERVE_* rows of QC_KNOB_LIST; the fields above without one are
  // fixed (requests carry level=/engine=, QC_JIT_DISABLE forces the VM).
  static ServerOptions FromEnv();
};

// Every server counter, one row each: X(member, help). The row generates
// the ServerStats reference member and its registration as the Prometheus
// family qc_server_<member>_total, so a counter is declared exactly once.
#define QC_SERVER_COUNTER_LIST(X)                                            \
  X(connections, "Accepted client connections.")                             \
  X(requests, "Admission attempts (query + block).")                         \
  X(ok, "Requests that finished with status ok.")                            \
  X(bad_requests, "Malformed, unroutable, or uncompilable requests.")        \
  X(shed_queue_full, "Requests shed because the admission queue was full.")  \
  X(shed_queue_deadline,                                                     \
    "Requests shed after waiting out their queue deadline.")                 \
  X(shed_draining, "Requests refused because the server was draining.")      \
  X(failed_deadline, "Runs tripped by their execution deadline.")            \
  X(failed_cancelled, "Runs cancelled (disconnect, drain kill).")            \
  X(failed_memory, "Runs tripped by their memory budget.")                   \
  X(failed_resource, "Runs that exhausted retries on resource failures.")    \
  X(retries, "Resource-failure retry attempts.")                             \
  X(downshifts, "Degradation-ladder step-ups (jit->vm->single-thread).")     \
  X(disconnect_cancels, "In-flight queries killed by client disconnect.")    \
  X(drain_kills, "Stragglers cancelled at the drain deadline.")              \
  X(jit_fallbacks, "Requests whose JIT degraded to the VM mid-serve.")       \
  X(net_faults, "Injected srv_* fault firings.")                             \
  X(shed_quota, "Requests shed by a per-client token-bucket quota.")         \
  X(shed_client_queue, "Requests shed by a per-client queue bound.")         \
  X(cancels_by_id, "Accepted cancel-by-id requests (POST /cancel, CANCEL).") \
  X(evicted_idle, "Idle keep-alive connections evicted by the timeout sweep.") \
  X(evicted_stalled,                                                         \
    "Connections evicted for a stalled read (slow loris) or write.")         \
  X(pipeline_limited, "Connections closed for exceeding the pipelining cap.") \
  X(conn_evicted, "Idle connections LIFO-evicted at the connection ceiling.") \
  X(conn_refused,                                                            \
    "Connections refused at the ceiling with no evictable socket.")

// Monotonic counters, all relaxed: exactness across threads matters less
// than never synchronizing on the hot path. Every metric lives in the
// server's own telemetry registry and is exported by /metrics; the
// reference members keep `stats().ok.load()`-style call sites working.
struct ServerStats {
  telemetry::MetricsRegistry registry;  // must precede the references

#define QC_SERVER_COUNTER_MEMBER(member, help) telemetry::Counter& member;
  QC_SERVER_COUNTER_LIST(QC_SERVER_COUNTER_MEMBER)
#undef QC_SERVER_COUNTER_MEMBER
  telemetry::Gauge& downshift_level;  // 0..2 degradation ladder
  telemetry::Histogram& request_ms;   // end-to-end worker latency

  ServerStats();

  telemetry::MetricsSnapshot Snapshot() const { return registry.Snapshot(); }
  std::string ToPrometheus() const;  // server + process-global families
};

class Server {
 public:
  // `db` must outlive the server and is treated as immutable shared
  // storage (lazy dictionary/index builds are serialized by the plan
  // cache's compile lock).
  Server(storage::Database* db, ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds + listens + spawns the event loop and workers. False (with
  // stderr detail) when the socket setup fails.
  bool Start();

  // The bound port (valid after Start; useful with port = 0).
  int port() const { return port_; }

  // Stops admissions: listening socket closes, queued-but-unstarted and
  // newly parsed requests answer 503 "draining". Idempotent, non-blocking.
  void BeginDrain();

  // BeginDrain + wait for in-flight work up to drain_deadline_ms, then
  // cancel stragglers via their ExecControls and wait for the unwind.
  // Returns true when everything finished before the deadline (no
  // stragglers had to be killed).
  bool Drain();

  // Full shutdown: Drain(), then stop and join workers and the event
  // loop, closing every session. Safe to call twice.
  void Stop();

  // Pre-compiles every query at the default level, stitching its JIT
  // image too when the JIT is the default engine (the binary calls this
  // after Start so the port is health-checkable during warm-up; requests
  // arriving mid-warm just wait on the compile lock).
  void WarmPlans() { plans_.Warm(opts_.level, opts_.default_jit); }

  const ServerStats& stats() const { return stats_; }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  int downshift_level() const {
    return static_cast<int>(
        stats_.downshift_level.load(std::memory_order_relaxed));
  }

 private:
  // One executing thread and its run state: every rung of the degradation
  // ladder runs on the one Interpreter, so a worker owns at most one pool.
  struct Worker {
    explicit Worker(storage::Database* db) : interp(db) {}
    std::thread thread;
    exec::Interpreter interp;
  };

  void EventLoop();
  void WorkerMain(Worker* w);

  // --- event-loop internals (loop thread only) ---------------------------
  void AcceptNew();
  void HandleReadable(const SessionPtr& s);
  void ParseBuffered(const SessionPtr& s);
  void FlushWrites(const SessionPtr& s);
  void CloseSession(SessionPtr s, bool cancel_inflight);
  void RespondInline(const SessionPtr& s, std::string wire);
  void AdmitQuery(const SessionPtr& s, const struct ParsedRequest& p);
  void HandleCancel(const SessionPtr& s, const struct ParsedRequest& p);
  // Evicts stalled writers, slow-loris readers, and idle keep-alive
  // sockets; runs every poll() wakeup.
  void SweepTimeouts();
  // Connection-ceiling enforcement: true when the new fd may be kept
  // (possibly after LIFO-evicting an idle session), false = refuse.
  bool MakeRoomForConnection();

  // Renders the /metrics exposition: the registry snapshot plus the
  // hand-labeled qc_server_client_* families (the registry itself is
  // label-free).
  std::string RenderMetricsText();

  // --- worker internals ---------------------------------------------------
  void Execute(Worker* w, const RequestPtr& req);
  void ExecuteBlock(const RequestPtr& req);
  void Respond(const RequestPtr& req, std::string wire);
  // Exactly-once finalization: erases the request from the outstanding
  // registry (false when already finalized), releases its admission-queue
  // inflight slot, and decrements active_.
  bool TryFinalize(const RequestPtr& req);
  void NoteOutcome(exec::QueryStatusCode code);

  // Bounded store of per-request trace JSON (?trace=1): the newest
  // kMaxStoredTraces live at /debug/trace/<id>, older ones are evicted.
  void StoreTrace(uint64_t id, std::string json);
  bool GetTrace(uint64_t id, std::string* out);

  void Wake();

  storage::Database* db_;
  ServerOptions opts_;
  ServerStats stats_;
  PlanCache plans_;
  FairAdmissionQueue queue_;

  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  int port_ = 0;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};        // requests currently on a worker
  std::atomic<int> ok_streak_{0};     // consecutive ok runs (recovery)
  std::atomic<uint64_t> next_id_{1};

  std::thread loop_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::map<int, SessionPtr> sessions_;  // loop thread only
  // Every admitted-but-unfinished request, so the drain straggler kill can
  // cancel queued AND executing work through one registry.
  std::mutex reg_mu_;
  std::map<uint64_t, RequestPtr> outstanding_;
  static constexpr size_t kMaxStoredTraces = 16;
  std::mutex trace_mu_;
  std::map<uint64_t, std::string> traces_;
  std::deque<uint64_t> trace_order_;  // eviction order (FIFO)
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace qc::server

#endif  // QC_SERVER_SERVER_H_
