// Fair admission queue: the server's load-shedding point, now per-tenant.
//
// Admission control is deliberately *pushback at the edge* rather than
// unbounded buffering: when a bound trips the event loop answers the client
// immediately (TryPush never blocks), so overload costs each shed request
// one parse + one small write instead of memory and a growing tail latency.
// PR 9 replaces the single FIFO with per-client sub-queues so no tenant can
// starve another:
//
//   * every request carries a client id ("" = anonymous) and lands in that
//     client's own deque;
//   * workers Pop() round-robin across clients with queued work — a client
//     with 50 queued requests and a client with 1 alternate, so the light
//     client's queue wait is bounded by the number of *clients* ahead of
//     it, not the number of *requests*;
//   * three bounds shed at push time, each with a distinct structured
//     status: the global capacity (503 "overloaded", unchanged), a
//     per-client queue bound (429 "quota"), and a per-client token-bucket
//     rate (429 "quota");
//   * a per-client max-inflight cap *defers* rather than sheds: Pop() skips
//     clients at their cap and returns their work once OnFinished() frees a
//     slot.
//
// Per-request queue deadlines still catch the other overload shape —
// requests that were admitted but waited too long to be worth running (the
// worker pops them and sheds with `queue_deadline`).
#ifndef QC_SERVER_ADMISSION_H_
#define QC_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "server/session.h"

namespace qc::server {

class FairAdmissionQueue {
 public:
  struct Limits {
    size_t capacity = 64;      // global bound (503 "overloaded")
    size_t client_queue = 0;   // per-client queued bound, 0 = unlimited
    double client_qps = 0;     // per-client token-bucket rate, 0 = unlimited
    int client_inflight = 0;   // per-client popped-but-unfinished cap, 0 = ∞
  };

  enum class Admit {
    kAdmitted,
    kQueueFull,        // global capacity: 503 "overloaded"
    kQuotaShed,        // token bucket empty: 429 "quota"
    kClientQueueFull,  // per-client queue bound: 429 "quota"
  };

  // One client's counters + instantaneous state, for /metrics.
  struct ClientSample {
    std::string name;  // "" rendered as "anon" by the caller
    uint64_t admitted = 0;
    uint64_t done = 0;        // finalized (any outcome) after admission
    uint64_t shed_quota = 0;  // token-bucket + per-client-queue sheds
    uint64_t shed_queue = 0;  // global-capacity sheds charged to this client
    int inflight = 0;
    size_t queued = 0;
  };

  explicit FairAdmissionQueue(Limits limits);

  // Non-blocking; on anything but kAdmitted the caller sheds the request.
  // May rewrite r->client (distinct-client overflow folds into anonymous).
  Admit TryPush(RequestPtr r);

  // Blocks for the next runnable request, round-robin across clients and
  // skipping clients at their inflight cap (once closed the cap is ignored
  // so shutdown can never strand queued work); nullptr once the queue is
  // closed and drained (worker shutdown signal). Marks the result popped
  // and charges the client's inflight slot.
  RequestPtr Pop();

  // Extracts a still-queued request by id (cancel-by-id of queued work);
  // nullptr when the id is not queued here (already popped or unknown).
  RequestPtr Remove(uint64_t id);

  // Releases the per-client inflight slot (if the request was popped) and
  // counts the finalization. Must be called exactly once per admitted
  // request — the server routes this through its exactly-once registry.
  void OnFinished(const RequestPtr& r);

  // Removes everything still queued (the drain-deadline straggler flush).
  std::vector<RequestPtr> TakeAll();

  void Close();

  size_t size() const;

  std::vector<ClientSample> SnapshotClients() const;

 private:
  struct ClientState {
    std::deque<RequestPtr> q;
    double tokens = 0;
    int64_t last_refill_ns = 0;
    int inflight = 0;
    uint64_t admitted = 0;
    uint64_t done = 0;
    uint64_t shed_quota = 0;
    uint64_t shed_queue = 0;
  };

  // Most clients the queue keys separately; beyond this, new names fold
  // into the anonymous bucket so a client-id flood cannot grow the map.
  static constexpr size_t kMaxClients = 256;

  ClientState& StateFor(RequestPtr& r);  // may fold r->client; mu_ held
  bool PoppableLocked() const;

  const Limits limits_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, ClientState> clients_;
  std::string rr_last_;  // round-robin cursor: scan starts after this name
  size_t total_ = 0;     // queued across all clients
  bool closed_ = false;
};

}  // namespace qc::server

#endif  // QC_SERVER_ADMISSION_H_
