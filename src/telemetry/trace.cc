#include "telemetry/trace.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/knobs.h"
#include "telemetry/log.h"

namespace qc {
namespace telemetry {

namespace {

struct TraceEvent {
  uint64_t session = 0;  // 0 = empty slot / already collected
  const char* name = nullptr;
  const char* cat = nullptr;
  int64_t ts = 0;
  int64_t dur = 0;
  const char* a0_key = nullptr;
  int64_t a0 = 0;
  const char* a1_key = nullptr;
  int64_t a1 = 0;
};

// Per-thread ring. The mutex is only contended by a collector draining a
// finished session; the owning thread takes it uncontended per recorded
// event, and recording only happens while a session is active.
struct TraceRing {
  std::mutex mu;
  std::vector<TraceEvent> ev;
  size_t pos = 0;
  // Drain bounds (both under mu): a collector scans only the slots ever
  // written, and skips the ring outright when it never recorded a session
  // as new as the one being drained. Without these, every TraceEndSession
  // walks full capacity (640KB/ring) across every ring ever created —
  // enough cache traffic to perturb the very runs being traced.
  size_t filled = 0;
  uint64_t newest_session = 0;
  int tid = 0;
};

std::mutex g_rings_mu;
// Rings are intentionally leaked (owned by this registry, reachable until
// process exit) so a session can be collected after its worker threads
// have exited.
std::vector<TraceRing*>& Rings() {
  static std::vector<TraceRing*>* r = new std::vector<TraceRing*>();
  return *r;
}

std::atomic<int> g_active_sessions{0};
std::atomic<uint64_t> g_next_session{1};
std::mutex g_sessions_mu;
std::unordered_set<uint64_t>& OpenSessions() {
  static std::unordered_set<uint64_t>* s = new std::unordered_set<uint64_t>();
  return *s;
}

thread_local uint64_t t_session = 0;
thread_local TraceRing* t_ring = nullptr;

TraceRing* ThisThreadRing() {
  if (t_ring == nullptr) {
    auto* r = new TraceRing();
    size_t cap = static_cast<size_t>(KnobInt(Knob::kTraceBuf));
    r->ev.resize(cap);
    std::lock_guard<std::mutex> lock(g_rings_mu);
    Rings().push_back(r);
    r->tid = static_cast<int>(Rings().size());
    t_ring = r;
  }
  return t_ring;
}

// --- QC_TRACE: one process-wide session written to a file at exit -------

std::atomic<uint64_t> g_process_session{0};
std::string* g_process_path = nullptr;  // set once under the init once_flag

void WriteProcessTraceAtExit() {
  uint64_t session = g_process_session.exchange(0, std::memory_order_relaxed);
  if (session == 0 || g_process_path == nullptr) return;
  std::string json = TraceEndSession(session);
  FILE* f = std::fopen(g_process_path->c_str(), "w");
  if (f == nullptr) {
    Log(LogLevel::kError, "trace_write_failed",
        {{"path", g_process_path->c_str()}});
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  Log(LogLevel::kInfo, "trace_written",
      {{"path", g_process_path->c_str()}, {"bytes", json.size()}});
}

void InitProcessTraceFromEnv() {
  const char* path = KnobStr(Knob::kTrace);
  if (path == nullptr) return;
  g_process_path = new std::string(path);
  g_process_session.store(TraceBeginSession(), std::memory_order_relaxed);
  std::atexit(WriteProcessTraceAtExit);
}

void AppendJsonString(std::string* out, const char* s) {
  *out += '"';
  for (; *s != '\0'; ++s) {
    char c = *s;
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      *out += c;
    }
  }
  *out += '"';
}

struct CollectedEvent {
  TraceEvent e;
  int tid;
};

}  // namespace

int64_t TraceNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t TraceBeginSession() {
  uint64_t id = g_next_session.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(g_sessions_mu);
    OpenSessions().insert(id);
  }
  g_active_sessions.fetch_add(1, std::memory_order_relaxed);
  return id;
}

uint64_t CurrentTraceSession() {
  static std::once_flag once;
  std::call_once(once, InitProcessTraceFromEnv);
  if (g_active_sessions.load(std::memory_order_relaxed) == 0) return 0;
  if (t_session != 0) return t_session;
  return g_process_session.load(std::memory_order_relaxed);
}

void TraceRecord(uint64_t session, const char* name, const char* cat,
                 int64_t ts_ns, int64_t dur_ns, const char* arg0_key,
                 int64_t arg0, const char* arg1_key, int64_t arg1) {
  if (session == 0) return;
  TraceRing* r = ThisThreadRing();
  std::lock_guard<std::mutex> lock(r->mu);
  TraceEvent& e = r->ev[r->pos];
  e.session = session;
  e.name = name;
  e.cat = cat;
  e.ts = ts_ns;
  e.dur = dur_ns;
  e.a0_key = arg0_key;
  e.a0 = arg0;
  e.a1_key = arg1_key;
  e.a1 = arg1;
  if (session > r->newest_session) r->newest_session = session;
  ++r->pos;
  if (r->pos > r->filled) r->filled = r->pos;
  if (r->pos == r->ev.size()) r->pos = 0;  // wrap: oldest events drop
}

TraceScope::TraceScope(uint64_t session) : prev_(t_session) {
  if (session != 0) t_session = session;
}

TraceScope::~TraceScope() { t_session = prev_; }

std::string TraceEndSession(uint64_t session) {
  {
    std::lock_guard<std::mutex> lock(g_sessions_mu);
    if (OpenSessions().erase(session) > 0) {
      g_active_sessions.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  std::vector<CollectedEvent> out;
  {
    std::lock_guard<std::mutex> rlock(g_rings_mu);
    for (TraceRing* r : Rings()) {
      std::lock_guard<std::mutex> lock(r->mu);
      // Session ids are monotonic: a ring whose newest recording predates
      // this session cannot hold any of its events.
      if (r->newest_session < session) continue;
      for (size_t i = 0; i < r->filled; ++i) {
        TraceEvent& e = r->ev[i];
        if (e.session == session) {
          out.push_back({e, r->tid});
          e.session = 0;
        }
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CollectedEvent& a, const CollectedEvent& b) {
              if (a.e.ts != b.e.ts) return a.e.ts < b.e.ts;
              return a.tid < b.tid;
            });
  int64_t base = out.empty() ? 0 : out.front().e.ts;
  int pid = static_cast<int>(getpid());

  std::string json = "{\"traceEvents\":[";
  char buf[160];
  for (size_t i = 0; i < out.size(); ++i) {
    const TraceEvent& e = out[i].e;
    if (i > 0) json += ",";
    json += "{\"name\":";
    AppendJsonString(&json, e.name);
    json += ",\"cat\":";
    AppendJsonString(&json, e.cat);
    snprintf(buf, sizeof(buf),
             ",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
             pid, out[i].tid, static_cast<double>(e.ts - base) / 1000.0,
             static_cast<double>(e.dur) / 1000.0);
    json += buf;
    if (e.a0_key != nullptr) {
      json += ",\"args\":{";
      AppendJsonString(&json, e.a0_key);
      snprintf(buf, sizeof(buf), ":%" PRId64, e.a0);
      json += buf;
      if (e.a1_key != nullptr) {
        json += ",";
        AppendJsonString(&json, e.a1_key);
        snprintf(buf, sizeof(buf), ":%" PRId64, e.a1);
        json += buf;
      }
      json += "}";
    }
    json += "}";
  }
  json += "],\"displayTimeUnit\":\"ms\"}";
  return json;
}

}  // namespace telemetry
}  // namespace qc
