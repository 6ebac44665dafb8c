// Wire protocol of the serving daemon: a minimal HTTP/1.1 front end and
// a one-line text protocol over the same port, auto-detected per connection
// from the first request line. Both parse into the same ParsedRequest and
// render through the same response helpers, so every robustness property
// (shed statuses, structured failures, drain refusals) is identical on both.
//
// HTTP surface:
//   GET /query?q=<1..22>[&deadline_ms=N][&mem_mb=N][&engine=jit|vm][&level=L]
//             [&trace=1][&client=ID]        (X-QC-Client header also sets ID)
//   POST /cancel/<request-id>               (the only POST route)
//   GET /healthz        GET /metrics (Prometheus text)
//   GET /debug/block?ms=N (gated)   GET /debug/trace/<id> (Chrome trace JSON)
// Line surface (one request per line):
//   QUERY <q> [deadline_ms=N] [mem_mb=N] [engine=jit|vm] [level=L] [trace=1]
//             [client=ID] [ack=1]
//   PING | METRICS | HEALTH | BLOCK <ms> | TRACE <id> | CANCEL <id>
//
// Status→wire mapping (MapStatus): the structured exec::QueryStatusCode of
// a finished run becomes an HTTP status + canonical token, and the same
// token travels in the X-QC-Status header / ERR line so line-protocol
// clients see exactly the structured failure HTTP clients do.
//
// Input bounds (ProtoLimits): the request line, the header block, a POST
// body, and the whole unparsed buffer are each bounded; exceeding one
// yields a structured 414/431/413 (tokens "uri_too_long",
// "headers_too_large", "body_too_large", "request_too_large") with
// `must_close` set — nothing after an over-limit prefix can be framed, so
// the connection must go.
#ifndef QC_SERVER_PROTOCOL_H_
#define QC_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "exec/governor.h"
#include "storage/result.h"

namespace qc::server {

// Parser bounds. Defaults match the server's knobs; tests shrink them.
struct ProtoLimits {
  size_t max_buffer = 64 * 1024;  // whole unparsed buffer (last resort)
  size_t max_line = 4096;         // HTTP request line / line-proto line
  size_t max_headers = 16 * 1024; // HTTP header block incl. request line
  size_t max_body = 4096;         // POST body (Content-Length)
};

struct ParsedRequest {
  enum class Kind {
    kNeedMore,  // incomplete request: keep buffering
    kBad,       // malformed / unknown: answer `error` + close-independent
    kQuery,
    kBlock,
    kCancel,    // cancel-by-id: trip an outstanding request's control
    kMetrics,  // Prometheus text exposition: the daemon's one metrics export
    kTrace,    // fetch a stored per-request trace by id
    kHealth,
    kPing,
  };
  Kind kind = Kind::kNeedMore;
  bool http = true;
  size_t consumed = 0;  // bytes to erase from the inbound buffer

  int query = 0;
  int64_t deadline_ms = -1;  // -1 = not specified (server default applies)
  int64_t mem_mb = -1;
  int64_t block_ms = 0;
  int level = -1;
  int engine = -1;  // -1 unspecified, 0 vm, 1 jit
  bool trace = false;     // trace=1: record this request, return a trace id
  uint64_t trace_id = 0;  // kTrace: which stored trace to fetch
  uint64_t cancel_id = 0; // kCancel: which outstanding request to cancel

  // Sanitized client identity ([A-Za-z0-9_.-], ≤32 bytes; anything else is
  // dropped): X-QC-Client header (wins) or client= parameter; "" anonymous.
  std::string client;
  bool ack = false;  // line proto ack=1: emit "ID <id>" before the result

  int http_code = 400;       // for kBad
  std::string error;         // for kBad: canonical token ("bad_request", ...)
  bool must_close = false;   // for kBad: framing is unrecoverable, close
};

// Parses the next request out of `buf` (which may hold pipelined bytes).
// Never consumes a partial request; never exceeds the ProtoLimits bounds
// without turning the overrun into a structured kBad.
ParsedRequest ParseRequest(const std::string& buf, const ProtoLimits& limits);

// ---------------------------------------------------------------------------
// Responses. Every helper renders the complete wire bytes for one framing.
// ---------------------------------------------------------------------------

struct ResponseMeta {
  const char* status = "ok";  // canonical token (X-QC-Status / OK-ERR line)
  int http_code = 200;
  int64_t rows = -1;
  int retries = 0;
  int downshift = 0;      // downshift level the request ran under
  const char* engine = "";  // "jit", "vm" ("" = not applicable)
  uint64_t request_id = 0;  // nonzero: emit X-QC-Request-Id / " id=<n>"
  uint64_t trace_id = 0;  // nonzero: emit X-QC-Trace / " trace=<id>" token
  const char* content_type = "text/plain";  // HTTP framing only
};

// Maps a finished run's structured status to wire status + token.
ResponseMeta MapStatus(exec::QueryStatusCode code);

// Canonical text rendering of a result (one RowToString line per row) —
// the byte-exactness oracle of the server tests compares this directly.
std::string RenderRows(const storage::ResultTable& t);

// `http` selects the framing. Success carries the rendered rows as body;
// failures carry the token as body (HTTP) or an ERR line (line protocol).
std::string RenderResponse(bool http, const ResponseMeta& meta,
                           const std::string& body);

// Shorthand for control-plane refusals (shed, drain, bad request).
// `request_id` (when nonzero) rides along so a shed/cancelled response
// still names the request it finalizes.
std::string RenderError(bool http, int http_code, const char* status,
                        uint64_t request_id = 0);

}  // namespace qc::server

#endif  // QC_SERVER_PROTOCOL_H_
