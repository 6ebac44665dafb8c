#include "server/protocol.h"

#include <cstdio>
#include <cstring>

namespace qc::server {

namespace {

// Strict bounded integer parse over [p, end); returns false on any
// non-digit (no sign: the protocol has no negative parameters).
bool ParseU64(const char* p, const char* end, int64_t* out) {
  if (p == end) return false;
  int64_t v = 0;
  for (; p != end; ++p) {
    if (*p < '0' || *p > '9') return false;
    if (v > (INT64_MAX - 9) / 10) return false;
    v = v * 10 + (*p - '0');
  }
  *out = v;
  return true;
}

// Client ids reach per-client metrics labels and log records, so the
// accepted alphabet is strict: [A-Za-z0-9_.-], at most 32 bytes. Anything
// else is dropped wholesale (the request proceeds anonymous) — a malformed
// id must not become a distinct tenant or a label-injection vector.
void SetClient(ParsedRequest* r, const char* v, const char* vend) {
  size_t len = static_cast<size_t>(vend - v);
  if (len == 0 || len > 32) return;
  for (const char* p = v; p != vend; ++p) {
    char c = *p;
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return;
  }
  r->client.assign(v, len);
}

// Applies one key=value parameter (shared by the query string and the line
// protocol). Unknown keys are ignored — forward compatibility beats
// strictness for optional tuning parameters; the load-bearing `q` is
// validated by the caller.
void ApplyParam(ParsedRequest* r, const char* k, const char* kend,
                const char* v, const char* vend) {
  size_t klen = static_cast<size_t>(kend - k);
  auto is = [&](const char* name) {
    return klen == std::strlen(name) && std::memcmp(k, name, klen) == 0;
  };
  int64_t num = 0;
  if (is("q") || is("query")) {
    if (ParseU64(v, vend, &num) && num >= 1 && num <= 22) {
      r->query = static_cast<int>(num);
    } else {
      r->query = -1;  // named but invalid: must reject, not default
    }
  } else if (is("deadline_ms")) {
    if (ParseU64(v, vend, &num)) r->deadline_ms = num;
  } else if (is("mem_mb")) {
    if (ParseU64(v, vend, &num)) r->mem_mb = num;
  } else if (is("ms")) {
    if (ParseU64(v, vend, &num)) r->block_ms = num;
  } else if (is("level")) {
    if (ParseU64(v, vend, &num) && num >= 2 && num <= 5) {
      r->level = static_cast<int>(num);
    }
  } else if (is("engine")) {
    size_t vlen = static_cast<size_t>(vend - v);
    if (vlen == 3 && std::memcmp(v, "jit", 3) == 0) r->engine = 1;
    if (vlen == 2 && std::memcmp(v, "vm", 2) == 0) r->engine = 0;
  } else if (is("trace")) {
    if (ParseU64(v, vend, &num)) r->trace = num != 0;
  } else if (is("client")) {
    SetClient(r, v, vend);
  } else if (is("ack")) {
    if (ParseU64(v, vend, &num)) r->ack = num != 0;
  }
}

void ParseParams(ParsedRequest* r, const char* p, const char* end, char sep) {
  while (p < end) {
    const char* item_end = static_cast<const char*>(
        std::memchr(p, sep, static_cast<size_t>(end - p)));
    if (item_end == nullptr) item_end = end;
    const char* eq = static_cast<const char*>(
        std::memchr(p, '=', static_cast<size_t>(item_end - p)));
    if (eq != nullptr && eq > p) ApplyParam(r, p, eq, eq + 1, item_end);
    p = item_end < end ? item_end + 1 : end;
  }
}

ParsedRequest Bad(bool http, size_t consumed, int code, const char* token,
                  bool must_close = false) {
  ParsedRequest r;
  r.kind = ParsedRequest::Kind::kBad;
  r.http = http;
  r.consumed = consumed;
  r.http_code = code;
  r.error = token;
  r.must_close = must_close;
  return r;
}

// Case-insensitive scan of an HTTP header block [hdrs, hdrs_end) for
// `name` (which must include the trailing ':'); returns the trimmed value
// range via out params, false when absent.
bool FindHeader(const char* hdrs, const char* hdrs_end, const char* name,
                const char** v, const char** vend) {
  size_t nlen = std::strlen(name);
  const char* p = hdrs;
  while (p < hdrs_end) {
    const char* eol = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<size_t>(hdrs_end - p)));
    if (eol == nullptr) eol = hdrs_end;
    if (static_cast<size_t>(eol - p) >= nlen) {
      bool match = true;
      for (size_t i = 0; i < nlen; ++i) {
        char a = p[i];
        char b = name[i];
        if (a >= 'A' && a <= 'Z') a = static_cast<char>(a - 'A' + 'a');
        if (b >= 'A' && b <= 'Z') b = static_cast<char>(b - 'A' + 'a');
        if (a != b) {
          match = false;
          break;
        }
      }
      if (match) {
        const char* val = p + nlen;
        const char* val_end = eol;
        while (val < val_end && (*val == ' ' || *val == '\t')) ++val;
        while (val_end > val &&
               (val_end[-1] == '\r' || val_end[-1] == ' ' ||
                val_end[-1] == '\t')) {
          --val_end;
        }
        *v = val;
        *vend = val_end;
        return true;
      }
    }
    p = eol + 1;
  }
  return false;
}

// Routes an HTTP path (already split from the query string) to a request
// kind; `args` is the raw query string ("" when absent).
ParsedRequest RouteHttp(const std::string& path, const char* args,
                        const char* args_end, size_t consumed) {
  ParsedRequest r;
  r.http = true;
  r.consumed = consumed;
  if (path == "/query") {
    r.kind = ParsedRequest::Kind::kQuery;
    ParseParams(&r, args, args_end, '&');
    if (r.query < 1 || r.query > 22) {
      return Bad(true, consumed, 400, "bad_request");
    }
    return r;
  }
  if (path == "/metrics") {
    r.kind = ParsedRequest::Kind::kMetrics;
    return r;
  }
  if (path == "/healthz") {
    r.kind = ParsedRequest::Kind::kHealth;
    return r;
  }
  if (path.compare(0, 13, "/debug/trace/") == 0) {
    const char* id = path.c_str() + 13;
    int64_t num = 0;
    if (!ParseU64(id, id + (path.size() - 13), &num) || num <= 0) {
      return Bad(true, consumed, 404, "not_found");
    }
    r.kind = ParsedRequest::Kind::kTrace;
    r.trace_id = static_cast<uint64_t>(num);
    return r;
  }
  if (path == "/debug/block") {
    r.kind = ParsedRequest::Kind::kBlock;
    ParseParams(&r, args, args_end, '&');
    return r;
  }
  if (path.compare(0, 8, "/cancel/") == 0) {
    // Cancel is state-changing, so it is POST-only; the GET router
    // answering 405 here tells a confused client which verb to use.
    return Bad(true, consumed, 405, "method_not_allowed");
  }
  return Bad(true, consumed, 404, "not_found");
}

ParsedRequest ParseHttp(const std::string& buf, const ProtoLimits& limits,
                        size_t eol) {
  // Request line bound (414): the first line must fit max_line whether or
  // not the rest of the headers have arrived.
  if (eol > limits.max_line) {
    return Bad(true, buf.size(), 414, "uri_too_long", /*must_close=*/true);
  }
  // A complete HTTP request is request-line + headers + blank line.
  size_t hdr_end = buf.find("\r\n\r\n");
  size_t body_at;
  if (hdr_end != std::string::npos) {
    body_at = hdr_end + 4;
  } else {
    size_t lf_end = buf.find("\n\n");  // tolerate bare-LF clients
    if (lf_end == std::string::npos) {
      if (buf.size() > limits.max_headers) {
        return Bad(true, buf.size(), 431, "headers_too_large",
                   /*must_close=*/true);
      }
      return ParsedRequest();
    }
    hdr_end = lf_end;
    body_at = lf_end + 2;
  }
  if (body_at > limits.max_headers) {
    return Bad(true, body_at, 431, "headers_too_large", /*must_close=*/true);
  }
  const bool is_post = buf.compare(0, 5, "POST ") == 0;
  if (!is_post && buf.compare(0, 4, "GET ") != 0) {
    return Bad(true, body_at, 405, "method_not_allowed");
  }
  // Target = bytes between the method token and the next space.
  size_t tgt_begin = is_post ? 5 : 4;
  size_t tgt_end = buf.find(' ', tgt_begin);
  if (tgt_end == std::string::npos || tgt_end > eol) {
    return Bad(true, body_at, 400, "bad_request");
  }
  std::string target = buf.substr(tgt_begin, tgt_end - tgt_begin);
  size_t qmark = target.find('?');
  std::string path = target.substr(0, qmark);
  const char* hdrs = buf.data() + eol + 1;
  const char* hdrs_end = buf.data() + hdr_end;
  if (hdrs > hdrs_end) hdrs = hdrs_end;

  if (is_post) {
    // POST is the cancel control plane and nothing else. The body (if any)
    // is read fully — bounded by max_body — and discarded, so keep-alive
    // framing stays intact.
    int64_t content_len = 0;
    const char* v;
    const char* vend;
    if (FindHeader(hdrs, hdrs_end, "content-length:", &v, &vend)) {
      if (!ParseU64(v, vend, &content_len) || content_len < 0) {
        return Bad(true, body_at, 400, "bad_request", /*must_close=*/true);
      }
    }
    if (static_cast<size_t>(content_len) > limits.max_body) {
      return Bad(true, buf.size(), 413, "body_too_large",
                 /*must_close=*/true);
    }
    size_t consumed = body_at + static_cast<size_t>(content_len);
    if (buf.size() < consumed) return ParsedRequest();  // body in flight
    if (path.compare(0, 8, "/cancel/") == 0) {
      int64_t id = 0;
      const char* idp = path.c_str() + 8;
      if (!ParseU64(idp, idp + (path.size() - 8), &id) || id <= 0) {
        return Bad(true, consumed, 404, "not_found");
      }
      ParsedRequest r;
      r.http = true;
      r.consumed = consumed;
      r.kind = ParsedRequest::Kind::kCancel;
      r.cancel_id = static_cast<uint64_t>(id);
      return r;
    }
    return Bad(true, consumed, path == "/cancel" ? 404 : 405,
               path == "/cancel" ? "not_found" : "method_not_allowed");
  }

  const char* args = "";
  const char* args_end = args;
  std::string argstr;
  if (qmark != std::string::npos) {
    argstr = target.substr(qmark + 1);
    args = argstr.c_str();
    args_end = args + argstr.size();
  }
  ParsedRequest r = RouteHttp(path, args, args_end, body_at);
  // The identity header outranks the query parameter: a fronting proxy
  // that stamps X-QC-Client must not be overridden by request smuggling
  // through the URL.
  const char* v;
  const char* vend;
  if (FindHeader(hdrs, hdrs_end, "x-qc-client:", &v, &vend)) {
    SetClient(&r, v, vend);
  }
  return r;
}

}  // namespace

ParsedRequest ParseRequest(const std::string& buf,
                           const ProtoLimits& limits) {
  size_t eol = buf.find('\n');
  // First line decides the framing: an HTTP method token means HTTP.
  bool is_http = buf.compare(0, 4, "GET ") == 0 ||
                 buf.compare(0, 5, "POST ") == 0 ||
                 buf.compare(0, 5, "HEAD ") == 0 ||
                 buf.compare(0, 4, "PUT ") == 0;
  if (eol == std::string::npos) {
    // No complete line yet: the only thing to enforce is that the line
    // under construction stays bounded.
    if (buf.size() > limits.max_line) {
      if (is_http) {
        return Bad(true, buf.size(), 414, "uri_too_long",
                   /*must_close=*/true);
      }
      return Bad(false, buf.size(), 431, "request_too_large",
                 /*must_close=*/true);
    }
    if (buf.size() > limits.max_buffer) {
      return Bad(true, buf.size(), 431, "request_too_large",
                 /*must_close=*/true);
    }
    return ParsedRequest();  // kNeedMore
  }
  if (is_http) return ParseHttp(buf, limits, eol);

  // Line protocol: exactly one request per line.
  size_t consumed = eol + 1;
  if (eol > limits.max_line) {
    return Bad(false, consumed, 431, "request_too_large",
               /*must_close=*/true);
  }
  size_t len = eol;
  while (len > 0 && (buf[len - 1] == '\r' || buf[len - 1] == ' ')) --len;
  const char* line = buf.data();
  const char* end = line + len;
  auto starts = [&](const char* word) {
    size_t n = std::strlen(word);
    return len >= n && std::memcmp(line, word, n) == 0 &&
           (len == n || line[n] == ' ');
  };
  ParsedRequest r;
  r.http = false;
  r.consumed = consumed;
  if (len == 0) {
    r.kind = ParsedRequest::Kind::kNeedMore;  // stray blank line: skip it
    return r;
  }
  if (starts("PING")) {
    r.kind = ParsedRequest::Kind::kPing;
    return r;
  }
  if (starts("METRICS")) {
    r.kind = ParsedRequest::Kind::kMetrics;
    return r;
  }
  if (starts("TRACE")) {
    const char* p = line + 5;
    while (p < end && *p == ' ') ++p;
    const char* sp = static_cast<const char*>(
        std::memchr(p, ' ', static_cast<size_t>(end - p)));
    if (sp == nullptr) sp = end;
    int64_t id = 0;
    if (!ParseU64(p, sp, &id) || id <= 0) {
      return Bad(false, consumed, 404, "not_found");
    }
    r.kind = ParsedRequest::Kind::kTrace;
    r.trace_id = static_cast<uint64_t>(id);
    return r;
  }
  if (starts("CANCEL")) {
    const char* p = line + 6;
    while (p < end && *p == ' ') ++p;
    const char* sp = static_cast<const char*>(
        std::memchr(p, ' ', static_cast<size_t>(end - p)));
    if (sp == nullptr) sp = end;
    int64_t id = 0;
    if (!ParseU64(p, sp, &id) || id <= 0) {
      return Bad(false, consumed, 404, "not_found");
    }
    r.kind = ParsedRequest::Kind::kCancel;
    r.cancel_id = static_cast<uint64_t>(id);
    return r;
  }
  if (starts("HEALTH")) {
    r.kind = ParsedRequest::Kind::kHealth;
    return r;
  }
  if (starts("BLOCK")) {
    r.kind = ParsedRequest::Kind::kBlock;
    const char* p = line + 5;
    while (p < end && *p == ' ') ++p;
    const char* sp = static_cast<const char*>(
        std::memchr(p, ' ', static_cast<size_t>(end - p)));
    if (sp == nullptr) sp = end;
    ParseU64(p, sp, &r.block_ms);
    if (sp < end) ParseParams(&r, sp + 1, end, ' ');
    return r;
  }
  if (starts("QUERY")) {
    r.kind = ParsedRequest::Kind::kQuery;
    const char* p = line + 5;
    while (p < end && *p == ' ') ++p;
    const char* sp = static_cast<const char*>(
        std::memchr(p, ' ', static_cast<size_t>(end - p)));
    if (sp == nullptr) sp = end;
    int64_t q = 0;
    if (ParseU64(p, sp, &q) && q >= 1 && q <= 22) {
      r.query = static_cast<int>(q);
    }
    if (sp < end) ParseParams(&r, sp + 1, end, ' ');
    if (r.query < 1 || r.query > 22) {
      return Bad(false, consumed, 400, "bad_request");
    }
    return r;
  }
  return Bad(false, consumed, 400, "bad_request");
}

ResponseMeta MapStatus(exec::QueryStatusCode code) {
  ResponseMeta m;
  m.status = exec::QueryStatusName(code);
  switch (code) {
    case exec::QueryStatusCode::kOk:
      m.http_code = 200;
      break;
    case exec::QueryStatusCode::kDeadlineExceeded:
      m.http_code = 504;
      break;
    case exec::QueryStatusCode::kMemoryBudget:
      m.http_code = 507;  // the per-query budget, not the transport
      break;
    case exec::QueryStatusCode::kResourceFailure:
      m.http_code = 503;  // transient by contract: clients may retry
      break;
    case exec::QueryStatusCode::kCancelled:
      m.http_code = 499;  // nginx's client-closed-request convention
      break;
  }
  return m;
}

std::string RenderRows(const storage::ResultTable& t) {
  std::string out;
  for (size_t i = 0; i < t.size(); ++i) {
    out += t.RowToString(i);
    out += '\n';
  }
  return out;
}

namespace {

const char* HttpReason(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Content Too Large";
    case 414: return "URI Too Long";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 499: return "Client Closed Request";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 507: return "Insufficient Storage";
    default:  return "Error";
  }
}

}  // namespace

std::string RenderResponse(bool http, const ResponseMeta& meta,
                           const std::string& body) {
  char hdr[704];
  // Trace and request ids are opt-in, so the extra header/token appears
  // only where the server stamps them and existing clients see
  // byte-identical responses.
  char trace[64];
  trace[0] = '\0';
  char reqid[64];
  reqid[0] = '\0';
  if (http) {
    if (meta.trace_id != 0) {
      std::snprintf(trace, sizeof(trace), "X-QC-Trace: %llu\r\n",
                    static_cast<unsigned long long>(meta.trace_id));
    }
    if (meta.request_id != 0) {
      std::snprintf(reqid, sizeof(reqid), "X-QC-Request-Id: %llu\r\n",
                    static_cast<unsigned long long>(meta.request_id));
    }
    int n = std::snprintf(
        hdr, sizeof(hdr),
        "HTTP/1.1 %d %s\r\n"
        "Content-Type: %s\r\n"
        "Content-Length: %zu\r\n"
        "X-QC-Status: %s\r\n"
        "X-QC-Rows: %lld\r\n"
        "X-QC-Retries: %d\r\n"
        "X-QC-Downshift: %d\r\n"
        "X-QC-Engine: %s\r\n"
        "%s%s%s"
        "Connection: keep-alive\r\n"
        "\r\n",
        meta.http_code, HttpReason(meta.http_code), meta.content_type,
        body.size(), meta.status, static_cast<long long>(meta.rows),
        meta.retries, meta.downshift, meta.engine, reqid, trace,
        meta.http_code == 503 ? "Retry-After: 1\r\n" : "");
    return std::string(hdr, static_cast<size_t>(n)) + body;
  }
  // Line framing: "OK <rows> retries=<n> downshift=<n> engine=<e>[ id=<n>]
  // [ trace=<t>]" + body + ".\n" terminator, or a single ERR line. The
  // trace token stays last: clients parse it as "rest of line after
  // ' trace='".
  std::string out;
  if (meta.request_id != 0) {
    std::snprintf(reqid, sizeof(reqid), " id=%llu",
                  static_cast<unsigned long long>(meta.request_id));
  }
  if (meta.http_code == 200) {
    if (meta.trace_id != 0) {
      std::snprintf(trace, sizeof(trace), " trace=%llu",
                    static_cast<unsigned long long>(meta.trace_id));
    }
    int n = std::snprintf(hdr, sizeof(hdr),
                          "OK %lld retries=%d downshift=%d engine=%s%s%s\n",
                          static_cast<long long>(meta.rows), meta.retries,
                          meta.downshift, meta.engine, reqid, trace);
    out.assign(hdr, static_cast<size_t>(n));
    out += body;
    out += ".\n";
  } else {
    int n = std::snprintf(hdr, sizeof(hdr), "ERR %s retries=%d%s\n",
                          meta.status, meta.retries, reqid);
    out.assign(hdr, static_cast<size_t>(n));
  }
  return out;
}

std::string RenderError(bool http, int http_code, const char* status,
                        uint64_t request_id) {
  ResponseMeta m;
  m.status = status;
  m.http_code = http_code;
  m.rows = 0;
  m.request_id = request_id;
  return RenderResponse(http, m, http ? std::string(status) + "\n" : "");
}

}  // namespace qc::server
