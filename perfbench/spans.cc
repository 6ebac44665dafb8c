#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

namespace qc::perfbench {

namespace {

// Slices the library records on pool workers, and the caller-thread span
// that encloses them: their parent lives on another thread.
const char* CrossThreadParent(const std::string& name) {
  if (name == "morsel" || name == "merge") return "par_loop";
  if (name == "sort_chunk" || name == "sort_merge") return "par_sort";
  return nullptr;
}

// Position of the number after `"key":`, searching from `pos` up to
// `limit`; npos when absent.
size_t FindNumber(const std::string& json, size_t pos, const char* key,
                  size_t limit) {
  size_t at = json.find(key, pos);
  if (at == std::string::npos || at >= limit) return std::string::npos;
  return at + std::strlen(key);
}

}  // namespace

int SpanLog::NameId(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

void SpanLog::AddSession(uint64_t session, int op, const std::string& json) {
  // The input is telemetry::TraceEndSession's fixed rendering:
  // {"name":"<n>","cat":"<c>","ph":"X","pid":P,"tid":T,"ts":U,"dur":D
  //  [,"args":{...}]}, whose args are not needed here.
  const size_t first = spans_.size();
  const char kOpen[] = "{\"name\":\"";
  size_t pos = 0;
  while ((pos = json.find(kOpen, pos)) != std::string::npos) {
    size_t name_begin = pos + sizeof(kOpen) - 1;
    size_t name_end = json.find('"', name_begin);
    size_t end = json.find('}', name_end);
    if (name_end == std::string::npos || end == std::string::npos) break;
    Span s;
    s.name = NameId(json.substr(name_begin, name_end - name_begin));
    s.session = session;
    s.op = op;
    size_t at = FindNumber(json, name_end, "\"tid\":", end);
    size_t ts = FindNumber(json, name_end, "\"ts\":", end);
    size_t dur = FindNumber(json, name_end, "\"dur\":", end);
    if (at == std::string::npos || ts == std::string::npos ||
        dur == std::string::npos) {
      break;
    }
    s.tid = std::atoi(json.c_str() + at);
    s.start_us = std::strtod(json.c_str() + ts, nullptr);
    s.dur_us = std::strtod(json.c_str() + dur, nullptr);
    spans_.push_back(s);
    pos = end;
  }

  // Same-thread nesting: sort by (thread, start, longest first) and keep a
  // stack of open spans; a span's parent is the innermost open span that
  // still covers it, and the parent's self time loses the child's duration.
  std::vector<size_t> order(spans_.size() - first);
  std::iota(order.begin(), order.end(), first);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Span& x = spans_[a];
    const Span& y = spans_[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.dur_us > y.dur_us;
  });
  constexpr double kEps = 0.002;  // the JSON carries ns resolution in us
  std::vector<size_t> open;
  std::vector<double> covered(spans_.size() - first, 0.0);
  int tid = -1;
  for (size_t i : order) {
    Span& s = spans_[i];
    if (s.tid != tid) {
      open.clear();
      tid = s.tid;
    }
    while (!open.empty() && spans_[open.back()].start_us +
                                    spans_[open.back()].dur_us <=
                                s.start_us + kEps) {
      open.pop_back();
    }
    if (!open.empty()) {
      const Span& p = spans_[open.back()];
      if (s.start_us + s.dur_us <= p.start_us + p.dur_us + kEps) {
        s.parent = static_cast<int>(open.back());
        covered[open.back() - first] += s.dur_us;
      }
    }
    open.push_back(i);
  }
  for (size_t i = first; i < spans_.size(); ++i) {
    spans_[i].self_us = std::max(0.0, spans_[i].dur_us - covered[i - first]);
  }

  // Worker-thread slices hang off the enclosing caller-thread span; they
  // run concurrently with it, so they do not reduce its self time.
  for (size_t i = first; i < spans_.size(); ++i) {
    Span& s = spans_[i];
    if (s.parent >= 0) continue;
    const char* want = CrossThreadParent(names_[s.name]);
    if (want == nullptr) continue;
    for (size_t j = first; j < spans_.size(); ++j) {
      const Span& p = spans_[j];
      if (j == i || names_[p.name] != want) continue;
      if (p.start_us <= s.start_us + kEps &&
          s.start_us + s.dur_us <= p.start_us + p.dur_us + kEps) {
        s.parent = static_cast<int>(j);
        break;
      }
    }
  }
}

bool SpanLog::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"session\":%llu,\"op\":%d,"
                 "\"tid\":%d,\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"self_us\":%.3f,\"parent\":%d}\n",
                 i, names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.session), s.op, s.tid,
                 s.start_us, s.start_us + s.dur_us, s.self_us, s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace qc::perfbench
