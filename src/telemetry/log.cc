#include "telemetry/log.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/knobs.h"

namespace qc {
namespace telemetry {

namespace {

const char* LevelName(LogLevel l) {
  switch (l) {
    case LogLevel::kError:
      return "error";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kDebug:
      return "debug";
  }
  return "info";
}

bool NeedsQuoting(const std::string& v) {
  if (v.empty()) return true;
  for (char c : v) {
    if (c == ' ' || c == '"' || c == '\\' || c == '=' ||
        static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

void AppendValue(std::string* out, const std::string& v) {
  if (!NeedsQuoting(v)) {
    *out += v;
    return;
  }
  *out += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (c == '\n') {
      *out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      *out += ' ';  // other control bytes: keep the record one line
    } else {
      *out += c;
    }
  }
  *out += '"';
}

}  // namespace

int LogThreshold() {
  const char* v = KnobStr(Knob::kLog);
  if (v == nullptr) return 2;  // info
  if (std::strcmp(v, "error") == 0) return 0;
  if (std::strcmp(v, "warn") == 0) return 1;
  if (std::strcmp(v, "info") == 0) return 2;
  if (std::strcmp(v, "debug") == 0) return 3;
  char* end = nullptr;
  long long parsed = std::strtoll(v, &end, 10);
  if (end == v || end[std::strspn(end, " \t\n\r")] != '\0') return 2;
  return static_cast<int>(std::clamp(parsed, 0ll, 3ll));
}

bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) <= LogThreshold();
}

std::string LogFormat(LogLevel level, const char* event,
                      const std::vector<LogKv>& kvs) {
  std::string out = "level=";
  out += LevelName(level);
  out += " event=";
  out += event;
  char buf[64];
  for (const LogKv& kv : kvs) {
    out += ' ';
    out += kv.key;
    out += '=';
    switch (kv.kind) {
      case LogKv::Kind::kStr:
        AppendValue(&out, kv.str);
        break;
      case LogKv::Kind::kInt:
        snprintf(buf, sizeof(buf), "%lld", kv.i);
        out += buf;
        break;
      case LogKv::Kind::kUint:
        snprintf(buf, sizeof(buf), "%llu", kv.u);
        out += buf;
        break;
      case LogKv::Kind::kFloat:
        snprintf(buf, sizeof(buf), "%g", kv.f);
        out += buf;
        break;
    }
  }
  return out;
}

void Log(LogLevel level, const char* event, std::vector<LogKv> kvs) {
  if (!LogEnabled(level)) return;
  int64_t ts_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  char head[48];
  snprintf(head, sizeof(head), "qc ts=%" PRId64 " ", ts_ms);
  std::string line = head;
  line += LogFormat(level, event, kvs);
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace telemetry
}  // namespace qc
