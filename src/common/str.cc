#include "common/str.h"

#include <cstring>

namespace qc {

bool StrStartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool StrEndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool StrContains(std::string_view s, std::string_view infix) {
  return s.find(infix) != std::string_view::npos;
}

std::vector<std::string> SplitLike(std::string_view pattern) {
  std::vector<std::string> segments;
  std::string cur;
  for (char c : pattern) {
    if (c == '%') {
      segments.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  segments.push_back(cur);
  return segments;
}

bool StrLike(const char* s, std::string_view pattern) {
  return StrLikeSegs(s, SplitLike(pattern));
}

bool StrLikeSegs(const char* s, const std::vector<std::string>& segs) {
  // segs has k+1 entries for k '%' wildcards. First segment is anchored at
  // the start, last at the end, middles must appear in order.
  if (segs.size() == 1) return std::strcmp(s, segs[0].c_str()) == 0;
  const std::string& first = segs.front();
  if (std::strncmp(s, first.c_str(), first.size()) != 0) return false;
  const char* pos = s + first.size();
  for (size_t i = 1; i + 1 < segs.size(); ++i) {
    if (segs[i].empty()) continue;
    const char* found = std::strstr(pos, segs[i].c_str());
    if (found == nullptr) return false;
    pos = found + segs[i].size();
  }
  const std::string& last = segs.back();
  if (last.empty()) return true;
  size_t rest = std::strlen(pos);
  if (rest < last.size()) return false;
  return std::memcmp(pos + rest - last.size(), last.data(), last.size()) == 0;
}

}  // namespace qc
