#include "common/str.h"

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

bool StrLike(std::string_view s, std::string_view pattern) {
  return StrLikeSegs(s, SplitLike(pattern));
}

bool StrLikeSegs(std::string_view s, const std::vector<std::string>& segs) {
  // segs has k+1 entries for k '%' wildcards. First segment is anchored at
  // the start, last at the end, middles must appear in order.
  if (segs.size() == 1) return s == segs[0];
  if (!StrStartsWith(s, segs.front())) return false;
  size_t pos = segs.front().size();
  for (size_t i = 1; i + 1 < segs.size(); ++i) {
    if (segs[i].empty()) continue;
    size_t found = s.find(segs[i], pos);
    if (found == std::string_view::npos) return false;
    pos = found + segs[i].size();
  }
  const std::string& last = segs.back();
  if (last.empty()) return true;
  if (s.size() < pos + last.size()) return false;
  return s.substr(s.size() - last.size()) == last;
}

}  // namespace qc
