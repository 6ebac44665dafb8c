#include "common/str.h"

namespace qc {

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
  std::vector<std::string> text = SplitLike(pattern);
  std::vector<LikeSeg> segs;
  for (const std::string& t : text) segs.push_back({t.c_str(), t.size()});
  return StrLikeSegs(s, segs.data(), segs.size());
}

}  // namespace qc
