// In-memory span log of a traced benchmark run.
//
// Spans come from two places, both through the public telemetry API
// (telemetry/trace.h): the spans the library already records
// (bytecode_compile, jit_stitch, exec, par_loop, morsel, merge, par_sort,
// sort_chunk, sort_merge) and the benchmark's own spans around each call
// into a layer ("bench.*"). One trace session is one op; TraceEndSession's
// Chrome JSON is parsed back into spans here, each given the parent that
// encloses it, and kept in memory until the run writes them out once at
// exit.
#ifndef QC_PERFBENCH_SPANS_H_
#define QC_PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace qc::perfbench {

struct Span {
  int name = 0;        // index into SpanLog::names()
  int tid = 0;
  uint64_t session = 0;
  int op = -1;         // timed op the span belongs to; -1 = set-up
  double start_us = 0;  // relative to the session's first event
  double dur_us = 0;
  double self_us = 0;  // dur minus the part covered by same-thread children
  int parent = -1;     // index into SpanLog::spans(), -1 = top level
};

class SpanLog {
 public:
  // Parses the JSON TraceEndSession returned for `session` and appends its
  // spans, tagged with `op`.
  void AddSession(uint64_t session, int op, const std::string& json);

  int NameId(const std::string& name);
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& spans() { return spans_; }

  // Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace qc::perfbench

#endif  // QC_PERFBENCH_SPANS_H_
