// A fixed reference workload that measures how fast the machine runs the
// kind of work query execution does, at the moment.
//
// The benchmark runs on a virtual machine shared with other tenants. Their
// load slows the program by a third or more, in stretches of a minute or
// longer, and slows every kind of work at once, but not equally:
// memory-bound code and page faults slow more than an ALU loop. The probe
// times three parts, each a few ms: a predicated scan, random gathers and a
// hash build and probe over its own 18 MB (the shared cache and memory); a
// pointer chase around a 1 MB ring (the core's private cache); and
// faulting 2 MB of pages back in after giving them up (the kernel and
// hypervisor). Its code
// belongs to the benchmark and never changes with the program. Timing it
// between ops, on the thread that runs them, tells the benchmark how slow
// the machine was around each op, so times can be scaled to one reference
// speed (README.md, "Why times are scaled").
#ifndef QC_PERFBENCH_PROBE_H_
#define QC_PERFBENCH_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qc::perfbench {

class SpeedProbe {
 public:
  // Allocates and touches the probe's data (21 MB). It stays resident for
  // the life of the probe, apart from the pages the probe gives up and
  // faults back in while it runs, so the probe adds bytes() to the
  // process's peak resident size, however its runs fall.
  SpeedProbe();
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  // Runs the reference workload twice and returns the second run's time in
  // ms. The first run brings the probe's data back into the caches, so the
  // time depends on the machine and not on what the program left there.
  double Measure();

  size_t bytes() const;

 private:
  uint64_t RunOnce();

  std::vector<uint32_t> column_;
  std::vector<uint64_t> table_;
  std::vector<uint32_t> ring_;  // ring_[i] is the slot after slot i
  char* pages_ = nullptr;       // page-aligned, mapped by the constructor
};

}  // namespace qc::perfbench

#endif  // QC_PERFBENCH_PROBE_H_
