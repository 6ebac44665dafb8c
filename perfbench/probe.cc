#include "probe.h"

#include <sys/mman.h>

#include <algorithm>

#include "common/timer.h"

namespace qc::perfbench {
namespace {

constexpr size_t kColumnRows = size_t{1} << 22;  // 16 MB of uint32
constexpr size_t kTableSlots = size_t{1} << 18;  // 2 MB of uint64
constexpr size_t kRingSlots = size_t{1} << 18;   // 1 MB of uint32
constexpr int kGathers = 100000;
constexpr uint64_t kBuildKeys = 50000;
constexpr int kProbes = 100000;
constexpr int kRingSteps = 250000;
constexpr size_t kPagesBytes = size_t{2} << 20;
constexpr size_t kPageBytes = 4096;

uint64_t XorShift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

size_t Slot(uint64_t key) {
  return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> 40) &
         (kTableSlots - 1);
}

volatile uint64_t g_sink;

}  // namespace

SpeedProbe::SpeedProbe()
    : column_(kColumnRows), table_(kTableSlots), ring_(kRingSlots) {
  for (size_t i = 0; i < column_.size(); ++i) {
    column_[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  // One cycle through every slot in shuffled order, so the chase visits the
  // whole ring in an order the prefetcher cannot follow.
  std::vector<uint32_t> order(kRingSlots);
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (size_t i = order.size() - 1; i > 0; --i) {
    x = XorShift(x);
    std::swap(order[i], order[x % (i + 1)]);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    ring_[order[i]] = order[(i + 1) % order.size()];
  }
  void* pages = ::mmap(nullptr, kPagesBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages != MAP_FAILED) {
    ::madvise(pages, kPagesBytes, MADV_NOHUGEPAGE);
    pages_ = static_cast<char*>(pages);
    std::fill(pages_, pages_ + kPagesBytes, 1);
  }
}

SpeedProbe::~SpeedProbe() {
  if (pages_ != nullptr) ::munmap(pages_, kPagesBytes);
}

size_t SpeedProbe::bytes() const {
  return column_.size() * sizeof(column_[0]) +
         table_.size() * sizeof(table_[0]) +
         ring_.size() * sizeof(ring_[0]) + (pages_ != nullptr ? kPagesBytes : 0);
}

uint64_t SpeedProbe::RunOnce() {
  uint64_t sum = 0;
  // A selection over a column.
  for (uint32_t v : column_) sum += (v & 7) < 3 ? v : 0;
  // Random lookups into it.
  uint64_t x = 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < kGathers; ++i) {
    x = XorShift(x);
    sum += column_[x & (kColumnRows - 1)];
  }
  // A hash build, then probes of which about half find their key.
  std::fill(table_.begin(), table_.end(), 0);
  for (uint64_t i = 0; i < kBuildKeys; ++i) {
    x = XorShift(x);
    const uint64_t key = x % (2 * kBuildKeys) + 1;
    size_t h = Slot(key);
    while (table_[h] != 0 && table_[h] != key) h = (h + 1) & (kTableSlots - 1);
    table_[h] = key;
  }
  for (int i = 0; i < kProbes; ++i) {
    x = XorShift(x);
    const uint64_t key = x % (4 * kBuildKeys) + 1;
    for (size_t h = Slot(key); table_[h] != 0; h = (h + 1) & (kTableSlots - 1)) {
      if (table_[h] == key) {
        ++sum;
        break;
      }
    }
  }
  // Dependent loads within the core's private cache.
  uint32_t at = 0;
  for (int i = 0; i < kRingSteps; ++i) at = ring_[at];
  sum += at;
  // Give the pages back to the kernel, then fault each one in again.
  if (pages_ != nullptr) {
    ::madvise(pages_, kPagesBytes, MADV_DONTNEED);
    for (size_t off = 0; off < kPagesBytes; off += kPageBytes) pages_[off] = 1;
    sum += static_cast<uint64_t>(pages_[kPagesBytes / 2]);
  }
  return sum;
}

double SpeedProbe::Measure() {
  g_sink = RunOnce();
  Timer t;
  g_sink = RunOnce();
  return t.ElapsedMs();
}

}  // namespace qc::perfbench
