// Sets (or clears) one environment knob for the enclosing scope and
// restores its previous value on exit, so knob flips never leak into other
// tests in the same binary. Touching QC_FAULT re-arms the fault registry
// on every edge, so a new spec takes effect immediately.
#ifndef QC_TESTS_SCOPED_ENV_H_
#define QC_TESTS_SCOPED_ENV_H_

#include <cstdlib>
#include <optional>
#include <string>

#include "common/fault.h"

namespace qc {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* prev = std::getenv(name)) prev_ = prev;
    Set(value);
  }
  explicit ScopedEnv(const char* name) : name_(name) {
    if (const char* prev = std::getenv(name)) prev_ = prev;
    Unset();
  }
  ~ScopedEnv() {
    if (prev_) {
      Set(*prev_);
    } else {
      Unset();
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  void Set(const std::string& value) {
    ::setenv(name_.c_str(), value.c_str(), 1);
    ReArm();
  }
  void Unset() {
    ::unsetenv(name_.c_str());
    ReArm();
  }

 private:
  void ReArm() {
    if (name_ == "QC_FAULT") FaultReArm();
  }

  std::string name_;
  std::optional<std::string> prev_;
};

}  // namespace qc

#endif  // QC_TESTS_SCOPED_ENV_H_
