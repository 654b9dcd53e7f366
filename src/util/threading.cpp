#include "util/threading.hpp"

#include <pthread.h>

#include <thread>

namespace dcsn::util {

int hardware_threads() noexcept {
  // Read once: the query parses /sys on every call, and parallel_for asks
  // per loop.
  static const int threads = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
  }();
  return threads;
}

void set_current_thread_name(const std::string& name) noexcept {
  // Linux limits thread names to 15 characters + NUL.
  std::string truncated = name.substr(0, 15);
  (void)pthread_setname_np(pthread_self(), truncated.c_str());
}

}  // namespace dcsn::util
