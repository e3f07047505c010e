#include "support/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace wrl {

void RunIndexed(size_t count, unsigned jobs, const std::function<void(size_t)>& task) {
  if (jobs <= 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      task(i);
    }
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  {
    // Joined on scope exit, on the unwinding path of a failed spawn too.
    std::vector<std::jthread> pool;
    const size_t workers = std::min<size_t>(jobs, count);
    pool.reserve(workers);
    for (size_t t = 0; t < workers; ++t) {
      pool.emplace_back([&] {
        // A claimed index always runs, and indices are claimed in order, so
        // every index below a failed one has started.
        while (!failed.load()) {
          const size_t i = next.fetch_add(1);
          if (i >= count) {
            return;
          }
          try {
            task(i);
          } catch (...) {
            errors[i] = std::current_exception();
            failed.store(true);
          }
        }
      });
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace wrl
