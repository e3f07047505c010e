// Runs independent indexed tasks on a small worker pool.
#ifndef WRLTRACE_SUPPORT_PARALLEL_H_
#define WRLTRACE_SUPPORT_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace wrl {

// Runs task(0) .. task(count - 1) on up to `jobs` threads, each claiming
// the next unstarted index; with `jobs` <= 1 (or one task) they run inline,
// in index order.  Once a task throws, no further task starts; after the
// started ones finish, the error of the lowest index is rethrown, so the
// error is the one an inline run throws.  Tasks that write only their own
// index's slot of a caller's vector need no other synchronization.
void RunIndexed(size_t count, unsigned jobs, const std::function<void(size_t)>& task);

}  // namespace wrl

#endif  // WRLTRACE_SUPPORT_PARALLEL_H_
