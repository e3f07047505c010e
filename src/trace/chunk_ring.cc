#include "trace/chunk_ring.h"

#include <chrono>

#include "support/error.h"

namespace wrl {

template <typename T>
BasicChunkRing<T>::BasicChunkRing(size_t capacity, size_t reserve)
    : slots_(capacity == 0 ? 1 : capacity) {
  for (std::vector<T>& slot : slots_) {
    slot.reserve(reserve);
  }
}

template <typename T>
bool BasicChunkRing<T>::Push(const T* items, size_t count) {
  std::unique_lock<std::mutex> lock(mutex_);
  WRL_CHECK_MSG(!closed_, "ChunkRing::Push after Close");
  if (size_ == slots_.size() && !cancelled_) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    ++producer_stalls_;
    not_full_.wait(lock, [this] { return size_ < slots_.size() || cancelled_; });
    producer_stall_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  }
  if (cancelled_) {
    return false;
  }
  std::vector<T>& slot = slots_[(head_ + size_) % slots_.size()];
  slot.assign(items, items + count);
  ++size_;
  ++chunks_;
  items_ += count;
  if (size_ > max_occupancy_) {
    max_occupancy_ = size_;
  }
  occupancy_hist_.Record(size_);
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

template <typename T>
bool BasicChunkRing<T>::Pop(std::vector<T>& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (size_ == 0 && !closed_ && !cancelled_) {
    ++consumer_starves_;
    not_empty_.wait(lock, [this] { return size_ > 0 || closed_ || cancelled_; });
  }
  if (cancelled_ || size_ == 0) {
    return false;  // Cancelled, or closed and fully drained.
  }
  out.swap(slots_[head_]);
  slots_[head_].clear();  // Recycled storage; capacity kept.
  head_ = (head_ + 1) % slots_.size();
  --size_;
  lock.unlock();
  not_full_.notify_one();
  return true;
}

template <typename T>
void BasicChunkRing<T>::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
}

template <typename T>
void BasicChunkRing<T>::Cancel() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

template <typename T>
bool BasicChunkRing<T>::cancelled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cancelled_;
}

template <typename T>
void BasicChunkRing<T>::RegisterStats(StatsRegistry& registry, const std::string& prefix) {
  registry.AddCounter(prefix + "chunks", &chunks_);
  registry.AddCounter(prefix + kRingItemName<T>, &items_);
  registry.AddCounter(prefix + "producer_stalls", &producer_stalls_);
  registry.AddGauge(prefix + "producer_stall_us",
                    [this] { return static_cast<double>(producer_stall_ns_ / 1000); });
  registry.AddCounter(prefix + "consumer_starves", &consumer_starves_);
  registry.AddCounter(prefix + "max_occupancy", &max_occupancy_);
  registry.AddGauge(prefix + "capacity", [this] { return static_cast<double>(capacity()); });
  registry.AddHistogram(prefix + "occupancy", &occupancy_hist_);
}

template <typename T>
BasicTracePipeline<T>::BasicTracePipeline(ChunkFn consume, size_t depth, size_t reserve,
                                          EventRecorder* events, std::string phase)
    : ring_(depth, reserve) {
  buffer_.reserve(reserve);
  consumer_ = std::thread([this, consume = std::move(consume), events,
                           phase = std::move(phase)] {
    try {
      EventRecorder::Scope scope(phase.empty() ? nullptr : events, phase,
                                 phase.substr(0, phase.find('.')));
      while (ring_.Pop(buffer_)) {
        consume(buffer_.data(), buffer_.size());
      }
    } catch (...) {
      error_ = std::current_exception();
      ring_.Cancel();  // Unblock (and fail) the producer.
    }
  });
}

template <typename T>
BasicTracePipeline<T>::~BasicTracePipeline() {
  Join();
}

template <typename T>
void BasicTracePipeline<T>::Join() {
  if (consumer_.joinable()) {
    ring_.Close();
    consumer_.join();
  }
}

template <typename T>
void BasicTracePipeline<T>::Produce(const T* items, size_t count) {
  if (!ring_.Push(items, count)) {
    // The consumer cancelled the ring: surface its error here, exactly
    // where a synchronous consumer would have thrown.
    Finish();
    throw Error("trace pipeline consumer failed without recording an error");
  }
}

template <typename T>
void BasicTracePipeline<T>::Finish() {
  if (!finished_) {
    Join();
    finished_ = true;
  }
  if (error_ != nullptr) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

template class BasicChunkRing<uint32_t>;
template class BasicChunkRing<TraceRef>;
template class BasicTracePipeline<uint32_t>;
template class BasicTracePipeline<TraceRef>;

RefBatchPipeline::RefBatchPipeline(RefBatchSink* sink, EventRecorder* events)
    : pipeline_([sink](const TraceRef* refs, size_t count) { sink->OnRefBatch(refs, count); },
                kRefPipelineDepth, kRefBatchCapacity, events, "analysis.sinks") {}

}  // namespace wrl
