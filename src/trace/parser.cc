#include "trace/parser.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "mach/address_space.h"
#include "support/error.h"
#include "support/strings.h"

namespace wrl {

namespace {

// Fetches a run writes at a time (TraceParser::EmitFetches).
constexpr size_t kRunGroup = 4;

using Clock = std::chrono::steady_clock;

uint64_t NsSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

}  // namespace

void TraceInfoTable::Cover(uint32_t key) {
  uint32_t base = key;
  uint32_t last = key;
  if (!index_.empty()) {
    base = std::min(base, key_base_);
    last = std::max(last, key_base_ + static_cast<uint32_t>(4 * (index_.size() - 1)));
  }
  WRL_CHECK_MSG(last - base < kMaxKeySpanBytes,
                StrFormat("trace keys 0x%08x..0x%08x span more than %u bytes", base, last,
                          kMaxKeySpanBytes));
  if (!index_.empty() && base < key_base_) {
    index_.insert(index_.begin(), (key_base_ - base) / 4, nullptr);
  }
  key_base_ = base;
  index_.resize((last - base) / 4 + 1, nullptr);
}

void TraceInfoTable::Add(uint32_t key_addr, TraceBlockInfo info) {
  WRL_CHECK_MSG(key_addr % 4 == 0, StrFormat("trace key 0x%08x is not word-aligned", key_addr));
  WRL_CHECK_MSG(Find(key_addr) == nullptr, StrFormat("duplicate trace key 0x%08x", key_addr));
  Cover(key_addr);
  entries_.push_back({key_addr, std::move(info)});
  index_[(key_addr - key_base_) / 4] = &entries_.back().info;
}

void TraceInfoTable::AddObject(const std::vector<BlockStatic>& blocks,
                               uint32_t instrumented_text_base, uint32_t original_text_base) {
  for (const BlockStatic& b : blocks) {
    TraceBlockInfo info;
    info.orig_addr = original_text_base + b.orig_offset;
    info.num_insts = b.num_insts;
    info.flags = b.flags;
    info.instr_words = b.instr_words;
    info.mem_ops = b.mem_ops;
    Add(instrumented_text_base + b.key_offset, std::move(info));
  }
}

void TeeBatchSink::OnRefBatch(const TraceRef* refs, size_t count) {
  Clock::time_point t0 = Clock::now();
  for (Entry& entry : sinks_) {
    entry.sink->OnRefBatch(refs, count);
    const Clock::time_point t1 = Clock::now();
    entry.busy_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    t0 = t1;
  }
  refs_ += count;
}

uint64_t TeeBatchSink::busy_us(const RefBatchSink* sink) const {
  for (const Entry& entry : sinks_) {
    if (entry.sink == sink) {
      return entry.busy_ns / 1000;
    }
  }
  return 0;
}

void BindParserStats(StatsRegistry& registry, const std::string& prefix,
                     TraceParserStats* stats) {
  registry.AddCounter(prefix + "words", &stats->words);
  registry.AddCounter(prefix + "blocks", &stats->blocks);
  registry.AddCounter(prefix + "refs", &stats->refs);
  registry.AddCounter(prefix + "ifetches", &stats->ifetches);
  registry.AddCounter(prefix + "loads", &stats->loads);
  registry.AddCounter(prefix + "stores", &stats->stores);
  registry.AddCounter(prefix + "kernel_ifetches", &stats->kernel_ifetches);
  registry.AddCounter(prefix + "user_ifetches", &stats->user_ifetches);
  registry.AddCounter(prefix + "idle_instructions", &stats->idle_instructions);
  registry.AddCounter(prefix + "markers", &stats->markers);
  registry.AddCounter(prefix + "validation_errors", &stats->validation_errors);
}

TraceParser::TraceParser(const TraceInfoTable* kernel_table)
    : kernel_table_(kernel_table), table_(kernel_table) {}

void TraceParser::SetUserTable(uint8_t pid, const TraceInfoTable* table) {
  user_tables_[pid] = table;
  SwitchTo(pid_);
}

void TraceParser::SwitchTo(uint8_t pid) {
  pid_ = pid;
  table_ = pid == kKernelPid ? kernel_table_ : user_tables_[pid];
}

void TraceParser::Restore(const Context& ctx) {
  SwitchTo(ctx.pid);
  cursor_ = ctx.cursor;
  idle_ = ctx.idle;
}

void TraceParser::RecordError(const std::string& message) {
  ++stats_.validation_errors;
  if (errors_.size() < 64) {  // Keep the first occurrences; count the rest.
    errors_.push_back(message);
  }
}

void TraceParser::SetBatchSink(RefBatchSink* sink, size_t capacity) {
  FlushBatch();
  batch_sink_ = sink;
  batch_capacity_ = capacity == 0 ? 1 : capacity;
  batch_.resize(batch_capacity_ + kRunGroup - 1);
}

void TraceParser::FlushBatch() {
  if (batch_sink_ == nullptr || batch_fill_ == 0) {
    return;
  }
  const Clock::time_point t0 = Clock::now();
  batch_sink_->OnRefBatch(batch_.data(), batch_fill_);
  sink_ns_ += NsSince(t0);
  batch_fill_ = 0;
}

[[gnu::always_inline]] inline void TraceParser::EmitRef(const TraceRef& ref) {
  ++stats_.refs;
  ++(ref.kind == TraceRef::kStore ? stats_.stores : stats_.loads);
  if (batch_sink_ != nullptr) {
    batch_[batch_fill_++] = ref;
    if (batch_fill_ == batch_capacity_) {
      FlushBatch();
    }
  }
}

[[gnu::always_inline]] inline void TraceParser::EmitFetches(uint32_t first_addr, uint32_t count) {
  const bool kernel = pid_ == kKernelPid;
  // The run's addresses ascend from first_addr; unless they wrap past 2^32,
  // all of them lie in kernel space exactly when the first one does.
  if (kernel &&
      (first_addr < kKseg0 || uint64_t{first_addr} + 4 * uint64_t{count - 1} > UINT32_MAX)) {
    for (uint32_t i = 0; i < count; ++i) {
      const uint32_t addr = first_addr + 4 * i;
      if (addr < kKseg0) {
        RecordError(StrFormat("kernel instruction address 0x%08x outside kernel space", addr));
      }
    }
  }
  stats_.refs += count;
  stats_.ifetches += count;
  (kernel ? stats_.kernel_ifetches : stats_.user_ifetches) += count;
  if (idle_) {
    stats_.idle_instructions += count;
  }
  if (batch_sink_ == nullptr) {
    return;
  }
  // Every fetch of the run is this reference at the next address.  Its
  // bytes are packed once, so the loop stores them and the address.
  const TraceRef fetch{0, TraceRef::kIfetch, 4, pid_, kernel, idle_};
  uint64_t fetch_bytes;
  std::memcpy(&fetch_bytes, &fetch, sizeof(fetch));
  uint32_t addr = first_addr;
  while (count > 0) {
    const size_t n = std::min<size_t>(count, batch_capacity_ - batch_fill_);
    TraceRef* out = batch_.data() + batch_fill_;
    // Whole groups of kRunGroup, the last one running on into the slack
    // past the run (and the batch), so that most runs take the loop once
    // and its exit is predictable.  Slots past the run are overwritten by
    // later references or never delivered.
    for (size_t i = 0; i < n; i += kRunGroup) {
      for (size_t j = i; j < i + kRunGroup; ++j) {
        std::memcpy(&out[j], &fetch_bytes, sizeof(fetch_bytes));
        out[j].addr = addr + 4 * static_cast<uint32_t>(j);
      }
    }
    addr += 4 * static_cast<uint32_t>(n);
    batch_fill_ += n;
    count -= static_cast<uint32_t>(n);
    if (batch_fill_ == batch_capacity_) {
      FlushBatch();
    }
  }
}

[[gnu::always_inline]] inline void TraceParser::EmitRun() {
  const TraceBlockInfo& info = *cursor_.info;
  const uint32_t first = cursor_.next_inst;
  // The run ends at the next memory op's instruction, if the block reaches
  // it from here; an op out of order or past the block never gets data.
  uint32_t end = info.num_insts;
  bool awaits_data = false;
  if (cursor_.next_mem < info.mem_ops.size()) {
    const uint32_t op_index = info.mem_ops[cursor_.next_mem].index;
    if (op_index >= first && op_index < end) {
      end = op_index + 1;
      awaits_data = true;
    }
  }
  if (end > first) {
    EmitFetches(info.orig_addr + 4 * first, end - first);
  }
  if (awaits_data) {
    cursor_.next_inst = end;
    return;
  }
  if (cursor_.next_mem != info.mem_ops.size()) {
    RecordError(StrFormat("block 0x%08x completed with %zu of %zu memory ops", info.orig_addr,
                          static_cast<size_t>(cursor_.next_mem), info.mem_ops.size()));
  }
  cursor_ = BlockCursor{};
}

[[gnu::always_inline]] inline void TraceParser::HandleKey(uint32_t word) {
  if (table_ == nullptr) {
    RecordError(StrFormat("trace from context %u with no lookup table", pid_));
    return;
  }
  const TraceBlockInfo* info = table_->Find(word);
  if (info == nullptr) {
    RecordError(StrFormat("key 0x%08x is not a valid basic block for context %u", word, pid_));
    return;
  }
  ++stats_.blocks;
  if (info->flags & kBlockIdleStart) {
    idle_ = true;
  }
  if (info->flags & kBlockIdleStop) {
    idle_ = false;
  }
  cursor_ = {info, 0, 0};
  EmitRun();
}

[[gnu::always_inline]] inline void TraceParser::HandleData(uint32_t word) {
  const MemOpStatic& op = cursor_.info->mem_ops[cursor_.next_mem];
  EmitRef({word, op.is_store ? TraceRef::kStore : TraceRef::kLoad, op.bytes, pid_,
           pid_ == kKernelPid, idle_});
  ++cursor_.next_mem;
  EmitRun();
}

void TraceParser::HandleMarker(uint32_t word) {
  ++stats_.markers;
  MarkerCode code = MarkerCodeOf(word);
  if (MarkerOperands(code) > 0) {
    expecting_operand_ = true;
    pending_marker_ = code;
    return;
  }
  if (meta_sink_) {
    meta_sink_(code, 0);
  }
}

void TraceParser::HandleOperand(uint32_t word) {
  expecting_operand_ = false;
  MarkerCode code = pending_marker_;
  if (meta_sink_) {
    meta_sink_(code, word);
  }
  switch (code) {
    case kMarkKernelEnter: {
      // Suspend the current context; enter (or nest into) the kernel.
      Context ctx{pid_, cursor_, idle_};
      if (pid_ == kKernelPid) {
        kernel_stack_.push_back(ctx);
      } else {
        suspended_users_[pid_] = ctx;
        last_suspended_user_ = pid_;
      }
      SwitchTo(kKernelPid);
      cursor_ = BlockCursor{};
      idle_ = false;
      break;
    }
    case kMarkKernelExit: {
      uint8_t pid = static_cast<uint8_t>(word & 0xff);
      if (cursor_.active()) {
        RecordError(StrFormat("kernel exit with block 0x%08x in flight", cursor_.info->orig_addr));
        cursor_ = BlockCursor{};
      }
      if (pid == kKernelPid) {
        if (kernel_stack_.empty()) {
          // Double-TLB-miss asymmetry: the nested exception interrupted the
          // *untraced* UTLB handler, which is invisible to the trace — the
          // suspended context is really the user that missed.  Resume the
          // most recently suspended user context.
          auto it = suspended_users_.find(last_suspended_user_);
          if (last_suspended_user_ != kKernelPid && it != suspended_users_.end()) {
            Restore(it->second);
            suspended_users_.erase(it);
            last_suspended_user_ = kKernelPid;
          } else {
            RecordError("kernel exit to kernel with empty nesting stack");
          }
          break;
        }
        Restore(kernel_stack_.back());
        kernel_stack_.pop_back();
      } else {
        auto it = suspended_users_.find(pid);
        if (it == suspended_users_.end()) {
          // First-ever entry to this process: fresh context.
          Restore({pid, BlockCursor{}, false});
        } else {
          Restore(it->second);
          suspended_users_.erase(it);
        }
      }
      break;
    }
    case kMarkContextSwitch:
    case kMarkAnalysis:
      break;  // Informational.
    default:
      break;
  }
}

void TraceParser::Feed(const uint32_t* words, size_t count) {
  const Clock::time_point t0 = Clock::now();
  const uint64_t sink0 = sink_ns_;
  {
    EventRecorder::Scope scope(events_, "parser.feed", "parser");
    if (events_ != nullptr) {
      events_->Instant("parser.feed_words", "parser", "words", count);
    }
    stats_.words += count;
    for (size_t i = 0; i < count; ++i) {
      const uint32_t word = words[i];
      if (expecting_operand_) [[unlikely]] {
        HandleOperand(word);
      } else if (IsMarkerWord(word)) [[unlikely]] {
        HandleMarker(word);
      } else if (cursor_.active()) {
        HandleData(word);
      } else {
        HandleKey(word);
      }
    }
  }
  self_ns_ += NsSince(t0) - (sink_ns_ - sink0);
}

void TraceParser::Finish() {
  const Clock::time_point t0 = Clock::now();
  const uint64_t sink0 = sink_ns_;
  FlushBatch();
  if (expecting_operand_) {
    RecordError("trace ends inside a marker");
  }
  if (cursor_.active()) {
    RecordError(StrFormat("trace ends with block 0x%08x in flight", cursor_.info->orig_addr));
  }
  self_ns_ += NsSince(t0) - (sink_ns_ - sink0);
}

}  // namespace wrl
