#include "trace/parser.h"

#include <chrono>

#include "mach/address_space.h"
#include "support/error.h"
#include "support/strings.h"

namespace wrl {

void TraceInfoTable::Add(uint32_t key_addr, TraceBlockInfo info) {
  WRL_CHECK_MSG(blocks_.emplace(key_addr, std::move(info)).second,
                StrFormat("duplicate trace key 0x%08x", key_addr));
}

void TraceInfoTable::AddObject(const std::vector<BlockStatic>& blocks,
                               uint32_t instrumented_text_base, uint32_t original_text_base) {
  blocks_.reserve(blocks_.size() + blocks.size());
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

const TraceBlockInfo* TraceInfoTable::Find(uint32_t key_addr) const {
  auto it = blocks_.find(key_addr);
  return it == blocks_.end() ? nullptr : &it->second;
}

void TeeBatchSink::OnRefBatch(const TraceRef* refs, size_t count) {
  using Clock = std::chrono::steady_clock;
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

uint64_t TeeBatchSink::busy_us() const {
  uint64_t ns = 0;
  for (const Entry& entry : sinks_) {
    ns += entry.busy_ns;
  }
  return ns / 1000;
}

TraceParser::TraceParser(const TraceInfoTable* kernel_table) : kernel_table_(kernel_table) {}

void TraceParser::SetUserTable(uint8_t pid, const TraceInfoTable* table) {
  user_tables_[pid] = table;
}

const TraceInfoTable* TraceParser::CurrentTable() const {
  if (pid_ == kKernelPid) {
    return kernel_table_;
  }
  auto it = user_tables_.find(pid_);
  return it == user_tables_.end() ? nullptr : it->second;
}

void TraceParser::RecordError(const std::string& message) {
  ++stats_.validation_errors;
  if (errors_.size() < 64) {  // Keep the first occurrences; count the rest.
    errors_.push_back(message);
  }
}

void TraceParser::EmitRef(const TraceRef& ref) {
  ++stats_.refs;
  switch (ref.kind) {
    case TraceRef::kIfetch:
      ++stats_.ifetches;
      if (ref.kernel) {
        ++stats_.kernel_ifetches;
      } else {
        ++stats_.user_ifetches;
      }
      if (ref.idle) {
        ++stats_.idle_instructions;
      }
      break;
    case TraceRef::kLoad:
      ++stats_.loads;
      break;
    case TraceRef::kStore:
      ++stats_.stores;
      break;
  }
  if (batch_sink_ != nullptr) {
    batch_.push_back(ref);
    if (batch_.size() >= batch_capacity_) {
      FlushBatch();
    }
  }
}

void TraceParser::SetBatchSink(RefBatchSink* sink, size_t batch_refs) {
  FlushBatch();
  batch_sink_ = sink;
  batch_capacity_ = batch_refs == 0 ? 1 : batch_refs;
  batch_.reserve(batch_capacity_);
}

void TraceParser::FlushBatch() {
  if (batch_sink_ == nullptr || batch_.empty()) {
    return;
  }
  batch_sink_->OnRefBatch(batch_.data(), batch_.size());
  batch_.clear();
}

void TraceParser::EmitFetches() {
  const TraceBlockInfo& info = *cursor_.info;
  bool kernel = pid_ == kKernelPid;
  while (cursor_.next_inst < info.num_insts) {
    uint32_t addr = info.orig_addr + 4 * cursor_.next_inst;
    if (kernel && addr < kKseg0) {
      RecordError(StrFormat("kernel instruction address 0x%08x outside kernel space", addr));
    }
    EmitRef({addr, TraceRef::kIfetch, 4, pid_, kernel, idle_});
    ++cursor_.next_inst;
    if (cursor_.next_mem < info.mem_ops.size() &&
        cursor_.next_inst - 1 == info.mem_ops[cursor_.next_mem].index) {
      return;  // Await this memory op's data word.
    }
  }
  // Block complete.
  if (cursor_.next_mem != info.mem_ops.size()) {
    RecordError(StrFormat("block 0x%08x completed with %zu of %zu memory ops", info.orig_addr,
                          static_cast<size_t>(cursor_.next_mem), info.mem_ops.size()));
  }
  cursor_ = BlockCursor{};
}

void TraceParser::HandleKey(uint32_t word) {
  if (cursor_.active()) {
    RecordError(StrFormat("new block key 0x%08x while block 0x%08x still expects %zu data words",
                          word, cursor_.info->orig_addr,
                          cursor_.info->mem_ops.size() - cursor_.next_mem));
    cursor_ = BlockCursor{};
  }
  const TraceInfoTable* table = CurrentTable();
  if (table == nullptr) {
    RecordError(StrFormat("trace from context %u with no lookup table", pid_));
    return;
  }
  const TraceBlockInfo* info = table->Find(word);
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
  cursor_.info = info;
  cursor_.next_inst = 0;
  cursor_.next_mem = 0;
  EmitFetches();
}

void TraceParser::HandleData(uint32_t word) {
  const TraceBlockInfo& info = *cursor_.info;
  const MemOpStatic& op = info.mem_ops[cursor_.next_mem];
  EmitRef({word, op.is_store ? TraceRef::kStore : TraceRef::kLoad, op.bytes, pid_,
           pid_ == kKernelPid, idle_});
  ++cursor_.next_mem;
  EmitFetches();
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
      pid_ = kKernelPid;
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
          if (last_suspended_user_ != kKernelPid &&
              suspended_users_.count(last_suspended_user_) != 0) {
            auto it = suspended_users_.find(last_suspended_user_);
            pid_ = it->second.pid;
            cursor_ = it->second.cursor;
            idle_ = it->second.idle;
            suspended_users_.erase(it);
            last_suspended_user_ = kKernelPid;
          } else {
            RecordError("kernel exit to kernel with empty nesting stack");
          }
          break;
        }
        Context ctx = kernel_stack_.back();
        kernel_stack_.pop_back();
        pid_ = ctx.pid;
        cursor_ = ctx.cursor;
        idle_ = ctx.idle;
      } else {
        auto it = suspended_users_.find(pid);
        if (it == suspended_users_.end()) {
          // First-ever entry to this process: fresh context.
          pid_ = pid;
          cursor_ = BlockCursor{};
          idle_ = false;
        } else {
          pid_ = it->second.pid;
          cursor_ = it->second.cursor;
          idle_ = it->second.idle;
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
  EventRecorder::Scope scope(events_, "parser.feed", "parser");
  if (events_ != nullptr) {
    events_->Instant("parser.feed_words", "parser", "words", count);
  }
  for (size_t i = 0; i < count; ++i) {
    uint32_t word = words[i];
    ++stats_.words;
    if (expecting_operand_) {
      HandleOperand(word);
    } else if (IsMarkerWord(word)) {
      HandleMarker(word);
    } else if (cursor_.active()) {
      HandleData(word);
    } else {
      HandleKey(word);
    }
  }
}

void TraceParser::Finish() {
  FlushBatch();
  if (expecting_operand_) {
    RecordError("trace ends inside a marker");
  }
  if (cursor_.active()) {
    RecordError(StrFormat("trace ends with block 0x%08x in flight", cursor_.info->orig_addr));
  }
}

void TraceParser::RegisterStats(StatsRegistry& registry, const std::string& prefix) {
  registry.AddCounter(prefix + "words", &stats_.words);
  registry.AddCounter(prefix + "blocks", &stats_.blocks);
  registry.AddCounter(prefix + "refs", &stats_.refs);
  registry.AddCounter(prefix + "ifetches", &stats_.ifetches);
  registry.AddCounter(prefix + "loads", &stats_.loads);
  registry.AddCounter(prefix + "stores", &stats_.stores);
  registry.AddCounter(prefix + "kernel_ifetches", &stats_.kernel_ifetches);
  registry.AddCounter(prefix + "user_ifetches", &stats_.user_ifetches);
  registry.AddCounter(prefix + "idle_instructions", &stats_.idle_instructions);
  registry.AddCounter(prefix + "markers", &stats_.markers);
  registry.AddCounter(prefix + "validation_errors", &stats_.validation_errors);
}

}  // namespace wrl
