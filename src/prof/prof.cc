#include "prof/prof.h"

#include <algorithm>

#include "support/error.h"
#include "support/strings.h"

namespace wrl {

TraceProfiler::TraceProfiler(ProfileOptions options) : options_(options) {
  WRL_CHECK_MSG(options_.window_refs != 0, "profile window_refs must be nonzero");
  window_filter_.fill(kNoKey);
}

TraceProfiler::Space& TraceProfiler::SpaceFor(uint8_t pid) {
  if (Space* space = space_by_pid_[pid]) {
    return *space;
  }
  Space& space = spaces_[pid];
  space.name = pid == kKernelPid ? "kernel" : StrFormat("pid%u", static_cast<unsigned>(pid));
  space_by_pid_[pid] = &space;
  return space;
}

const TraceProfiler::Space* TraceProfiler::FindSpace(uint8_t pid) const {
  auto it = spaces_.find(pid);
  return it == spaces_.end() ? nullptr : &it->second;
}

void TraceProfiler::AddTable(uint8_t pid, const TraceInfoTable* table) {
  WRL_CHECK_MSG(totals_.refs == 0, "profiler tables must be added before the first reference");
  Space& space = SpaceFor(pid);
  space.blocks.clear();
  space.index.clear();
  if (table == nullptr) {
    return;
  }
  // Leaders in address order.  Duplicate leaders (should not happen for
  // well-formed tables) resolve to the smallest key address, so the choice
  // is free of the table's order.
  std::vector<const TraceInfoTable::Entry*> entries;
  entries.reserve(table->size());
  for (const TraceInfoTable::Entry& entry : table->blocks()) {
    entries.push_back(&entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const TraceInfoTable::Entry* a, const TraceInfoTable::Entry* b) {
              return std::pair(a->info.orig_addr, a->key) < std::pair(b->info.orig_addr, b->key);
            });
  for (const TraceInfoTable::Entry* entry : entries) {
    const uint32_t leader = entry->info.orig_addr;
    WRL_CHECK_MSG(leader % 4 == 0, StrFormat("block leader 0x%08x is not word-aligned", leader));
    if (space.blocks.empty() || space.blocks.back().info->orig_addr != leader) {
      space.blocks.push_back({&entry->info});
    }
  }
  if (space.blocks.empty()) {
    return;
  }
  const uint32_t first = space.blocks.front().info->orig_addr;
  const uint32_t span = space.blocks.back().info->orig_addr - first;
  WRL_CHECK_MSG(span < TraceInfoTable::kMaxKeySpanBytes,
                StrFormat("block leaders span 0x%x bytes", span));
  space.index_base = first;
  space.index.assign(span / 4 + 1, nullptr);
  for (Block& block : space.blocks) {
    space.index[(block.info->orig_addr - first) / 4] = &block;
  }
}

void TraceProfiler::AddSymbols(uint8_t pid, const Executable& exe) {
  Space& space = SpaceFor(pid);
  for (const auto& [name, addr] : exe.symbols) {
    if (addr >= exe.text_base && addr < exe.TextEnd()) {
      space.symbols.emplace_back(addr, name);
      space.symbols_sorted = false;
    }
  }
}

void TraceProfiler::AddSymbol(uint8_t pid, const std::string& name, uint32_t addr) {
  Space& space = SpaceFor(pid);
  space.symbols.emplace_back(addr, name);
  space.symbols_sorted = false;
}

void TraceProfiler::SetSpaceName(uint8_t pid, std::string name) {
  SpaceFor(pid).name = std::move(name);
}

const std::pair<uint32_t, std::string>* TraceProfiler::SymbolAtOrBelow(
    const Space& space, uint32_t addr) const {
  if (!space.symbols_sorted) {
    std::sort(space.symbols.begin(), space.symbols.end());
    space.symbols_sorted = true;
  }
  auto it = std::upper_bound(
      space.symbols.begin(), space.symbols.end(), addr,
      [](uint32_t a, const std::pair<uint32_t, std::string>& s) { return a < s.first; });
  if (it == space.symbols.begin()) {
    return nullptr;
  }
  return &*(it - 1);
}

std::string TraceProfiler::Symbolize(uint8_t pid, uint32_t addr) const {
  const Space* space = FindSpace(pid);
  const std::pair<uint32_t, std::string>* sym =
      space == nullptr ? nullptr : SymbolAtOrBelow(*space, addr);
  if (sym == nullptr) {
    return StrFormat("0x%08x", addr);
  }
  uint32_t off = addr - sym->first;
  return off == 0 ? sym->second : StrFormat("%s+0x%x", sym->second.c_str(), off);
}

std::string TraceProfiler::SpaceName(uint8_t pid) const {
  const Space* space = FindSpace(pid);
  if (space != nullptr) {
    return space->name;
  }
  return pid == kKernelPid ? "kernel" : StrFormat("pid%u", static_cast<unsigned>(pid));
}

PageProfile& TraceProfiler::TouchPage(Space& space, uint32_t addr) {
  const uint32_t page = PageBase(addr);
  PageMemo& memo = space.page_memo[MemoSlot(PageOf(addr))];
  if (memo.profile == nullptr || memo.page != page) {
    PageProfile& entry = space.pages[page];
    entry.page_addr = page;
    memo = {page, &entry};
  }
  return *memo.profile;
}

void TraceProfiler::TouchWorkingSet(uint8_t pid, uint32_t addr, uint64_t count) {
  const uint64_t key = (static_cast<uint64_t>(pid) << 32) | PageOf(addr);
  uint64_t& seen = window_filter_[MemoSlot(key)];
  while (count > 0) {
    if (seen != key) {
      window_pages_.insert(key);
      seen = key;
    }
    const uint64_t take = std::min(count, options_.window_refs - window_fill_);
    window_fill_ += take;
    count -= take;
    if (window_fill_ == options_.window_refs) {
      working_set_.push_back(window_pages_.size());
      window_pages_.clear();
      window_filter_.fill(kNoKey);
      window_fill_ = 0;
    }
  }
}

uint32_t TraceProfiler::AdvanceCursor(Space& space, uint32_t count, bool idle) {
  Cursor& cursor = space.stack.back();
  const TraceBlockInfo& info = *cursor.block->info;
  // The index of the fetch that ends the segment: the next memory op's,
  // if the block still reaches it (its fetch then awaits the data), or
  // else the block's last, which pops the cursor.  A block with neither
  // ahead runs on as long as its fetches do.
  uint64_t last = UINT64_MAX;
  bool await = false;
  if (cursor.next_mem < info.mem_ops.size() &&
      info.mem_ops[cursor.next_mem].index >= cursor.next_inst) {
    last = info.mem_ops[cursor.next_mem].index;
    await = true;
  }
  if (info.num_insts > cursor.next_inst && info.num_insts - 1 < last) {
    last = info.num_insts - 1;
    await = false;
  }
  const uint64_t segment = last == UINT64_MAX ? UINT64_MAX : last - cursor.next_inst + 1;
  const uint32_t taken = static_cast<uint32_t>(std::min<uint64_t>(count, segment));
  Block& block = *cursor.block;
  block.insts += taken;
  if (idle) {
    block.idle_insts += taken;
  }
  cursor.next_inst += taken;
  if (taken == segment) {
    if (await) {
      cursor.awaiting = true;
    } else {
      space.stack.pop_back();
    }
  }
  return taken;
}

void TraceProfiler::OnFetchRun(Space& space, const TraceRef& first, uint32_t count) {
  totals_.refs += count;
  totals_.insts += count;
  if (first.kernel) {
    totals_.kernel_insts += count;
  } else {
    totals_.user_insts += count;
  }
  if (first.idle) {
    totals_.idle_insts += count;
  }
  TouchPage(space, first.addr).ifetches += count;
  TouchWorkingSet(first.pid, first.addr, count);

  uint32_t addr = first.addr;
  while (count > 0) {
    // Continuation of the block in progress?  (The parser suspends blocks
    // only at data-await points, so a non-awaiting top cursor's next ifetch
    // is always the expected address on a healthy trace.)
    if (!space.stack.empty()) {
      const Cursor& top = space.stack.back();
      if (!top.awaiting && addr == top.block->info->orig_addr + 4 * top.next_inst) {
        const uint32_t taken = AdvanceCursor(space, count, first.idle);
        addr += 4 * taken;
        count -= taken;
        continue;
      }
    }
    // Block entry (including a nested exception on top of an awaiting
    // cursor): the leader address must be in the space's table.  The new
    // cursor expects this fetch, so the next pass continues it.
    Block* block = space.Find(addr);
    if (block == nullptr) {
      ++totals_.unattributed_insts;
      addr += 4;
      --count;
      continue;
    }
    ++block->entries;
    ++totals_.block_entries;
    space.stack.push_back({block});
  }
}

void TraceProfiler::OnData(Space& space, const TraceRef& ref) {
  ++totals_.refs;
  PageProfile& page = TouchPage(space, ref.addr);
  TouchWorkingSet(ref.pid, ref.addr, 1);
  if (ref.kind == TraceRef::kLoad) {
    ++totals_.loads;
    ++page.loads;
  } else {
    ++totals_.stores;
    ++page.stores;
  }
  if (space.stack.empty() || !space.stack.back().awaiting) {
    ++totals_.unattributed_data;
    return;
  }
  Cursor& top = space.stack.back();
  Block& block = *top.block;
  if (ref.kind == TraceRef::kLoad) {
    ++block.loads;
  } else {
    ++block.stores;
  }
  top.awaiting = false;
  ++top.next_mem;
  if (top.next_inst == block.info->num_insts) {
    space.stack.pop_back();
  }
}

void TraceProfiler::OnRefBatch(const TraceRef* refs, size_t count) {
  for (size_t i = 0; i < count;) {
    const TraceRef& ref = refs[i];
    Space& space = SpaceFor(ref.pid);
    if (ref.kind != TraceRef::kIfetch) {
      OnData(space, ref);
      ++i;
      continue;
    }
    // A run shares its first fetch's pid, page, and kernel and idle flags.
    const size_t run = FetchRunLength(refs + i, count - i);
    OnFetchRun(space, ref, static_cast<uint32_t>(run));
    i += run;
  }
}

Profile TraceProfiler::Finish() const {
  Profile profile;
  profile.totals = totals_;
  profile.window_refs = options_.window_refs;
  profile.working_set = working_set_;
  profile.tail_refs = window_fill_;
  if (window_fill_ > 0) {
    profile.working_set.push_back(window_pages_.size());
  }

  for (const auto& [pid, space] : spaces_) {
    // Blocks, in address order first (the rollup walk), re-sorted by heat
    // below.  A block never entered has no profile.
    std::map<std::pair<uint32_t, std::string>, SymbolProfile> rollup;
    for (const Block& tally : space.blocks) {
      if (tally.entries == 0) {
        continue;
      }
      const uint32_t leader = tally.info->orig_addr;
      BlockProfile block;
      block.pid = pid;
      block.space = space.name;
      block.symbol = Symbolize(pid, leader);
      block.addr = leader;
      block.num_insts = tally.info->num_insts;
      block.instr_words = tally.info->instr_words;
      block.flags = tally.info->flags;
      block.entries = tally.entries;
      block.insts = tally.insts;
      block.loads = tally.loads;
      block.stores = tally.stores;
      block.idle_insts = tally.idle_insts;
      profile.totals.trace_words += block.TraceWords();
      profile.totals.overhead_insts += block.OverheadInsts();

      const std::pair<uint32_t, std::string>* sym = SymbolAtOrBelow(space, leader);
      std::pair<uint32_t, std::string> key =
          sym == nullptr ? std::make_pair(0u, std::string("[unknown]")) : *sym;
      SymbolProfile& entry = rollup[key];
      entry.pid = pid;
      entry.space = space.name;
      entry.name = key.second;
      entry.addr = key.first;
      ++entry.blocks;
      entry.entries += block.entries;
      entry.insts += block.insts;
      entry.loads += block.loads;
      entry.stores += block.stores;
      entry.trace_words += block.TraceWords();
      entry.overhead_insts += block.OverheadInsts();

      profile.blocks.push_back(std::move(block));
    }
    for (auto& [key, entry] : rollup) {
      (void)key;
      profile.symbols.push_back(std::move(entry));
    }

    std::vector<uint32_t> page_addrs;
    page_addrs.reserve(space.pages.size());
    for (const auto& [page, tally] : space.pages) {
      (void)tally;
      page_addrs.push_back(page);
    }
    std::sort(page_addrs.begin(), page_addrs.end());
    for (uint32_t page : page_addrs) {
      PageProfile entry = space.pages.at(page);
      entry.pid = pid;
      entry.space = space.name;
      profile.pages.push_back(std::move(entry));
    }
  }

  std::sort(profile.blocks.begin(), profile.blocks.end(),
            [](const BlockProfile& a, const BlockProfile& b) {
              if (a.insts != b.insts) return a.insts > b.insts;
              if (a.pid != b.pid) return a.pid < b.pid;
              return a.addr < b.addr;
            });
  std::sort(profile.symbols.begin(), profile.symbols.end(),
            [](const SymbolProfile& a, const SymbolProfile& b) {
              if (a.insts != b.insts) return a.insts > b.insts;
              if (a.pid != b.pid) return a.pid < b.pid;
              if (a.addr != b.addr) return a.addr < b.addr;
              return a.name < b.name;
            });
  std::sort(profile.pages.begin(), profile.pages.end(),
            [](const PageProfile& a, const PageProfile& b) {
              if (a.Total() != b.Total()) return a.Total() > b.Total();
              if (a.pid != b.pid) return a.pid < b.pid;
              return a.page_addr < b.page_addr;
            });
  return profile;
}

void Profile::WriteJson(JsonWriter& writer, size_t top) const {
  writer.BeginObject();
  writer.Key("totals");
  writer.BeginObject();
  writer.KV("refs", totals.refs);
  writer.KV("insts", totals.insts);
  writer.KV("loads", totals.loads);
  writer.KV("stores", totals.stores);
  writer.KV("kernel_insts", totals.kernel_insts);
  writer.KV("user_insts", totals.user_insts);
  writer.KV("idle_insts", totals.idle_insts);
  writer.KV("block_entries", totals.block_entries);
  writer.KV("trace_words", totals.trace_words);
  writer.KV("overhead_insts", totals.overhead_insts);
  writer.KV("unattributed_insts", totals.unattributed_insts);
  writer.KV("unattributed_data", totals.unattributed_data);
  writer.EndObject();
  writer.KV("window_refs", window_refs);
  writer.KV("tail_refs", tail_refs);
  writer.KV("page_bytes", static_cast<uint64_t>(page_bytes));
  writer.Key("working_set");
  writer.BeginArray();
  for (uint64_t pages_in_window : working_set) {
    writer.Value(pages_in_window);
  }
  writer.EndArray();

  size_t n_blocks = top == 0 ? blocks.size() : std::min(top, blocks.size());
  writer.Key("blocks");
  writer.BeginArray();
  for (size_t i = 0; i < n_blocks; ++i) {
    const BlockProfile& b = blocks[i];
    writer.BeginObject();
    writer.KV("space", b.space);
    writer.KV("addr", StrFormat("0x%08x", b.addr));
    writer.KV("symbol", b.symbol);
    writer.KV("num_insts", static_cast<uint64_t>(b.num_insts));
    writer.KV("instr_words", static_cast<uint64_t>(b.instr_words));
    writer.KV("entries", b.entries);
    writer.KV("insts", b.insts);
    writer.KV("loads", b.loads);
    writer.KV("stores", b.stores);
    writer.KV("idle_insts", b.idle_insts);
    writer.KV("trace_words", b.TraceWords());
    writer.KV("overhead_insts", b.OverheadInsts());
    writer.EndObject();
  }
  writer.EndArray();

  size_t n_symbols = top == 0 ? symbols.size() : std::min(top, symbols.size());
  writer.Key("symbols");
  writer.BeginArray();
  for (size_t i = 0; i < n_symbols; ++i) {
    const SymbolProfile& s = symbols[i];
    writer.BeginObject();
    writer.KV("space", s.space);
    writer.KV("name", s.name);
    writer.KV("addr", StrFormat("0x%08x", s.addr));
    writer.KV("blocks", s.blocks);
    writer.KV("entries", s.entries);
    writer.KV("insts", s.insts);
    writer.KV("loads", s.loads);
    writer.KV("stores", s.stores);
    writer.KV("trace_words", s.trace_words);
    writer.KV("overhead_insts", s.overhead_insts);
    writer.EndObject();
  }
  writer.EndArray();

  size_t n_pages = top == 0 ? pages.size() : std::min(top, pages.size());
  writer.Key("pages");
  writer.BeginArray();
  for (size_t i = 0; i < n_pages; ++i) {
    const PageProfile& p = pages[i];
    writer.BeginObject();
    writer.KV("space", p.space);
    writer.KV("page", StrFormat("0x%08x", p.page_addr));
    writer.KV("ifetches", p.ifetches);
    writer.KV("loads", p.loads);
    writer.KV("stores", p.stores);
    writer.KV("total", p.Total());
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
}

std::string Profile::FoldedStacks() const {
  std::string out;
  for (const BlockProfile& b : blocks) {
    // Strip the +0xOFF suffix: the folded frame names the covering symbol,
    // the leaf frame carries the exact block address.
    std::string symbol = b.symbol;
    size_t plus = symbol.rfind("+0x");
    if (plus != std::string::npos) {
      symbol.resize(plus);
    }
    out += StrFormat("%s;%s;block_0x%08x %llu\n", b.space.c_str(), symbol.c_str(), b.addr,
                     static_cast<unsigned long long>(b.insts));
  }
  return out;
}

std::string Profile::CanonicalJson() const {
  JsonWriter writer(0);
  WriteJson(writer);
  return writer.TakeString();
}

}  // namespace wrl
