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
  Space& space = SpaceFor(pid);
  space.table = table;
  space.leaders.clear();
  space.leader_keys.clear();
  if (table == nullptr) {
    return;
  }
  space.leaders.reserve(table->size());
  space.leader_keys.reserve(table->size());
  for (const auto& [key_addr, info] : table->blocks()) {
    auto it = space.leader_keys.find(info.orig_addr);
    // Duplicate leaders (should not happen for well-formed tables) resolve
    // to the smallest key address so the choice is iteration-order-free.
    if (it == space.leader_keys.end() || key_addr < it->second) {
      space.leader_keys[info.orig_addr] = key_addr;
      space.leaders[info.orig_addr] = &info;
    }
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

void TraceProfiler::TouchPage(Space& space, const TraceRef& ref) {
  const uint32_t page = (ref.addr >> kPageShift) << kPageShift;
  PageMemo& memo = space.page_memo[MemoSlot(page >> kPageShift)];
  if (memo.profile == nullptr || memo.page != page) {
    PageProfile& entry = space.pages[page];
    entry.page_addr = page;
    memo = {page, &entry};
  }
  PageProfile& tally = *memo.profile;
  switch (ref.kind) {
    case TraceRef::kIfetch:
      ++tally.ifetches;
      break;
    case TraceRef::kLoad:
      ++tally.loads;
      break;
    case TraceRef::kStore:
      ++tally.stores;
      break;
  }
}

void TraceProfiler::TouchWorkingSet(uint8_t pid, uint32_t addr) {
  const uint64_t key = (static_cast<uint64_t>(pid) << 32) | (addr >> kPageShift);
  uint64_t& seen = window_filter_[MemoSlot(key)];
  if (seen != key) {
    window_pages_.insert(key);
    seen = key;
  }
  if (++window_fill_ == options_.window_refs) {
    working_set_.push_back(window_pages_.size());
    window_pages_.clear();
    window_filter_.fill(kNoKey);
    window_fill_ = 0;
  }
}

void TraceProfiler::AdvanceCursor(Space& space, const TraceRef& ref) {
  Cursor& cursor = space.stack.back();
  BlockTally& tally = *cursor.tally;
  ++tally.insts;
  if (ref.idle) {
    ++tally.idle_insts;
  }
  ++cursor.next_inst;
  const TraceBlockInfo& info = *cursor.info;
  if (cursor.next_mem < info.mem_ops.size() &&
      info.mem_ops[cursor.next_mem].index == cursor.next_inst - 1) {
    cursor.awaiting = true;
  } else if (cursor.next_inst == info.num_insts) {
    space.stack.pop_back();
  }
}

void TraceProfiler::OnRef(const TraceRef& ref) {
  Space& space = SpaceFor(ref.pid);
  ++totals_.refs;
  TouchPage(space, ref);
  TouchWorkingSet(ref.pid, ref.addr);

  if (ref.kind == TraceRef::kIfetch) {
    ++totals_.insts;
    if (ref.kernel) {
      ++totals_.kernel_insts;
    } else {
      ++totals_.user_insts;
    }
    if (ref.idle) {
      ++totals_.idle_insts;
    }
    // Continuation of the block in progress?  (The parser suspends blocks
    // only at data-await points, so a non-awaiting top cursor's next ifetch
    // is always the expected address on a healthy trace.)
    if (!space.stack.empty()) {
      Cursor& top = space.stack.back();
      if (!top.awaiting && ref.addr == top.info->orig_addr + 4 * top.next_inst) {
        AdvanceCursor(space, ref);
        return;
      }
    }
    // Block entry (including a nested exception on top of an awaiting
    // cursor): the leader address must be in the space's table.
    auto it = space.leaders.find(ref.addr);
    if (it == space.leaders.end()) {
      ++totals_.unattributed_insts;
      return;
    }
    BlockTally& tally = space.tallies[ref.addr];
    tally.info = it->second;
    ++tally.entries;
    Cursor cursor;
    cursor.info = it->second;
    cursor.tally = &tally;
    space.stack.push_back(cursor);
    ++totals_.block_entries;
    AdvanceCursor(space, ref);
    return;
  }

  // Data reference.
  if (ref.kind == TraceRef::kLoad) {
    ++totals_.loads;
  } else {
    ++totals_.stores;
  }
  if (space.stack.empty() || !space.stack.back().awaiting) {
    ++totals_.unattributed_data;
    return;
  }
  Cursor& top = space.stack.back();
  BlockTally& tally = *top.tally;
  if (ref.kind == TraceRef::kLoad) {
    ++tally.loads;
  } else {
    ++tally.stores;
  }
  top.awaiting = false;
  ++top.next_mem;
  if (top.next_inst == top.info->num_insts) {
    space.stack.pop_back();
  }
}

void TraceProfiler::OnRefBatch(const TraceRef* refs, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    OnRef(refs[i]);
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
    // below.
    std::vector<uint32_t> leaders;
    leaders.reserve(space.tallies.size());
    for (const auto& [leader, tally] : space.tallies) {
      (void)tally;
      leaders.push_back(leader);
    }
    std::sort(leaders.begin(), leaders.end());

    std::map<std::pair<uint32_t, std::string>, SymbolProfile> rollup;
    for (uint32_t leader : leaders) {
      const BlockTally& tally = space.tallies.at(leader);
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
