#include "kernel/system_build.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "asm/assembler.h"
#include "kernel/kernel_asm.h"
#include "support/error.h"
#include "support/strings.h"
#include "trace/abi.h"
#include "trace/support_asm.h"

namespace wrl {
namespace {

void Put32(std::vector<uint8_t>& v, size_t off, uint32_t val) {
  WRL_CHECK(off + 4 <= v.size());
  std::memcpy(v.data() + off, &val, 4);
}

ObjectFile MakeUserAbsSymbols() {
  ObjectFile obj;
  obj.source_name = "user-abs";
  Symbol bk;
  bk.name = "bk_area";
  bk.value = kUserBkBase;
  bk.section = SectionId::kAbs;
  bk.global = true;
  obj.symbols.push_back(bk);
  return obj;
}

uint32_t PagesFor(uint32_t bytes) { return (bytes + kPageBytes - 1) / kPageBytes; }

uint32_t Gcd(uint32_t a, uint32_t b) { return b == 0 ? a : Gcd(b, a % b); }

}  // namespace

void BuildDiskImage(const std::vector<DiskFile>& files, PhysMem& image) {
  WRL_CHECK_MSG(files.size() <= kFsDirEntries, "too many files for the flat filesystem");
  const uint64_t disk_sectors = image.size() / kDiskSectorBytes;
  uint64_t next_sector = kFsBlockSectors;  // Data starts at the first block boundary.
  for (size_t i = 0; i < files.size(); ++i) {
    const DiskFile& f = files[i];
    WRL_CHECK_MSG(f.name.size() < kFsNameBytes, "file name too long");
    // 64-bit sums: in 32 bits a huge extra_capacity wraps to a tiny length
    // and the next file lands on top of this one.
    uint64_t length = static_cast<uint64_t>(f.content.size()) + f.extra_capacity;
    uint64_t sectors = (length + kDiskSectorBytes - 1) / kDiskSectorBytes;
    // Round the allocation to block boundaries so files never share blocks.
    sectors = (sectors + kFsBlockSectors - 1) / kFsBlockSectors * kFsBlockSectors;
    if (length > UINT32_MAX || next_sector + sectors > disk_sectors) {
      throw Error(StrFormat("disk file '%s' (%llu bytes) does not fit: it needs sectors "
                            "[%llu, %llu) of a %llu-sector disk",
                            f.name.c_str(), static_cast<unsigned long long>(length),
                            static_cast<unsigned long long>(next_sector),
                            static_cast<unsigned long long>(next_sector + sectors),
                            static_cast<unsigned long long>(disk_sectors)));
    }
    uint8_t* entry = image.data() + i * 32;
    const uint32_t dir_sector = static_cast<uint32_t>(next_sector);
    const uint32_t dir_length = static_cast<uint32_t>(length);
    std::memcpy(entry, f.name.c_str(), f.name.size() + 1);
    std::memcpy(entry + 24, &dir_sector, 4);
    std::memcpy(entry + 28, &dir_length, 4);
    if (!f.content.empty()) {
      std::memcpy(image.data() + next_sector * kDiskSectorBytes, f.content.data(),
                  f.content.size());
    }
    next_sector += sectors;
  }
}

std::string UserLibAsm() {
  std::string s = R"(
        .text
        .globl _start
_start:
        jal  main
        nop
        move $a0, $v0
        li   $v0, 1              # exit(main())
        syscall
        nop
ul_spin:
        b    ul_spin
        nop
)";
  struct Stub {
    const char* name;
    uint32_t number;
  };
  const Stub stubs[] = {
      {"write", kSysWrite},        {"read", kSysRead},
      {"open", kSysOpen},          {"close", kSysClose},
      {"sbrk", kSysSbrk},          {"gettime", kSysGetTime},
      {"getpid", kSysGetPid},      {"utlbcount", kSysUtlbCount},
      {"yield", kSysYield},        {"msg_send", kSysMsgSend},
      {"msg_recv", kSysMsgRecv},   {"dev_disk_read", kSysDevDiskRead},
      {"dev_disk_write", kSysDevDiskWrite}, {"vm_copy", kSysVmCopy},
  };
  for (const Stub& stub : stubs) {
    s += StrFormat(R"(
        .globl %s
%s:
        li   $v0, %u
        syscall
        jr   $ra
        nop
)",
                   stub.name, stub.name, stub.number);
  }
  return s;
}

std::string ServerAsm() {
  // The Mach UNIX server: user-level filesystem code (directory lookup,
  // an 8-block cache, write-through) over microkernel device I/O, with
  // vm_copy moving data between the caller's address space and the
  // server's cache.  System code running as user code — exactly the
  // structural difference behind Mach's much larger *user* TLB miss counts
  // in Table 3.
  return R"(
        .globl main
main:
        addiu $sp, $sp, -8
        # Load the directory.
        li   $a0, 0
        la   $a1, srv_dir
        li   $a2, 1
        jal  dev_disk_read
        nop
srv_loop:
        li   $a0, 0
        la   $a1, srv_msg
        jal  msg_recv
        nop
        la   $t0, srv_msg
        lw   $s0, 0($t0)         # op
        lw   $s1, 4($t0)         # a0 (fd or name ptr)
        lw   $s2, 8($t0)         # a1 (buffer)
        lw   $s3, 12($t0)        # a2 (length)
        lw   $s4, 16($t0)        # caller pid
        li   $t1, 4
        beq  $s0, $t1, srv_open
        nop
        li   $t1, 3
        beq  $s0, $t1, srv_read
        nop
        li   $t1, 2
        beq  $s0, $t1, srv_write
        nop
        li   $t1, 5
        beq  $s0, $t1, srv_close
        nop
        addiu $v0, $zero, -1
        b    srv_reply
        nop

# --- open: the kernel copied the name into the message -------------------
srv_open:
        la   $s5, srv_msg
        addiu $s5, $s5, 20       # name
        la   $s6, srv_dir
        li   $s7, 0
so_scan:
        sltiu $t0, $s7, 16
        beq  $t0, $zero, so_notfound
        nop
        sll  $t0, $s7, 5
        addu $t1, $s6, $t0
        lb   $t2, 0($t1)
        beq  $t2, $zero, so_next
        nop
        move $t2, $s5
so_cmp:
        lbu  $t3, 0($t2)
        lbu  $t4, 0($t1)
        bne  $t3, $t4, so_next
        nop
        beq  $t3, $zero, so_found
        nop
        addiu $t2, $t2, 1
        b    so_cmp
        addiu $t1, $t1, 1
so_next:
        b    so_scan
        addiu $s7, $s7, 1
so_notfound:
        addiu $v0, $zero, -1
        b    srv_reply
        nop
so_found:
        la   $t0, srv_fd
        lw   $t1, 0($t0)
        beq  $t1, $zero, so_fd3
        nop
        lw   $t1, 8($t0)
        beq  $t1, $zero, so_fd4
        nop
        addiu $v0, $zero, -1
        b    srv_reply
        nop
so_fd3:
        addiu $t1, $s7, 1
        sw   $t1, 0($t0)
        sw   $zero, 4($t0)
        li   $v0, 3
        b    srv_reply
        nop
so_fd4:
        addiu $t1, $s7, 1
        sw   $t1, 8($t0)
        sw   $zero, 12($t0)
        li   $v0, 4
        b    srv_reply
        nop

srv_close:
        jal  srv_fd_entry
        nop
        bltz $v1, srv_badfd
        nop
        sw   $zero, 0($v1)
        li   $v0, 0
        b    srv_reply
        nop
srv_badfd:
        addiu $v0, $zero, -1
        b    srv_reply
        nop

# --- fd entry for fd in s1 -> v1 (or -1) ----------------------------------
srv_fd_entry:
        addiu $t0, $s1, -3
        sltiu $t1, $t0, 2
        beq  $t1, $zero, sfe_bad
        nop
        sll  $t0, $t0, 3
        la   $v1, srv_fd
        addu $v1, $v1, $t0
        lw   $t0, 0($v1)
        beq  $t0, $zero, sfe_bad
        nop
        jr   $ra
        nop
sfe_bad:
        addiu $v1, $zero, -1
        jr   $ra
        nop

# --- read ------------------------------------------------------------------
srv_read:
        jal  srv_fd_entry
        nop
        bltz $v1, srv_badfd
        nop
        move $s5, $v1            # fd entry
        lw   $t0, 0($s5)
        addiu $t0, $t0, -1
        sll  $t0, $t0, 5
        la   $t1, srv_dir
        addu $t1, $t1, $t0
        lw   $s6, 24($t1)        # start sector
        sll  $s6, $s6, 9         # start byte
        lw   $t2, 28($t1)        # file length
        lw   $s7, 4($s5)         # position
        subu $t0, $t2, $s7
        sltu $t1, $t0, $s3
        beq  $t1, $zero, sr_lenok
        nop
        move $s3, $t0            # clamp remaining to EOF
sr_lenok:
        blez $s3, sr_zero
        nop
        li   $s0, 0              # progress
sr_loop:
        sltu $t0, $s0, $s3
        beq  $t0, $zero, sr_done
        nop
        addu $t0, $s7, $s0
        addu $t0, $s6, $t0       # absolute byte
        srl  $a0, $t0, 12        # block
        andi $s1, $t0, 0xfff     # offset in block (s1 reused; fd done)
        jal  srv_get_block       # v0 = cache slot
        nop
        # chunk = min(4096 - off, remaining - progress)
        li   $t2, 4096
        subu $t2, $t2, $s1
        subu $t3, $s3, $s0
        sltu $t4, $t3, $t2
        beq  $t4, $zero, sr_chunk
        nop
        move $t2, $t3
sr_chunk:
        # vm_copy(caller, caller_buf + progress, cacheblock + off, chunk)
        move $a0, $s4
        addu $a1, $s2, $s0
        sll  $a2, $v0, 12
        la   $t0, srv_cache_data
        addu $a2, $t0, $a2
        addu $a2, $a2, $s1
        move $a3, $t2            # direction 0: local -> remote
        jal  vm_copy
        nop
        b    sr_loop
        addu $s0, $s0, $t2
sr_done:
        addu $s7, $s7, $s3
        sw   $s7, 4($s5)
        move $v0, $s3
        b    srv_reply
        nop
sr_zero:
        li   $v0, 0
        b    srv_reply
        nop

# --- write -----------------------------------------------------------------
srv_write:
        jal  srv_fd_entry
        nop
        bltz $v1, srv_badfd
        nop
        move $s5, $v1
        lw   $t0, 0($s5)
        addiu $t0, $t0, -1
        sll  $t0, $t0, 5
        la   $t1, srv_dir
        addu $t1, $t1, $t0
        lw   $s6, 24($t1)
        sll  $s6, $s6, 9
        lw   $t2, 28($t1)
        lw   $s7, 4($s5)
        subu $t0, $t2, $s7
        sltu $t1, $t0, $s3
        beq  $t1, $zero, sw_lenok
        nop
        move $s3, $t0
sw_lenok:
        blez $s3, sr_zero
        nop
        li   $s0, 0
sw_loop:
        sltu $t0, $s0, $s3
        beq  $t0, $zero, sw_done
        nop
        addu $t0, $s7, $s0
        addu $t0, $s6, $t0
        srl  $a0, $t0, 12
        andi $s1, $t0, 0xfff
        jal  srv_get_block
        nop
        li   $t2, 4096
        subu $t2, $t2, $s1
        subu $t3, $s3, $s0
        sltu $t4, $t3, $t2
        beq  $t4, $zero, sw_chunk
        nop
        move $t2, $t3
sw_chunk:
        # vm_copy(caller, caller_buf + progress, cacheblock + off, chunk)
        # with direction 1: remote -> local.
        move $a0, $s4
        addu $a1, $s2, $s0
        sll  $a2, $v0, 12
        la   $t0, srv_cache_data
        addu $a2, $t0, $a2
        addu $a2, $a2, $s1
        lui  $a3, 0x8000
        or   $a3, $a3, $t2
        move $s1, $v0            # keep the slot across the calls
        jal  vm_copy
        nop
        # Write-through: flush the whole block to disk.
        la   $t0, srv_cache_hdr
        sll  $t1, $s1, 3
        addu $t0, $t0, $t1
        lw   $a0, 0($t0)         # block number
        sll  $a0, $a0, 3         # sector
        sll  $a1, $s1, 12
        la   $t1, srv_cache_data
        addu $a1, $t1, $a1
        li   $a2, 8
        jal  dev_disk_write
        nop
        b    sw_loop
        addu $s0, $s0, $t2
sw_done:
        addu $s7, $s7, $s3
        sw   $s7, 4($s5)
        move $v0, $s3
        b    srv_reply
        nop

# --- srv_get_block: a0 = block -> v0 = slot --------------------------------
srv_get_block:
        addiu $sp, $sp, -12
        sw   $ra, 8($sp)
        sw   $a0, 4($sp)
        la   $t0, srv_cache_hdr
        li   $v0, 0
sgb_scan:
        sltiu $t1, $v0, 8
        beq  $t1, $zero, sgb_miss
        nop
        sll  $t1, $v0, 3
        addu $t1, $t0, $t1
        lw   $t2, 0($t1)
        bne  $t2, $a0, sgb_next
        nop
        lw   $t2, 4($t1)
        beq  $t2, $zero, sgb_next
        nop
        lw   $ra, 8($sp)
        jr   $ra
        addiu $sp, $sp, 12
sgb_next:
        b    sgb_scan
        addiu $v0, $v0, 1
sgb_miss:
        la   $t0, srv_cache_hand
        lw   $v0, 0($t0)
        addiu $t1, $v0, 1
        andi $t1, $t1, 7
        sw   $t1, 0($t0)
        sw   $v0, 0($sp)
        # dev_disk_read(block*8, slot data, 8)
        lw   $a0, 4($sp)
        sll  $a0, $a0, 3
        sll  $a1, $v0, 12
        la   $t0, srv_cache_data
        addu $a1, $t0, $a1
        li   $a2, 8
        jal  dev_disk_read
        nop
        lw   $v0, 0($sp)
        la   $t0, srv_cache_hdr
        sll  $t1, $v0, 3
        addu $t0, $t0, $t1
        lw   $t2, 4($sp)
        sw   $t2, 0($t0)
        li   $t2, 1
        sw   $t2, 4($t0)
        lw   $ra, 8($sp)
        jr   $ra
        addiu $sp, $sp, 12

# --- reply -----------------------------------------------------------------
srv_reply:
        la   $t0, srv_out
        sw   $zero, 0($t0)
        sw   $v0, 4($t0)
        sw   $zero, 8($t0)
        sw   $zero, 12($t0)
        sw   $s4, 16($t0)
        li   $a0, 1
        move $a1, $t0
        jal  msg_send
        nop
        j    srv_loop
        nop

        .bss
        .align 8
srv_msg:        .space 32
srv_out:        .space 32
srv_dir:        .space 512
srv_fd:         .space 16
srv_cache_hdr:  .space 64
srv_cache_hand: .space 4
        .align 4096
srv_cache_data: .space 32768
)";
}

// ---- System building ------------------------------------------------------

namespace {

struct BuiltProgram {
  Executable orig;
  Executable traced;
  TraceInfoTable table;
  double text_growth = 1.0;  // Combined epoxie dilation across the objects.
  uint64_t elided_ra_saves = 0;
  uint64_t scavenged_windows = 0;
};

BuiltProgram BuildUserProgram(const std::string& name, const std::string& source, bool tracing,
                              bool scavenge) {
  BuiltProgram out;
  ObjectFile userlib = Assemble("userlib.s", UserLibAsm());
  ObjectFile prog = Assemble(name + ".s", source);

  LinkOptions orig_opts;
  orig_opts.text_base = kUserTextBase;
  out.orig = Link({userlib, prog}, orig_opts);

  if (!tracing) {
    return out;
  }
  EpoxieConfig econfig;
  econfig.scavenge = scavenge;
  InstrumentResult ilib = Instrument(userlib, econfig);
  InstrumentResult iprog = Instrument(prog, econfig);
  out.elided_ra_saves = ilib.elided_ra_saves + iprog.elided_ra_saves;
  out.scavenged_windows = ilib.scavenged_windows + iprog.scavenged_windows;
  ObjectFile support = Assemble("support.s", TraceSupportAsm());
  ObjectFile abs = MakeUserAbsSymbols();
  LinkOptions traced_opts;
  traced_opts.text_base = kUserTracedTextBase;
  traced_opts.fixed_data_base = out.orig.data_base;
  out.traced = Link({ilib.object, iprog.object, support, abs}, traced_opts);
  WRL_CHECK_MSG(out.traced.bss_base == out.orig.bss_base,
                "instrumented user bss moved; data addresses would not match");
  out.table.AddObject(ilib.blocks, out.traced.object_text_bases[0], out.orig.object_text_bases[0]);
  out.table.AddObject(iprog.blocks, out.traced.object_text_bases[1], out.orig.object_text_bases[1]);
  uint32_t orig_words = ilib.original_text_words + iprog.original_text_words;
  if (orig_words > 0) {
    out.text_growth =
        static_cast<double>(ilib.instrumented_text_words + iprog.instrumented_text_words) /
        orig_words;
  }
  return out;
}

}  // namespace

std::unique_ptr<SystemInstance> BuildSystem(const SystemConfig& config) {
  auto sys_owner = std::make_unique<SystemInstance>();
  SystemInstance& sys = *sys_owner;
  sys.config_ = config;

  // ---- Kernel ----
  ObjectFile kernel_obj = Assemble("kernel.s", KernelAsm());
  ObjectFile support = Assemble("support.s", TraceSupportAsm());
  LinkOptions kopts;
  kopts.text_base = kKseg0;
  kopts.fixed_data_base = kKernelDataBase;
  kopts.entry_symbol = "_start";
  Executable kernel_orig = Link({kernel_obj, support}, kopts);
  sys.kernel_orig_ = kernel_orig;

  if (config.tracing) {
    EpoxieConfig econfig;
    econfig.scavenge = config.scavenge;
    InstrumentResult ikernel = Instrument(kernel_obj, econfig);
    sys.kernel_text_growth_ = ikernel.TextGrowthFactor();
    sys.elided_ra_saves_ += ikernel.elided_ra_saves;
    sys.scavenged_windows_ += ikernel.scavenged_windows;
    sys.kernel_exe_ = Link({ikernel.object, support}, kopts);
    sys.kernel_table_.AddObject(ikernel.blocks, sys.kernel_exe_.object_text_bases[0],
                                kernel_orig.object_text_bases[0]);
    // The vectors are in the leading no-trace region: their offsets must
    // survive instrumentation exactly.
    WRL_CHECK_MSG(sys.kernel_exe_.SymbolAddress("_start") == kKseg0,
                  "instrumented kernel vectors moved");
  } else {
    sys.kernel_exe_ = kernel_orig;
  }
  // Keep an original-kernel copy for idle-range and analysis addressing.
  sys.workload_orig_ = Executable{};  // Set below.

  // ---- User programs ----
  bool mach = config.personality == Personality::kMach;
  BuiltProgram workload = BuildUserProgram(config.program_name, config.program_source,
                                           config.tracing, config.scavenge);
  sys.workload_orig_ = workload.orig;
  sys.workload_exe_ = config.tracing ? workload.traced : workload.orig;
  sys.user_table_ = std::move(workload.table);
  sys.workload_text_growth_ = workload.text_growth;
  sys.elided_ra_saves_ += workload.elided_ra_saves;
  sys.scavenged_windows_ += workload.scavenged_windows;

  BuiltProgram server;
  if (mach) {
    server = BuildUserProgram("server", ServerAsm(), config.tracing, config.scavenge);
    sys.server_orig_ = server.orig;
    sys.server_exe_ = config.tracing ? server.traced : server.orig;
    sys.server_table_ = std::move(server.table);
    sys.server_text_growth_ = server.text_growth;
    sys.elided_ra_saves_ += server.elided_ra_saves;
    sys.scavenged_windows_ += server.scavenged_windows;
  }

  // ---- Machine ----
  MachineConfig mconfig;
  mconfig.phys_bytes = kOsPhysBytes;
  mconfig.timing = true;
  mconfig.disk = config.disk;
  mconfig.fastpath = config.fastpath;
  sys.machine_ = std::make_unique<Machine>(mconfig);
  Machine& m = *sys.machine_;
  BuildDiskImage(config.files, m.disk().image());
  m.LoadImage(sys.kernel_exe_, [](uint32_t v) { return v - kKseg0; });

  // ---- Per-process layout and premapping ----
  uint32_t nprocs = mach ? 2 : 1;
  std::vector<uint8_t> params(kBootHeaderBytes + kMaxProcs * kBootProcStride, 0);
  std::vector<std::pair<uint32_t, uint32_t>> mappings;  // (vpn|flags<<24, pfn)
  uint32_t next_frame = kUserFramePoolPhys >> kPageShift;

  auto build_process = [&](uint32_t pid, const Executable& mapped, const Executable& orig) {
    SystemInstance::ProcLayout layout;
    // Slices within the process's frame region: data+heap, stack, trace,
    // text.  TranslateUserPage maps each page into its slice.
    uint32_t data_vpn0 = orig.data_base >> kPageShift;
    // The initial break is 8-aligned so sbrk hands out aligned regions.
    uint32_t heap_start = (orig.bss_base + orig.bss_size + 7) & ~7u;
    uint32_t data_pages =
        PagesFor(heap_start + kUserHeapBytes - orig.data_base);
    // The scrambled permutation needs gcd(mult, pages) == 1.
    while (config.policy == PagePolicy::kScrambled &&
           Gcd(config.policy_mult, data_pages) != 1) {
      ++data_pages;
    }
    uint32_t stack_vpn0 = (kUserStackTop >> kPageShift) - kUserStackPages;
    uint32_t trace_vpn0 = kUserTraceBufBase >> kPageShift;
    uint32_t trace_pages = (kUserTraceBufBytes >> kPageShift) + 1;  // + bookkeeping page
    uint32_t text_vpn0 = mapped.text_base >> kPageShift;
    uint32_t text_pages = PagesFor(static_cast<uint32_t>(mapped.text.size()));

    layout.region_base_page = next_frame;
    layout.data_slice_page = 0;
    layout.data_vpn0 = data_vpn0;
    layout.data_slice_pages = data_pages;
    layout.stack_slice_page = data_pages;
    layout.stack_vpn0 = stack_vpn0;
    layout.trace_slice_page = data_pages + kUserStackPages;
    layout.trace_vpn0 = trace_vpn0;
    layout.text_slice_page = layout.trace_slice_page + trace_pages;
    layout.text_vpn0 = text_vpn0;
    layout.region_pages = layout.text_slice_page + text_pages;
    next_frame += layout.region_pages;
    WRL_CHECK_MSG((next_frame << kPageShift) <= kOsPhysBytes, "out of user frames");

    // Pushed first: every premapped page and trace routine lands where
    // TranslateUserPage, the page map the predictor reads, puts it.
    sys.layouts_.push_back(layout);

    // Page content assembly.
    auto page_bytes = [&](uint32_t vpn) -> std::vector<uint8_t> {
      std::vector<uint8_t> page(kPageBytes, 0);
      uint32_t base = vpn << kPageShift;
      auto blend = [&](uint32_t seg_base, const std::vector<uint8_t>& seg) {
        if (base + kPageBytes <= seg_base || base >= seg_base + seg.size()) {
          return;
        }
        uint32_t lo = std::max(base, seg_base);
        uint32_t hi = std::min(base + kPageBytes, seg_base + static_cast<uint32_t>(seg.size()));
        std::memcpy(page.data() + (lo - base), seg.data() + (lo - seg_base), hi - lo);
      };
      blend(mapped.text_base, mapped.text);
      blend(mapped.data_base, mapped.data);
      if (vpn == (kUserBkBase >> kPageShift)) {
        // Bookkeeping page: preset LIMIT and BUF_START.
        uint32_t bk_off = kUserBkBase & (kPageBytes - 1);
        uint32_t limit = kUserTraceBufBase + kUserTraceBufBytes - kTraceSlackBytes;
        std::memcpy(page.data() + bk_off + kBkLimit, &limit, 4);
        uint32_t start = kUserTraceBufBase;
        std::memcpy(page.data() + bk_off + kBkBufStart, &start, 4);
      }
      return page;
    };

    uint32_t premap_start = static_cast<uint32_t>(mappings.size());
    auto premap = [&](uint32_t vpn, bool writable) {
      uint32_t pfn = sys.TranslateUserPage(pid, vpn);
      mappings.emplace_back(vpn | (writable ? (1u << 24) : 0), pfn);
      std::vector<uint8_t> content = page_bytes(vpn);
      uint32_t paddr = static_cast<uint32_t>(static_cast<size_t>(pfn) << kPageShift);
      std::memcpy(m.phys().data() + paddr, content.data(), kPageBytes);
      m.InvalidateDecodeRange(paddr, kPageBytes);
    };
    for (uint32_t i = 0; i < text_pages; ++i) {
      premap(text_vpn0 + i, false);
    }
    uint32_t image_data_pages = PagesFor(heap_start - orig.data_base);
    for (uint32_t i = 0; i < image_data_pages; ++i) {
      premap(data_vpn0 + i, true);
    }
    for (uint32_t i = 0; i < kUserStackPages; ++i) {
      premap(stack_vpn0 + i, true);
    }
    if (config.tracing) {
      for (uint32_t i = 0; i + 1 < trace_pages; ++i) {
        premap(trace_vpn0 + i, true);
      }
      premap(kUserBkBase >> kPageShift, true);
    }
    uint32_t premap_count = static_cast<uint32_t>(mappings.size()) - premap_start;

    // Boot parameter process entry.
    size_t e = kBootHeaderBytes + (pid - 1) * kBootProcStride;
    Put32(params, e + 0, mapped.entry);
    Put32(params, e + 4, kUserStackTop - 16);
    Put32(params, e + 8, layout.region_base_page + layout.data_slice_page);
    Put32(params, e + 12, layout.data_slice_pages);
    Put32(params, e + 16, heap_start);
    Put32(params, e + 20, orig.data_base + data_pages * kPageBytes);
    Put32(params, e + 24, premap_count);
    Put32(params, e + 28, premap_start);
    Put32(params, e + 32, PagesFor(heap_start - orig.data_base));  // heap alloc counter start
    if (config.tracing) {
      Put32(params, e + 36, mapped.SymbolAddress("bbtrace_bump"));
      Put32(params, e + 40, mapped.SymbolAddress("memtrace_bump"));
      // No later host write touches the process's frames.
      RegisterTraceRoutines(m, mapped, [&](uint32_t vaddr) {
        return (sys.TranslateUserPage(pid, vaddr >> kPageShift) << kPageShift) |
               (vaddr & (kPageBytes - 1));
      });
    }
  };

  build_process(1, sys.workload_exe_, sys.workload_orig_);
  if (mach) {
    build_process(2, sys.server_exe_, server.orig);
  }

  // ---- Boot parameter header ----
  uint32_t trace_buf_phys = kKernelTraceBufAddr - kKseg0;
  WRL_CHECK(config.trace_buf_bytes <= kKernelTraceBufMaxBytes);
  Put32(params, 0, kBootMagic);
  Put32(params, 4, static_cast<uint32_t>(config.personality));
  Put32(params, 8, config.tracing ? 1 : 0);
  Put32(params, 12, config.clock_period);
  Put32(params, 16, nprocs);
  Put32(params, 20, trace_buf_phys);
  Put32(params, 24, config.trace_buf_bytes);
  Put32(params, 28, static_cast<uint32_t>(config.policy));
  Put32(params, 32, config.policy_mult);
  Put32(params, 36, mach ? 2 : 0);
  Put32(params, 40, kPtPoolPhysBase >> kPageShift);
  Put32(params, 44, kPtPoolPages);
  uint32_t mapping_phys = kBootParamsPhys + 0x8000;
  Put32(params, 48, mapping_phys);
  Put32(params, 52, kAnalysisCyclesPerWord);

  m.PhysWrite(kBootParamsPhys, params);
  std::vector<uint8_t> map_bytes(mappings.size() * 8);
  for (size_t i = 0; i < mappings.size(); ++i) {
    Put32(map_bytes, i * 8, mappings[i].first);
    Put32(map_bytes, i * 8 + 4, mappings[i].second);
  }
  if (!map_bytes.empty()) {
    m.PhysWrite(mapping_phys, map_bytes);
  }

  // ---- Tracing transport ----
  if (config.tracing) {
    // After the last host write to simulated memory, which would drop them.
    RegisterTraceRoutines(m, sys.kernel_exe_, [](uint32_t vaddr) { return vaddr - kKseg0; });
    sys.ktrace_ptr_addr_ = sys.kernel_exe_.SymbolAddress("ktrace_ptr") - kKseg0;
    sys.ktrace_base_ = trace_buf_phys;
    SystemInstance* sys_ptr = &sys;
    m.set_hostcall_handler([sys_ptr](uint32_t value) -> uint32_t {
      if (value == 1) {
        sys_ptr->DrainTrace();
        return kAnalysisCyclesPerWord * static_cast<uint32_t>(sys_ptr->last_drain_words_);
      }
      return 0;
    });
  }

  return sys_owner;
}

// ---- Publishing the finished prefix of the in-kernel trace buffer ----
//
// Which words are finished (kernel_asm.cc): the kernel stores ktrace_ptr
// only after writing every word below it — after ue_drain_loop and the
// MKENTER pair (ne_nobump), in nx_marker, user_exit, write_marker, at
// kflush, and before the halt (ks_done, kernel_sys_asm.cc) — so within one
// fill the words below the stored pointer never change again and the
// pointer only grows.  It moves back to the base only at the end of
// analysis_drain, after the drain hostcall; while suspended the kernel
// leaves it at the drained fill level.
//
// So the host keeps `published_words_`, the words of the current fill
// already handed over, and after each drain `drained_fill_`.  A poll
// publishes nothing while the pointer still reads the drained fill; any
// other value means the kernel reset the buffer, and publishing restarts
// at word 0.  (Were the kernel to refill the buffer to exactly the drained
// level between two polls, that would read as "not reset yet": those words
// wait for the next poll that reads another value, or for the next drain,
// which restarts at 0 too — delayed, never lost or resent.)  Any other
// pointer below `published_words_` breaks the invariant and throws instead
// of resending words.  Cut points depend only on instruction counts and
// kernel state, never on the sink or the host, so they are deterministic.

// Instructions between two polls of the kernel's trace pointer, and the
// fewest finished words (64 KB) a poll hands over.
constexpr uint64_t kPublishSliceInstructions = uint64_t{1} << 16;
constexpr size_t kPublishMinWords = size_t{1} << 14;

std::optional<size_t> SystemInstance::TraceFillWords() const {
  const uint32_t ptr = machine_->PhysRead32(ktrace_ptr_addr_);
  const uint32_t base_v = ktrace_base_ + kKseg0;
  if (ptr < base_v) {
    return std::nullopt;
  }
  WRL_CHECK_MSG((ptr & 3) == 0 && ptr - base_v <= config_.trace_buf_bytes,
                StrFormat("kernel trace pointer 0x%08x outside the %u-byte buffer at 0x%08x", ptr,
                          config_.trace_buf_bytes, base_v));
  return (ptr - base_v) / 4;
}

void SystemInstance::PublishTrace(size_t min_words) {
  const std::optional<size_t> fill = TraceFillWords();
  if (!fill) {
    return;
  }
  if (drained_fill_) {
    if (*fill == *drained_fill_) {
      return;  // The kernel has not reset the drained buffer yet.
    }
    drained_fill_.reset();
    published_words_ = 0;
  }
  WRL_CHECK_MSG(*fill >= published_words_,
                StrFormat("kernel trace pointer moved back from word %zu to %zu without a drain",
                          published_words_, *fill));
  const size_t words = *fill - published_words_;
  if (words == 0 || words < min_words) {
    return;
  }
  if (trace_sink_) {
    trace_sink_(reinterpret_cast<const uint32_t*>(machine_->phys().data() + ktrace_base_) +
                    published_words_,
                words);
  }
  published_words_ = *fill;
}

void SystemInstance::DrainTrace() {
  const std::optional<size_t> fill = TraceFillWords();
  WRL_CHECK_MSG(fill.has_value(), "kernel trace pointer below buffer");
  if (drained_fill_) {
    // The kernel finished the previous drain and filled the buffer anew.
    drained_fill_.reset();
    published_words_ = 0;
  }
  const size_t words = *fill;
  last_drain_words_ = words;
  trace_words_drained_ += words;
  ++trace_drains_;
  drain_words_hist_.Record(words);
  if (config_.events != nullptr) {
    config_.events->Instant("trace.drain", "trace", "words", words);
  }
  PublishTrace(1);
  drained_fill_ = words;
}

RunResult SystemInstance::Run(uint64_t max_instructions) {
  if (!config_.tracing) {
    return machine_->Run(max_instructions);
  }
  // Machine::Run stops only on halt or on its instruction budget, so
  // consecutive slices retire exactly what one call would.
  RunResult result;
  uint64_t left = max_instructions;
  for (;;) {
    const uint64_t slice = std::min(left, kPublishSliceInstructions);
    result = machine_->Run(slice);
    left -= slice;
    if (result.halted || left == 0) {
      break;
    }
    PublishTrace(kPublishMinWords);
  }
  if (!result.halted) {
    PublishTrace(1);  // Stopped on the budget: hand over every finished word.
  } else if (!halt_drained_) {
    halt_drained_ = true;
    DrainTrace();  // Final drain after halt.
  }
  return result;
}

void SystemInstance::RegisterStats(StatsRegistry& registry, const std::string& prefix) {
  machine_->RegisterStats(registry, prefix + "machine.");
  // Kernel stats-block words live in simulated memory; read them lazily.
  registry.AddGauge(prefix + "kernel.utlb_misses",
                    [this] { return static_cast<double>(UtlbMissCount()); });
  registry.AddGauge(prefix + "kernel.tlb_dropins",
                    [this] { return static_cast<double>(TlbDropins()); });
  registry.AddGauge(prefix + "kernel.ktlb_refills",
                    [this] { return static_cast<double>(KtlbRefills()); });
  registry.AddGauge(prefix + "kernel.context_switches",
                    [this] { return static_cast<double>(ContextSwitches()); });
  registry.AddGauge(prefix + "kernel.analysis_switches",
                    [this] { return static_cast<double>(AnalysisSwitches()); });
  if (config_.tracing) {
    registry.AddCounter(prefix + "trace.words_drained", &trace_words_drained_);
    registry.AddCounter(prefix + "trace.drains", &trace_drains_);
    registry.AddHistogram(prefix + "trace.drain_words", &drain_words_hist_);
    registry.AddGauge(prefix + "trace.buffer_capacity_words",
                      [this] { return static_cast<double>(config_.trace_buf_bytes / 4); });
    registry.AddGauge(prefix + "epoxie.kernel_text_growth",
                      [this] { return kernel_text_growth_; });
    registry.AddGauge(prefix + "epoxie.workload_text_growth",
                      [this] { return workload_text_growth_; });
    registry.AddCounter(prefix + "epoxie.elided_ra_saves", &elided_ra_saves_);
    registry.AddCounter(prefix + "epoxie.scavenged_windows", &scavenged_windows_);
    if (config_.personality == Personality::kMach) {
      registry.AddGauge(prefix + "epoxie.server_text_growth",
                        [this] { return server_text_growth_; });
    }
  }
}

std::string SystemInstance::ConsoleOutput() const { return machine_->console().output(); }

uint32_t SystemInstance::StatsWord(uint32_t offset) const {
  return machine_->PhysRead32(kStatsPhys + offset);
}

uint64_t SystemInstance::ProcessCycles(uint32_t pid) const {
  uint32_t start = StatsWord(32 + (pid - 1) * 16 + 0);
  uint32_t end = StatsWord(32 + (pid - 1) * 16 + 4);
  return end >= start ? end - start : 0;
}

uint32_t SystemInstance::ProcessExitCode(uint32_t pid) const {
  return StatsWord(32 + (pid - 1) * 16 + 8);
}

uint32_t SystemInstance::TranslateUserPage(uint32_t pid, uint32_t vpn,
                                           uint32_t mult_override) const {
  WRL_CHECK(pid >= 1 && pid <= layouts_.size());
  const ProcLayout& layout = layouts_[pid - 1];
  uint32_t slice_base;
  uint32_t index;
  uint32_t slice_pages;
  if (vpn >= layout.text_vpn0 && vpn < layout.text_vpn0 + (layout.region_pages - layout.text_slice_page)) {
    slice_base = layout.text_slice_page;
    index = vpn - layout.text_vpn0;
    slice_pages = layout.region_pages - layout.text_slice_page;
  } else if (vpn == (kUserBkBase >> kPageShift)) {
    slice_base = layout.trace_slice_page;
    index = (layout.text_slice_page - layout.trace_slice_page) - 1;
    slice_pages = layout.text_slice_page - layout.trace_slice_page;
  } else if (vpn >= layout.trace_vpn0 &&
             vpn < layout.trace_vpn0 + (layout.text_slice_page - layout.trace_slice_page) - 1) {
    slice_base = layout.trace_slice_page;
    index = vpn - layout.trace_vpn0;
    slice_pages = layout.text_slice_page - layout.trace_slice_page;
  } else if (vpn >= layout.stack_vpn0 && vpn < layout.stack_vpn0 + kUserStackPages) {
    slice_base = layout.stack_slice_page;
    index = vpn - layout.stack_vpn0;
    slice_pages = kUserStackPages;
  } else if (vpn >= layout.data_vpn0 && vpn < layout.data_vpn0 + layout.data_slice_pages) {
    slice_base = layout.data_slice_page;
    index = vpn - layout.data_vpn0;
    slice_pages = layout.data_slice_pages;
  } else {
    // Unknown page (should not happen for referenced pages): identity-ish.
    return layout.region_base_page;
  }
  if (config_.policy == PagePolicy::kScrambled) {
    uint32_t mult = mult_override != 0 ? mult_override : config_.policy_mult;
    index = static_cast<uint32_t>((static_cast<uint64_t>(index) * mult) % slice_pages);
  }
  return layout.region_base_page + slice_base + index;
}

std::vector<SystemInstance::UserSpace> SystemInstance::user_spaces() const {
  std::vector<UserSpace> spaces{{1, &user_table_, &workload_orig_, config_.program_name}};
  if (config_.personality == Personality::kMach) {
    spaces.push_back({2, &server_table_, &server_orig_, "server"});
  }
  return spaces;
}

std::pair<uint32_t, uint32_t> SystemInstance::IdleRange() const {
  uint32_t lo = kernel_exe_.SymbolAddress("idle_loop");
  uint32_t hi = kernel_exe_.SymbolAddress("idle_exit");
  return {lo, hi};
}

}  // namespace wrl
