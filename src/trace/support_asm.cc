#include "trace/support_asm.h"

#include "isa/isa.h"
#include "mach/machine.h"
#include "obj/object_file.h"
#include "support/strings.h"
#include "trace/abi.h"

namespace wrl {

std::string TraceSupportAsm() {
  // The machine runs these routines as host intrinsics and checks every
  // registered image against its model of them (support_asm.h states the
  // layout it assumes): an edit here needs the same edit to
  // src/mach/trace_routines.cc, or registration throws, naming the first
  // word that differs.
  std::string out;
  // Register aliases, fixed by the ABI: xreg1=$t8 (ptr), xreg2=$t9
  // (scratch), xreg3=$t7 (bookkeeping base).
  out += StrFormat(R"(
# ---- trace support library (never traced) ----
        .text
        .notrace_on
        .globl bbtrace
        .globl memtrace

# bbtrace: called from the 3-word block header
#     sw ra, SAVED_RA(xreg3) ; jal bbtrace ; li zero, N
# On entry ra = block key (the address after the delay slot).  Checks that
# the whole block's N trace words fit below LIMIT; if not, raises the
# trace-flush break so the kernel can drain/switch modes; then stores the
# key and returns with ra restored to the program's value.
bbtrace:
        sw   $ra, %u($t7)          # TMP_RA = return point / key
        lw   $t9, -4($ra)          # the "li zero, N" word
        andi $t9, $t9, 0xffff      # N (trace words for this block)
        sll  $t9, $t9, 2
        addu $t9, $t8, $t9         # end = ptr + 4*N
        lw   $ra, %u($t7)          # LIMIT
        sltu $ra, $ra, $t9         # limit < end ?
        bne  $ra, $zero, bbtrace_full
        nop
bbtrace_store:
        lw   $ra, %u($t7)          # TMP_RA (the key)
        sw   $ra, 0($t8)           # one-word trace entry
        .globl bbtrace_bump
bbtrace_bump:                      # exception here = word written, pointer
        addiu $t8, $t8, 4          # not yet bumped; the kernel entry stub
        jr   $ra                   # compensates (see kernel_asm.cc)
        lw   $ra, %u($t7)          # delay: restore the program's ra
bbtrace_full:
        break %u                   # kernel drains / switches to analysis
        b    bbtrace_store         # room is guaranteed afterwards
        nop
)",
                   kBkTmpRa, kBkLimit, kBkTmpRa, kBkSavedRa, kTrapTraceFlush);

  out += StrFormat(R"(
# memtrace: called as "jal memtrace" with the memory instruction (or its
# addiu-to-$zero surrogate) in the delay slot.  Decodes base register and
# 16-bit offset from the delay-slot word, dispatches through a 32-entry
# table to fetch the base register's value, records base+offset, and
# returns with ra restored.
memtrace:
        sw   $ra, %u($t7)          # TMP_RA
        lw   $t9, -4($ra)          # the delay-slot instruction word
        sw   $t9, %u($t7)          # TMP_INSTR (offset needed later)
        srl  $t9, $t9, 18          # base register number * 8
        andi $t9, $t9, 0xf8
        la   $ra, getreg_table
        addu $t9, $ra, $t9
        jr   $t9
        nop
)",
                   kBkTmpRa, kBkTmpInstr);

  // The register dispatch table: entry i copies the program-visible value
  // of register i into $t9.  Stolen registers cannot appear as bases
  // (epoxie rewrote them), so their entries trap.  ra's program-visible
  // value lives in SAVED_RA.
  out += "getreg_table:\n";
  for (unsigned reg = 0; reg < 32; ++reg) {
    if (reg == kXreg1 || reg == kXreg2 || reg == kXreg3) {
      out += StrFormat("        break 63               # $%s is stolen; unreachable\n",
                       RegName(static_cast<uint8_t>(reg)));
      out += "        nop\n";
    } else if (reg == kRa) {
      out += "        b    mt_have\n";
      out += StrFormat("        lw   $t9, %u($t7)      # program's ra = SAVED_RA\n", kBkSavedRa);
    } else {
      out += "        b    mt_have\n";
      out += StrFormat("        move $t9, $%s\n", RegName(static_cast<uint8_t>(reg)));
    }
  }

  out += StrFormat(R"(
mt_have:
        lw   $ra, %u($t7)          # TMP_INSTR
        sll  $ra, $ra, 16
        sra  $ra, $ra, 16          # sign-extended 16-bit offset
        addu $t9, $t9, $ra         # effective address
        sw   $t9, 0($t8)           # one-word trace entry
        .globl memtrace_bump
memtrace_bump:                     # same mid-pair window as bbtrace_bump
        addiu $t8, $t8, 4
        lw   $t9, %u($t7)          # TMP_RA
        jr   $t9
        lw   $ra, %u($t7)          # delay: restore the program's ra
        .notrace_off
)",
                   kBkTmpInstr, kBkTmpRa, kBkSavedRa);
  return out;
}

void RegisterTraceRoutines(Machine& machine, const Executable& exe,
                           const std::function<uint32_t(uint32_t)>& vaddr_to_paddr) {
  for (auto [routine, name] : {std::pair{TraceRoutine::kBbtrace, "bbtrace"},
                               std::pair{TraceRoutine::kMemtrace, "memtrace"}}) {
    const uint32_t vaddr = exe.SymbolAddress(name);
    machine.RegisterTraceRoutine(routine, vaddr, vaddr_to_paddr(vaddr));
  }
}

}  // namespace wrl
