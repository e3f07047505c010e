#include "workloads/workloads.h"

#include <algorithm>

#include "support/error.h"
#include "support/rng.h"
#include "support/strings.h"

namespace wrl {
namespace {

// ---- Input file synthesis -------------------------------------------------

std::vector<uint8_t> TextFile(uint32_t bytes, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out;
  out.reserve(bytes);
  static const char* kWords[] = {"the",  "quick", "brown", "fox",   "jumps", "over",
                                 "lazy", "dog",   "cache", "trace", "tlb",   "kernel"};
  while (out.size() < bytes) {
    const char* w = kWords[rng.Below(12)];
    for (const char* p = w; *p != '\0'; ++p) {
      out.push_back(static_cast<uint8_t>(*p));
    }
    out.push_back(rng.Below(12) == 0 ? '\n' : ' ');
  }
  out.resize(bytes);
  return out;
}

std::vector<uint8_t> BinaryFile(uint32_t bytes, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(bytes);
  // Mildly compressible: runs and repeated motifs.
  size_t i = 0;
  while (i < out.size()) {
    uint8_t value = static_cast<uint8_t>(rng.Below(64));
    uint32_t run = 1 + rng.Below(12);
    for (uint32_t j = 0; j < run && i < out.size(); ++j) {
      out[i++] = value + static_cast<uint8_t>(j & 3);
    }
  }
  return out;
}

std::vector<uint8_t> TokenFile(uint32_t bytes, uint64_t seed, uint8_t alphabet) {
  Rng rng(seed);
  std::vector<uint8_t> out(bytes);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Below(alphabet));
  }
  return out;
}

uint32_t Scaled(double scale, uint32_t bytes) {
  uint32_t v = static_cast<uint32_t>(bytes * scale);
  return std::max(v, 512u);
}

// ---- Shared assembly fragments ---------------------------------------------

// Opens `fname` (a .data asciiz label) and reads `len` bytes into `buf`;
// leaves the byte count in $s7.  Clobbers a*, v*, t*, uses the stack.
std::string ReadWholeFile(const char* fname_label, const char* buf_label, uint32_t len) {
  return StrFormat(R"(
        la   $a0, %s
        jal  open
        nop
        move $s6, $v0            # fd
        move $a0, $s6
        la   $a1, %s
        li   $a2, %u
        jal  read
        nop
        move $s7, $v0            # bytes read
        move $a0, $s6
        jal  close
        nop
)",
                   fname_label, buf_label, len);
}

// ---- The workloads ----------------------------------------------------------

WorkloadSpec Sed(double scale) {
  WorkloadSpec w;
  w.name = "sed";
  w.description = "The UNIX stream editor run three times over the same 17K input file.";
  uint32_t bytes = Scaled(scale, 17 * 1024);
  w.files.push_back({"sed.in", TextFile(bytes, 101), 0});
  w.files.push_back({"sed.out", {}, bytes + 4096});
  w.source = StrFormat(R"(
        .globl main
main:
        addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        li   $s5, 3              # three runs over the same file
sed_run:
%s
        # Substitute: every 'e' -> 'E', squeeze double spaces, count edits.
        la   $t0, inbuf
        la   $t1, outbuf
        move $t2, $s7
        li   $s0, 0              # edits
        li   $t6, 0              # previous byte
sed_loop:
        blez $t2, sed_emit
        nop
        lbu  $t3, 0($t0)
        addiu $t0, $t0, 1
        addiu $t2, $t2, -1
        li   $t4, 101            # 'e'
        bne  $t3, $t4, sed_nosub
        nop
        li   $t3, 69             # 'E'
        addiu $s0, $s0, 1
sed_nosub:
        li   $t4, 32
        bne  $t3, $t4, sed_keep
        nop
        beq  $t6, $t4, sed_loop  # squeeze: drop repeated space
        nop
sed_keep:
        sb   $t3, 0($t1)
        addiu $t1, $t1, 1
        b    sed_loop
        move $t6, $t3
sed_emit:
        # Write the edited stream to the output file.
        la   $t0, outbuf
        subu $s4, $t1, $t0       # bytes produced after squeezing
        la   $a0, oname
        jal  open
        nop
        move $s6, $v0
        move $a0, $s6
        la   $a1, outbuf
        move $a2, $s4
        jal  write
        nop
        move $a0, $s6
        jal  close
        nop
        addiu $s5, $s5, -1
        bgtz $s5, sed_run
        nop
        move $v0, $s0            # edits from the last pass
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
        .data
fname:  .asciiz "sed.in"
oname:  .asciiz "sed.out"
        .bss
        .align 8
inbuf:  .space %u
outbuf: .space %u
)",
                       ReadWholeFile("fname", "inbuf", bytes).c_str(), bytes + 64, bytes + 64);
  return w;
}

WorkloadSpec Egrep(double scale) {
  WorkloadSpec w;
  w.name = "egrep";
  w.description = "The UNIX pattern search program run three times over a 27K input file.";
  uint32_t bytes = Scaled(scale, 27 * 1024);
  w.files.push_back({"egrep.in", TextFile(bytes, 202), 0});
  w.source = StrFormat(R"(
        .globl main
main:
        addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        li   $s5, 3
        li   $s0, 0              # matching lines
eg_run:
%s
        # Scan for lines containing "fox" with a 3-state matcher.
        la   $t0, inbuf
        move $t1, $s7
        li   $t2, 0              # automaton state
        li   $t3, 0              # line has match
eg_loop:
        blez $t1, eg_done
        nop
        lbu  $t4, 0($t0)
        addiu $t0, $t0, 1
        addiu $t1, $t1, -1
        li   $t5, 10             # newline
        bne  $t4, $t5, eg_chr
        nop
        addu $s0, $s0, $t3       # close the line
        li   $t2, 0
        b    eg_loop
        li   $t3, 0
eg_chr:
        li   $t5, 102            # 'f'
        beq  $t4, $t5, eg_f
        nop
        li   $t5, 111            # 'o'
        beq  $t4, $t5, eg_o
        nop
        li   $t5, 120            # 'x'
        beq  $t4, $t5, eg_x
        nop
        b    eg_loop
        li   $t2, 0
eg_f:
        b    eg_loop
        li   $t2, 1
eg_o:
        li   $t5, 1
        bne  $t2, $t5, eg_reset
        nop
        b    eg_loop
        li   $t2, 2
eg_x:
        li   $t5, 2
        bne  $t2, $t5, eg_reset
        nop
        li   $t3, 1              # full match on this line
        b    eg_loop
        li   $t2, 0
eg_reset:
        b    eg_loop
        li   $t2, 0
eg_done:
        addiu $s5, $s5, -1
        bgtz $s5, eg_run
        nop
        move $v0, $s0
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
        .data
fname:  .asciiz "egrep.in"
        .bss
        .align 8
inbuf:  .space %u
)",
                       ReadWholeFile("fname", "inbuf", bytes).c_str(), bytes + 64);
  return w;
}

WorkloadSpec Yacc(double scale) {
  WorkloadSpec w;
  w.name = "yacc";
  w.description = "The LR(1) parser-generator run on an 11K grammar.";
  uint32_t bytes = Scaled(scale, 11 * 1024);
  w.files.push_back({"yacc.in", TokenFile(bytes, 303, 16), 0});
  w.source = StrFormat(R"(
        .globl main
main:
        addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        # Build the LR action table: 64 states x 16 tokens.
        la   $t0, table
        li   $t1, 0
yc_build:
        sltiu $t2, $t1, 1024
        beq  $t2, $zero, yc_read
        nop
        sll  $t3, $t1, 2
        addu $t3, $t0, $t3
        # action = (state*7 + token*3) mod 64 with shift/reduce tag
        mult $t1, $t1
        mflo $t4
        andi $t4, $t4, 63
        sw   $t4, 0($t3)
        b    yc_build
        addiu $t1, $t1, 1
yc_read:
%s
        # Drive the automaton over the token stream, pushing states.
        la   $t0, inbuf
        move $t1, $s7
        li   $t2, 0              # state
        la   $t3, stack
        li   $s0, 0              # reductions
yc_loop:
        blez $t1, yc_done
        nop
        lbu  $t4, 0($t0)
        addiu $t0, $t0, 1
        addiu $t1, $t1, -1
        andi $t4, $t4, 15
        # next = table[state*16 + token]
        sll  $t5, $t2, 4
        addu $t5, $t5, $t4
        sll  $t5, $t5, 2
        la   $t6, table
        addu $t5, $t6, $t5
        lw   $t2, 0($t5)
        # Push, and "reduce" (pop 2) whenever state is small.
        sw   $t2, 0($t3)
        addiu $t3, $t3, 4
        sltiu $t5, $t2, 8
        beq  $t5, $zero, yc_cksp
        nop
        addiu $s0, $s0, 1
        la   $t6, stack
        addiu $t5, $t6, 8
        sltu $t5, $t3, $t5
        bne  $t5, $zero, yc_loop
        nop
        addiu $t3, $t3, -8       # pop two states
        b    yc_loop
        nop
yc_cksp:
        la   $t6, stack_end
        sltu $t5, $t3, $t6
        bne  $t5, $zero, yc_loop
        nop
        la   $t3, stack          # wrap the parse stack
        b    yc_loop
        nop
yc_done:
        move $v0, $s0
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
        .data
fname:  .asciiz "yacc.in"
        .bss
        .align 8
table:  .space 4096
stack:  .space 16384
stack_end: .space 16
inbuf:  .space %u
)",
                       ReadWholeFile("fname", "inbuf", bytes).c_str(), bytes + 64);
  return w;
}

// gcc: lex -> tree build (sbrk heap, pointer chasing) -> emit.  The token
// handlers are distinct generated functions, giving this workload the
// largest text segment, as in the paper.
WorkloadSpec Gcc(double scale) {
  WorkloadSpec w;
  w.name = "gcc";
  w.description =
      "The GNU C compiler translating a 17K (preprocessed) source file into optimized assembly.";
  uint32_t bytes = Scaled(scale, 17 * 1024);
  w.files.push_back({"gcc.in", TextFile(bytes, 404), 0});
  w.files.push_back({"gcc.out", {}, bytes + 8192});

  // 32 distinct token-kind handlers: each hashes the token value with its
  // own arithmetic recipe (real, distinct code paths — the text bulk).
  std::string handlers;
  std::string dispatch;
  for (int k = 0; k < 32; ++k) {
    handlers += StrFormat(R"(
tok_%d:
        sll  $t5, $a0, %d
        xor  $t5, $t5, $a0
        addiu $t5, $t5, %d
        srl  $t6, $t5, %d
        addu $t5, $t5, $t6
        andi $t5, $t5, 0x3ff
        jr   $ra
        move $v0, $t5
)",
                          k, (k % 7) + 1, k * 37 + 11, (k % 5) + 2);
    dispatch += StrFormat(R"(
        li   $t5, %d
        bne  $s1, $t5, gd_%d
        nop
        jal  tok_%d
        nop
        b    gc_lexed
        nop
gd_%d:
)",
                          k, k, k, k);
  }

  w.source = StrFormat(R"(
        .globl main
main:
        addiu $sp, $sp, -16
        sw   $ra, 12($sp)
        sw   $s0, 8($sp)
%s
        # ---- Phase 1: lex into a heap token array ----
        li   $a0, 65536
        jal  sbrk
        nop
        move $s0, $v0            # token array
        la   $t0, inbuf
        move $t1, $s7
        move $t2, $s0
        li   $s4, 0              # token count
gc_lex:
        blez $t1, gc_parse
        nop
        lbu  $s1, 0($t0)
        addiu $t0, $t0, 1
        addiu $t1, $t1, -1
        andi $s1, $s1, 31
        move $a0, $s1
%s
gc_lexed:
        sw   $v0, 0($t2)
        addiu $t2, $t2, 4
        addiu $s4, $s4, 1
        b    gc_lex
        nop
        # ---- Phase 2: build a binary tree of nodes on the heap ----
gc_parse:
        li   $a0, 262144
        jal  sbrk
        nop
        move $s2, $v0            # node pool: {value, left, right} * 12 bytes
        li   $s3, 0              # nodes allocated
        move $t0, $s0
        move $t1, $s4
        li   $s5, 0              # tree root (none)
gc_tree:
        blez $t1, gc_emit
        nop
        lw   $t2, 0($t0)
        addiu $t0, $t0, 4
        addiu $t1, $t1, -1
        # allocate node
        mult $s3, $s3
        mflo $t3                 # cheap arith per node
        sll  $t4, $s3, 3
        sll  $t5, $s3, 2
        addu $t4, $t4, $t5       # s3 * 12
        addu $t4, $s2, $t4
        sw   $t2, 0($t4)
        sw   $zero, 4($t4)
        sw   $zero, 8($t4)
        addiu $s3, $s3, 1
        # insert: walk from root by comparing values (pointer chasing)
        beq  $s5, $zero, gc_root
        nop
        move $t5, $s5
gc_walk:
        lw   $t6, 0($t5)
        sltu $t6, $t6, $t2
        beq  $t6, $zero, gc_left
        nop
        lw   $t6, 8($t5)
        beq  $t6, $zero, gc_setr
        nop
        b    gc_walk
        move $t5, $t6
gc_left:
        lw   $t6, 4($t5)
        beq  $t6, $zero, gc_setl
        nop
        b    gc_walk
        move $t5, $t6
gc_setr:
        sw   $t4, 8($t5)
        b    gc_tree
        nop
gc_setl:
        sw   $t4, 4($t5)
        b    gc_tree
        nop
gc_root:
        b    gc_tree
        move $s5, $t4
        # ---- Phase 3: emit (iterative preorder via explicit stack) ----
gc_emit:
        la   $t0, estack
        sw   $s5, 0($t0)
        addiu $t0, $t0, 4
        la   $t1, outbuf
        li   $s4, 0              # emitted bytes
gc_pop:
        la   $t2, estack
        beq  $t0, $t2, gc_write
        nop
        addiu $t0, $t0, -4
        lw   $t3, 0($t0)
        beq  $t3, $zero, gc_pop
        nop
        lw   $t4, 0($t3)
        andi $t4, $t4, 0x7f
        sb   $t4, 0($t1)
        addiu $t1, $t1, 1
        addiu $s4, $s4, 1
        lw   $t4, 4($t3)
        sw   $t4, 0($t0)
        addiu $t0, $t0, 4
        lw   $t4, 8($t3)
        sw   $t4, 0($t0)
        b    gc_pop
        addiu $t0, $t0, 4
gc_write:
        la   $a0, oname
        jal  open
        nop
        move $s6, $v0
        move $a0, $s6
        la   $a1, outbuf
        move $a2, $s4
        jal  write
        nop
        move $a0, $s6
        jal  close
        nop
        move $v0, $s3            # nodes built
        lw   $s0, 8($sp)
        lw   $ra, 12($sp)
        jr   $ra
        addiu $sp, $sp, 16

# ---- token-kind handlers (the text bulk) ----
%s
        .data
fname:  .asciiz "gcc.in"
oname:  .asciiz "gcc.out"
        .bss
        .align 8
inbuf:  .space %u
outbuf: .space %u
estack: .space 65536
)",
                       ReadWholeFile("fname", "inbuf", bytes).c_str(), dispatch.c_str(),
                       handlers.c_str(), bytes + 64, bytes + 8192);
  return w;
}

WorkloadSpec Compress(double scale) {
  WorkloadSpec w;
  w.name = "compress";
  w.description =
      "Data compression using Lempel-Ziv encoding.  A 100K file is compressed then uncompressed.";
  uint32_t bytes = Scaled(scale, 100 * 1024);
  w.files.push_back({"comp.in", BinaryFile(bytes, 505), 0});
  w.files.push_back({"comp.out", {}, bytes + 16384});
  w.source = StrFormat(R"(
        .globl main
main:
        addiu $sp, $sp, -8
        sw   $ra, 4($sp)
%s
        # ---- Compress: hash-chain LZ over 16-bit codes ----
        # dict: 4096 entries of {prefix_code<<8 | byte} -> code, linear probe.
        la   $t0, dict
        li   $t1, 0
cz_clear:
        sltiu $t2, $t1, 4096
        beq  $t2, $zero, cz_go
        nop
        sll  $t3, $t1, 2
        addu $t3, $t0, $t3
        addiu $t4, $zero, -1
        sw   $t4, 0($t3)
        b    cz_clear
        addiu $t1, $t1, 1
cz_go:
        la   $s0, inbuf          # input cursor
        addu $s1, $s0, $s7       # input end
        la   $s2, outbuf         # output cursor
        li   $s3, 256            # next free code
        lbu  $s4, 0($s0)         # current prefix = first byte
        addiu $s0, $s0, 1
cz_loop:
        sltu $t0, $s0, $s1
        beq  $t0, $zero, cz_flush
        nop
        lbu  $t1, 0($s0)
        addiu $s0, $s0, 1
        # key = prefix<<8 | byte; probe the dictionary.
        sll  $t2, $s4, 8
        or   $t2, $t2, $t1
        # hash = (key*2654435761) >> 20 & 4095
        lui  $t3, 0x9e37
        ori  $t3, $t3, 0x79b1
        mult $t2, $t3
        mflo $t3
        srl  $t3, $t3, 20
        andi $t3, $t3, 4095
cz_probe:
        sll  $t4, $t3, 2
        la   $t5, dict
        addu $t4, $t5, $t4
        lw   $t5, 0($t4)
        addiu $t6, $zero, -1
        beq  $t5, $t6, cz_miss
        nop
        # entry = key<<12 | code
        srl  $t6, $t5, 12
        beq  $t6, $t2, cz_hit
        nop
        addiu $t3, $t3, 1
        andi $t3, $t3, 4095
        b    cz_probe
        nop
cz_hit:
        andi $s4, $t5, 0xfff     # prefix = found code
        b    cz_loop
        nop
cz_miss:
        # emit prefix as a 16-bit code; insert key -> next code.
        sb   $s4, 0($s2)
        srl  $t6, $s4, 8
        sb   $t6, 1($s2)
        addiu $s2, $s2, 2
        sltiu $t6, $s3, 4096
        beq  $t6, $zero, cz_nostore
        nop
        sll  $t6, $t2, 12
        or   $t6, $t6, $s3
        sw   $t6, 0($t4)
        addiu $s3, $s3, 1
cz_nostore:
        b    cz_loop
        move $s4, $t1            # new prefix = current byte
cz_flush:
        sb   $s4, 0($s2)
        srl  $t6, $s4, 8
        sb   $t6, 1($s2)
        addiu $s2, $s2, 2
        # ---- Write the compressed stream ----
        la   $a0, oname
        jal  open
        nop
        move $s6, $v0
        move $a0, $s6
        la   $a1, outbuf
        la   $t0, outbuf
        subu $a2, $s2, $t0
        move $s5, $a2            # compressed size
        jal  write
        nop
        move $a0, $s6
        jal  close
        nop
        # ---- "Uncompress": replay codes, touching a decode table ----
        la   $t0, outbuf
        addu $t1, $t0, $s5
        la   $t2, dtab
        li   $v0, 0
cu_loop:
        sltu $t3, $t0, $t1
        beq  $t3, $zero, cu_done
        nop
        lbu  $t4, 0($t0)
        lbu  $t5, 1($t0)
        addiu $t0, $t0, 2
        sll  $t5, $t5, 8
        or   $t4, $t4, $t5
        andi $t4, $t4, 4095
        sll  $t4, $t4, 2
        addu $t4, $t2, $t4
        lw   $t5, 0($t4)
        addiu $t5, $t5, 1
        sw   $t5, 0($t4)
        addu $v0, $v0, $t5
        b    cu_loop
        nop
cu_done:
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
        .data
fname:  .asciiz "comp.in"
oname:  .asciiz "comp.out"
        .bss
        .align 8
dict:   .space 16384
dtab:   .space 16384
inbuf:  .space %u
outbuf: .space %u
)",
                       ReadWholeFile("fname", "inbuf", bytes).c_str(), bytes + 64, bytes + 16384);
  return w;
}

WorkloadSpec Espresso(double scale) {
  WorkloadSpec w;
  w.name = "espresso";
  w.description = "A program that minimizes boolean functions, run on a 30K input file.";
  uint32_t bytes = Scaled(scale, 30 * 1024);
  w.files.push_back({"esp.in", TokenFile(bytes, 606, 255), 0});
  w.source = StrFormat(R"(
        .globl main
main:
        addiu $sp, $sp, -8
        sw   $ra, 4($sp)
%s
        # Treat the input as an array of 32-bit cubes; run minimization
        # passes: for each pair window, AND/OR distance tests and absorb.
        la   $s0, inbuf
        srl  $s1, $s7, 2         # cube count
        li   $s2, 6              # passes
        li   $v0, 0
es_pass:
        blez $s2, es_done
        nop
        li   $t0, 0              # i
es_outer:
        addiu $t1, $s1, -1
        sltu $t2, $t0, $t1
        beq  $t2, $zero, es_next_pass
        nop
        sll  $t2, $t0, 2
        addu $t2, $s0, $t2
        lw   $t3, 0($t2)         # cube i
        lw   $t4, 4($t2)         # cube i+1
        and  $t5, $t3, $t4
        or   $t6, $t3, $t4
        xor  $t1, $t3, $t4
        # population-ish count of differing bits (4 rounds)
        srl  $t3, $t1, 1
        lui  $t4, 0x5555
        ori  $t4, $t4, 0x5555
        and  $t3, $t3, $t4
        subu $t1, $t1, $t3
        # absorb when cubes are close: write the OR back
        sltiu $t3, $t1, 16
        beq  $t3, $zero, es_keep
        nop
        sw   $t6, 0($t2)
        sw   $t5, 4($t2)
        addiu $v0, $v0, 1
es_keep:
        b    es_outer
        addiu $t0, $t0, 1
es_next_pass:
        b    es_pass
        addiu $s2, $s2, -1
es_done:
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
        .data
fname:  .asciiz "esp.in"
        .bss
        .align 8
inbuf:  .space %u
)",
                       ReadWholeFile("fname", "inbuf", bytes).c_str(), bytes + 64);
  return w;
}

WorkloadSpec Lisp(double scale) {
  WorkloadSpec w;
  w.name = "lisp";
  w.description = "The 8-queens problem solved in LISP.";
  int repeats = std::max(1, static_cast<int>(3 * scale));
  w.source = StrFormat(R"(
        .globl main
main:
        addiu $sp, $sp, -16
        sw   $ra, 12($sp)
        sw   $s0, 8($sp)
        # Cons-cell heap, as a LISP runtime would allocate.
        li   $a0, 131072
        jal  sbrk
        nop
        la   $t0, heap_ptr
        sw   $v0, 0($t0)
        li   $s0, 0              # total solutions over repeats
        li   $s1, %d             # repeats
lq_rep:
        blez $s1, lq_done
        nop
        li   $a0, 0              # row
        li   $a1, 0              # columns bitmask
        li   $a2, 0              # diag1
        li   $a3, 0              # diag2
        jal  queens
        nop
        addu $s0, $s0, $v0
        b    lq_rep
        addiu $s1, $s1, -1
lq_done:
        move $v0, $s0
        lw   $s0, 8($sp)
        lw   $ra, 12($sp)
        jr   $ra
        addiu $sp, $sp, 16

# queens(row, cols, d1, d2) -> solution count; conses a cell per placement.
queens:
        addiu $sp, $sp, -40
        sw   $ra, 36($sp)
        sw   $s0, 32($sp)
        sw   $s1, 28($sp)
        sw   $s2, 24($sp)
        sw   $s3, 20($sp)
        sw   $s4, 16($sp)
        sw   $s5, 12($sp)
        li   $t0, 8
        bne  $a0, $t0, q_search
        nop
        li   $v0, 1              # a full placement
        b    q_ret
        nop
q_search:
        move $s0, $a0            # row
        move $s1, $a1            # cols
        move $s2, $a2            # d1
        move $s3, $a3            # d2
        li   $s4, 0              # col iterator
        li   $s5, 0              # count
q_col:
        sltiu $t0, $s4, 8
        beq  $t0, $zero, q_done
        nop
        li   $t0, 1
        sllv $t1, $t0, $s4       # col bit
        addu $t2, $s0, $s4
        sllv $t2, $t0, $t2       # d1 bit
        addiu $t3, $s0, 8
        subu $t3, $t3, $s4
        sllv $t3, $t0, $t3       # d2 bit
        and  $t4, $s1, $t1
        bne  $t4, $zero, q_next
        nop
        and  $t4, $s2, $t2
        bne  $t4, $zero, q_next
        nop
        and  $t4, $s3, $t3
        bne  $t4, $zero, q_next
        nop
        # cons (row . col) onto the placement heap
        la   $t4, heap_ptr
        lw   $t5, 0($t4)
        sw   $s0, 0($t5)
        sw   $s4, 4($t5)
        addiu $t5, $t5, 8
        sw   $t5, 0($t4)
        # recurse
        addiu $a0, $s0, 1
        or   $a1, $s1, $t1
        or   $a2, $s2, $t2
        or   $a3, $s3, $t3
        jal  queens
        nop
        addu $s5, $s5, $v0
q_next:
        b    q_col
        addiu $s4, $s4, 1
q_done:
        move $v0, $s5
q_ret:
        lw   $s5, 12($sp)
        lw   $s4, 16($sp)
        lw   $s3, 20($sp)
        lw   $s2, 24($sp)
        lw   $s1, 28($sp)
        lw   $s0, 32($sp)
        lw   $ra, 36($sp)
        jr   $ra
        addiu $sp, $sp, 40
        .bss
        .align 8
heap_ptr: .space 8
)",
                       repeats);
  return w;
}

WorkloadSpec Eqntott(double scale) {
  WorkloadSpec w;
  w.name = "eqntott";
  w.description =
      "A program that converts boolean equations to truth tables using a 1390 byte input file.";
  w.files.push_back({"eqn.in", TokenFile(1390, 707, 255), 0});
  // ~2MB working set touched in TLB-hostile strides (the paper's standout
  // TLB-miss workload).
  uint32_t table_bytes = Scaled(scale, 2 * 1024 * 1024);
  uint32_t passes = std::max(1u, static_cast<uint32_t>(2 * scale));
  w.source = StrFormat(R"(
        .globl main
main:
        addiu $sp, $sp, -8
        sw   $ra, 4($sp)
%s
        li   $a0, %u
        jal  sbrk
        nop
        move $s0, $v0            # truth table
        li   $s1, %u             # words
        # Fill with a page-hostile stride: index = (i * 1031) mod words.
        li   $t0, 0
        li   $v0, 0
eq_fill:
        sltu $t1, $t0, $s1
        beq  $t1, $zero, eq_eval
        nop
        li   $t2, 1031
        mult $t0, $t2
        mflo $t2
        divu $t2, $s1
        mfhi $t2
        sll  $t2, $t2, 2
        addu $t2, $s0, $t2
        sw   $t0, 0($t2)
        b    eq_fill
        addiu $t0, $t0, 1
eq_eval:
        # Evaluation passes: strided reads mixing input bytes in.
        li   $s2, %u             # passes
eq_pass:
        blez $s2, eq_done
        nop
        li   $t0, 0
eq_scan:
        sltu $t1, $t0, $s1
        beq  $t1, $zero, eq_next
        nop
        li   $t2, 2053
        mult $t0, $t2
        mflo $t2
        divu $t2, $s1
        mfhi $t2
        sll  $t2, $t2, 2
        addu $t2, $s0, $t2
        lw   $t3, 0($t2)
        andi $t4, $t0, 1023
        la   $t5, inbuf
        addu $t5, $t5, $t4
        lbu  $t4, 0($t5)
        xor  $t3, $t3, $t4
        addu $v0, $v0, $t3
        b    eq_scan
        addiu $t0, $t0, 7        # coarse stride: ~every other page
eq_next:
        b    eq_pass
        addiu $s2, $s2, -1
eq_done:
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
        .data
fname:  .asciiz "eqn.in"
        .bss
        .align 8
inbuf:  .space 2048
)",
                       ReadWholeFile("fname", "inbuf", 1390).c_str(), table_bytes,
                       table_bytes / 4, passes);
  return w;
}

WorkloadSpec Fpppp(double scale) {
  WorkloadSpec w;
  w.name = "fpppp";
  w.description = "A program that does quantum chemistry analysis (Fortran; fp-intensive).";
  w.fp_intensive = true;
  uint32_t iters = std::max(200u, static_cast<uint32_t>(2000 * scale));
  // Long basic blocks of multiply/divide chains over a small array — the
  // original's signature is enormous basic blocks and fp density.
  std::string chain;
  for (int i = 0; i < 40; ++i) {
    chain += StrFormat(R"(
        lw   $t2, %d($s0)
        mult $t2, $t3
        mflo $t4
        addu $t3, $t4, $t2
        lw   $t5, %d($s0)
        div  $t3, $t5
        mflo $t3
        sw   $t3, %d($s0)
)",
                       (i * 4) % 256, ((i * 12) + 4) % 256, (i * 8) % 256);
  }
  w.source = StrFormat(R"(
        .globl main
main:
        la   $s0, fdata
        # Seed the array with nonzero values.
        li   $t0, 0
fp_seed:
        sltiu $t1, $t0, 64
        beq  $t1, $zero, fp_go
        nop
        sll  $t2, $t0, 2
        addu $t2, $s0, $t2
        sll  $t3, $t0, 3
        addiu $t3, $t3, 17
        sw   $t3, 0($t2)
        b    fp_seed
        addiu $t0, $t0, 1
fp_go:
        li   $s1, %u             # iterations
        li   $t3, 3
fp_iter:
%s
        addiu $s1, $s1, -1
        bgtz $s1, fp_iter
        nop
        move $v0, $t3
        jr   $ra
        nop
        .bss
        .align 8
fdata:  .space 512
)",
                       iters, chain.c_str());
  return w;
}

WorkloadSpec Doduc(double scale) {
  WorkloadSpec w;
  w.name = "doduc";
  w.description =
      "Monte-Carlo simulation of the time evolution of a nuclear reactor component (Fortran).";
  w.fp_intensive = true;
  uint32_t samples = std::max(2000u, static_cast<uint32_t>(60000 * scale));
  w.source = StrFormat(R"(
        .globl main
main:
        li   $s0, %u             # samples
        li   $s1, 12345          # LCG state
        li   $v0, 0              # accepted events
        la   $s2, bins
dd_loop:
        blez $s0, dd_done
        nop
        # LCG step: s1 = s1*1103515245 + 12345
        lui  $t0, 0x41c6
        ori  $t0, $t0, 0x4e6d
        mult $s1, $t0
        mflo $s1
        addiu $s1, $s1, 12345
        srl  $t1, $s1, 16
        andi $t1, $t1, 0x3ff     # event energy bucket
        # Branchy state machine over the energy.
        sltiu $t2, $t1, 200
        bne  $t2, $zero, dd_absorb
        nop
        sltiu $t2, $t1, 600
        bne  $t2, $zero, dd_scatter
        nop
        # fission: heavy arithmetic
        mult $t1, $t1
        mflo $t3
        div  $t3, $t1
        mflo $t3
        addu $v0, $v0, $t3
        b    dd_next
        nop
dd_absorb:
        sll  $t3, $t1, 2
        addu $t3, $s2, $t3
        lw   $t4, 0($t3)
        addiu $t4, $t4, 1
        sw   $t4, 0($t3)
        b    dd_next
        nop
dd_scatter:
        srl  $t3, $t1, 1
        mult $t3, $t1
        mflo $t3
        andi $t3, $t3, 1023
        sll  $t3, $t3, 2
        addu $t3, $s2, $t3
        lw   $t4, 0($t3)
        xor  $t4, $t4, $t1
        sw   $t4, 0($t3)
dd_next:
        b    dd_loop
        addiu $s0, $s0, -1
dd_done:
        jr   $ra
        nop
        .bss
        .align 8
bins:   .space 4096
)",
                       samples);
  return w;
}

WorkloadSpec Liv(double scale) {
  WorkloadSpec w;
  w.name = "liv";
  w.description = "The Livermore Loops benchmark.";
  w.fp_intensive = true;
  uint32_t n = std::max(256u, static_cast<uint32_t>(4096 * scale));
  uint32_t reps = std::max(4u, static_cast<uint32_t>(30 * scale));
  w.source = StrFormat(R"(
        .globl main
main:
        la   $s0, xa
        la   $s1, ya
        la   $s2, za
        li   $s3, %u             # n
        li   $s4, %u             # repetitions
        # Seed y and z.
        li   $t0, 0
lv_seed:
        sltu $t1, $t0, $s3
        beq  $t1, $zero, lv_go
        nop
        sll  $t2, $t0, 2
        addu $t3, $s1, $t2
        sw   $t0, 0($t3)
        addu $t3, $s2, $t2
        addiu $t4, $t0, 7
        sw   $t4, 0($t3)
        b    lv_seed
        addiu $t0, $t0, 1
lv_go:
        li   $v0, 0
lv_rep:
        blez $s4, lv_done
        nop
        # Kernel 1: x[i] = q + y[i]*(r*z[i+10] + t*z[i+11]) — store-heavy.
        li   $t0, 0
        addiu $t5, $s3, -12
lv_k1:
        sltu $t1, $t0, $t5
        beq  $t1, $zero, lv_k5
        nop
        sll  $t2, $t0, 2
        addu $t3, $s2, $t2
        lw   $t4, 40($t3)        # z[i+10]
        lw   $t6, 44($t3)        # z[i+11]
        sll  $t4, $t4, 1
        addu $t4, $t4, $t6
        addu $t3, $s1, $t2
        lw   $t6, 0($t3)         # y[i]
        mult $t4, $t6
        mflo $t4
        addiu $t4, $t4, 5
        addu $t3, $s0, $t2
        sw   $t4, 0($t3)         # x[i]  (write-buffer pressure)
        b    lv_k1
        addiu $t0, $t0, 1
        # Kernel 5: tridiagonal-ish x[i] = z[i] * (y[i] - x[i-1]).
lv_k5:
        li   $t0, 1
lv_k5l:
        sltu $t1, $t0, $t5
        beq  $t1, $zero, lv_next
        nop
        sll  $t2, $t0, 2
        addu $t3, $s0, $t2
        lw   $t4, -4($t3)        # x[i-1]
        addu $t6, $s1, $t2
        lw   $t6, 0($t6)
        subu $t6, $t6, $t4
        addu $t4, $s2, $t2
        lw   $t4, 0($t4)
        mult $t4, $t6
        mflo $t4
        sw   $t4, 0($t3)
        addu $v0, $v0, $t4
        b    lv_k5l
        addiu $t0, $t0, 1
lv_next:
        b    lv_rep
        addiu $s4, $s4, -1
lv_done:
        jr   $ra
        nop
        .bss
        .align 8
xa:     .space %u
ya:     .space %u
za:     .space %u
)",
                       n, reps, n * 4 + 64, n * 4 + 64, n * 4 + 64);
  return w;
}

WorkloadSpec Tomcatv(double scale) {
  WorkloadSpec w;
  w.name = "tomcatv";
  w.description = "A program that generates a vectorized mesh (Fortran).";
  w.fp_intensive = true;
  uint32_t n = std::max(32u, static_cast<uint32_t>(128 * scale));
  uint32_t iters = std::max(2u, static_cast<uint32_t>(8 * scale));
  w.source = StrFormat(R"(
        .globl main
main:
        addiu $sp, $sp, -8
        sw   $ra, 4($sp)
        li   $s3, %u             # n (mesh edge)
        li   $s4, %u             # iterations
        # Mesh of n*n words on the heap.
        mult $s3, $s3
        mflo $a0
        sll  $a0, $a0, 2
        jal  sbrk
        nop
        move $s0, $v0
        # Seed the mesh.
        mult $s3, $s3
        mflo $s1
        li   $t0, 0
tc_seed:
        sltu $t1, $t0, $s1
        beq  $t1, $zero, tc_go
        nop
        sll  $t2, $t0, 2
        addu $t2, $s0, $t2
        sll  $t3, $t0, 1
        addiu $t3, $t3, 3
        sw   $t3, 0($t2)
        b    tc_seed
        addiu $t0, $t0, 1
tc_go:
        li   $v0, 0
tc_iter:
        blez $s4, tc_done
        nop
        # Relaxation sweep: m[i][j] = avg of 4 neighbours (row-major walk).
        li   $t0, 1              # i
tc_row:
        addiu $t1, $s3, -1
        sltu $t2, $t0, $t1
        beq  $t2, $zero, tc_next
        nop
        li   $t3, 1              # j
tc_col:
        sltu $t2, $t3, $t1
        beq  $t2, $zero, tc_rowend
        nop
        # index = i*n + j
        mult $t0, $s3
        mflo $t4
        addu $t4, $t4, $t3
        sll  $t4, $t4, 2
        addu $t4, $s0, $t4
        lw   $t5, -4($t4)        # west
        lw   $t6, 4($t4)         # east
        addu $t5, $t5, $t6
        sll  $t6, $s3, 2
        subu $t2, $t4, $t6
        lw   $t2, 0($t2)         # north
        addu $t5, $t5, $t2
        addu $t2, $t4, $t6
        lw   $t2, 0($t2)         # south
        addu $t5, $t5, $t2
        sra  $t5, $t5, 2
        sw   $t5, 0($t4)
        addu $v0, $v0, $t5
        b    tc_col
        addiu $t3, $t3, 1
tc_rowend:
        b    tc_row
        addiu $t0, $t0, 1
tc_next:
        b    tc_iter
        addiu $s4, $s4, -1
tc_done:
        lw   $ra, 4($sp)
        jr   $ra
        addiu $sp, $sp, 8
)",
                       n, iters);
  return w;
}

}  // namespace

std::vector<WorkloadSpec> PaperWorkloads(double scale) {
  return {Sed(scale),    Egrep(scale),   Yacc(scale),  Gcc(scale),
          Compress(scale), Espresso(scale), Lisp(scale), Eqntott(scale),
          Fpppp(scale),  Doduc(scale),   Liv(scale),   Tomcatv(scale)};
}

WorkloadSpec PaperWorkload(const std::string& name, double scale) {
  for (WorkloadSpec& w : PaperWorkloads(scale)) {
    if (w.name == name) {
      return w;
    }
  }
  throw Error(StrFormat("unknown workload '%s'", name.c_str()));
}

bool ParseWorkloadScale(const std::string& text, double& scale) {
  return ParseBoundedReal(text, 1024.0, scale);
}

}  // namespace wrl
