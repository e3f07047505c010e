#include "asm/assembler.h"

#include <gtest/gtest.h>

#include "isa/isa.h"
#include "support/error.h"

namespace wrl {
namespace {

TEST(Assembler, BasicInstructions) {
  ObjectFile obj = Assemble("t.s", R"(
        .text
        addu  $t0, $t1, $t2
        addiu $sp, $sp, -24
        sw    $ra, 20($sp)
        lw    $v0, 0($a0)
        nop
)");
  ASSERT_EQ(obj.NumTextWords(), 5u);
  EXPECT_EQ(Decode(obj.TextWord(0)).op, Op::kAddu);
  Inst addiu = Decode(obj.TextWord(4));
  EXPECT_EQ(addiu.op, Op::kAddiu);
  EXPECT_EQ(addiu.imm, -24);
  Inst sw = Decode(obj.TextWord(8));
  EXPECT_EQ(sw.op, Op::kSw);
  EXPECT_EQ(sw.rt, kRa);
  EXPECT_EQ(sw.rs, kSp);
  EXPECT_EQ(sw.imm, 20);
  EXPECT_EQ(obj.TextWord(16), 0u);
}

TEST(Assembler, CommentsAndLabels) {
  ObjectFile obj = Assemble("t.s", R"(
# full-line comment
start:  nop          # trailing comment
loop:   b loop       # spin
        nop
)");
  EXPECT_EQ(obj.NumTextWords(), 3u);
  bool found_start = false;
  bool found_loop = false;
  for (const Symbol& s : obj.symbols) {
    if (s.name == "start") {
      found_start = true;
      EXPECT_EQ(s.value, 0u);
    }
    if (s.name == "loop") {
      found_loop = true;
      EXPECT_EQ(s.value, 4u);
    }
  }
  EXPECT_TRUE(found_start);
  EXPECT_TRUE(found_loop);
}

TEST(Assembler, BranchResolution) {
  ObjectFile obj = Assemble("t.s", R"(
        beq  $t0, $t1, fwd
        nop
        nop
fwd:    bne  $t0, $zero, fwd
        nop
)");
  // beq at 0, target at 12: offset = (12 - 4) / 4 = 2.
  EXPECT_EQ(Decode(obj.TextWord(0)).imm, 2);
  // bne at 12, target 12: offset = (12 - 16) / 4 = -1.
  EXPECT_EQ(Decode(obj.TextWord(12)).imm, -1);
}

TEST(Assembler, BranchToUndefinedLabelFails) {
  EXPECT_THROW(Assemble("t.s", "beq $t0, $t1, nowhere\nnop\n"), Error);
}

TEST(Assembler, LiExpansions) {
  ObjectFile obj = Assemble("t.s", R"(
        li $t0, 42
        li $t1, -5
        li $t2, 0x12345678
        li $t3, 0x10000
)");
  // 42 -> ori (1 word).
  Inst i0 = Decode(obj.TextWord(0));
  EXPECT_EQ(i0.op, Op::kOri);
  EXPECT_EQ(static_cast<uint16_t>(i0.imm), 42);
  // -5 -> addiu (1 word).
  Inst i1 = Decode(obj.TextWord(4));
  EXPECT_EQ(i1.op, Op::kAddiu);
  EXPECT_EQ(i1.imm, -5);
  // 0x12345678 -> lui + ori.
  EXPECT_EQ(Decode(obj.TextWord(8)).op, Op::kLui);
  EXPECT_EQ(Decode(obj.TextWord(12)).op, Op::kOri);
  // 0x10000 -> lui only (low half zero).
  EXPECT_EQ(Decode(obj.TextWord(16)).op, Op::kLui);
  EXPECT_EQ(obj.NumTextWords(), 5u);
}

TEST(Assembler, LiZeroEncodesTraceLengthNoOp) {
  // The paper's "li zero, N" delay-slot no-op must encode N in the
  // immediate field of an ori to $zero.
  ObjectFile obj = Assemble("t.s", "li $zero, 4\n");
  Inst inst = Decode(obj.TextWord(0));
  EXPECT_EQ(inst.op, Op::kOri);
  EXPECT_EQ(inst.rt, kZero);
  EXPECT_EQ(inst.imm, 4);
}

TEST(Assembler, LaEmitsRelocations) {
  ObjectFile obj = Assemble("t.s", R"(
        .text
        la $a0, message
        .data
message: .asciiz "hello"
)");
  ASSERT_EQ(obj.relocations.size(), 2u);
  EXPECT_EQ(obj.relocations[0].type, RelocType::kHi16);
  EXPECT_EQ(obj.relocations[0].offset, 0u);
  EXPECT_EQ(obj.relocations[0].symbol, "message");
  EXPECT_EQ(obj.relocations[1].type, RelocType::kLo16);
  EXPECT_EQ(obj.relocations[1].offset, 4u);
}

TEST(Assembler, JumpEmitsReloc) {
  ObjectFile obj = Assemble("t.s", R"(
        jal helper
        nop
helper: jr $ra
        nop
)");
  ASSERT_EQ(obj.relocations.size(), 1u);
  EXPECT_EQ(obj.relocations[0].type, RelocType::kJump26);
  EXPECT_EQ(obj.relocations[0].symbol, "helper");
}

TEST(Assembler, DataDirectives) {
  ObjectFile obj = Assemble("t.s", R"(
        .data
bytes:  .byte 1, 2, 3
        .align 4
words:  .word 0x11223344, -1
str:    .asciiz "a\nb"
        .space 3
)");
  ASSERT_EQ(obj.data.size(), 4u + 8u + 4u + 3u);
  EXPECT_EQ(obj.data[0], 1);
  EXPECT_EQ(obj.data[3], 0);  // align padding
  EXPECT_EQ(obj.data[4], 0x44);
  EXPECT_EQ(obj.data[7], 0x11);
  EXPECT_EQ(obj.data[12], 'a');
  EXPECT_EQ(obj.data[13], '\n');
  EXPECT_EQ(obj.data[15], 0);  // asciiz terminator
}

TEST(Assembler, WordWithSymbolEmitsDataReloc) {
  ObjectFile obj = Assemble("t.s", R"(
        .text
entry:  nop
        .data
table:  .word entry, entry+4
)");
  ASSERT_EQ(obj.relocations.size(), 2u);
  EXPECT_EQ(obj.relocations[0].section, SectionId::kData);
  EXPECT_EQ(obj.relocations[0].type, RelocType::kWord32);
  EXPECT_EQ(obj.relocations[1].addend, 4);
}

TEST(Assembler, BssSpace) {
  ObjectFile obj = Assemble("t.s", R"(
        .bss
buf:    .space 4096
buf2:   .space 16
)");
  EXPECT_EQ(obj.bss_size, 4112u);
}

TEST(Assembler, GlobalSymbols) {
  ObjectFile obj = Assemble("t.s", R"(
        .globl _start
_start: nop
local:  nop
)");
  for (const Symbol& s : obj.symbols) {
    if (s.name == "_start") {
      EXPECT_TRUE(s.global);
    }
    if (s.name == "local") {
      EXPECT_FALSE(s.global);
    }
  }
}

TEST(Assembler, DuplicateLabelFails) {
  EXPECT_THROW(Assemble("t.s", "a: nop\na: nop\n"), Error);
}

TEST(Assembler, Cop0Instructions) {
  ObjectFile obj = Assemble("t.s", R"(
        mfc0 $k0, $badvaddr
        mtc0 $k1, $entryhi
        mfc0 $t0, $12
        tlbwr
        rfe
)");
  EXPECT_EQ(Decode(obj.TextWord(0)).op, Op::kMfc0);
  EXPECT_EQ(Decode(obj.TextWord(0)).rd, kCop0BadVAddr);
  EXPECT_EQ(Decode(obj.TextWord(4)).op, Op::kMtc0);
  EXPECT_EQ(Decode(obj.TextWord(8)).rd, kCop0Status);
  EXPECT_EQ(Decode(obj.TextWord(12)).op, Op::kTlbwr);
  EXPECT_EQ(Decode(obj.TextWord(16)).op, Op::kRfe);
}

TEST(Assembler, SyscallWithCode) {
  ObjectFile obj = Assemble("t.s", "syscall 17\nbreak 3\nsyscall\n");
  EXPECT_EQ(TrapCode(obj.TextWord(0)), 17u);
  EXPECT_EQ(TrapCode(obj.TextWord(4)), 3u);
  EXPECT_EQ(TrapCode(obj.TextWord(8)), 0u);
}

TEST(Assembler, BlockLeaders) {
  ObjectFile obj = Assemble("t.s", R"(
_start: nop                 # block 0 @0
        beq $t0, $t1, skip  # ends block
        nop                 # delay slot
        nop                 # block @12 (post-delay-slot)
skip:   nop                 # block @16 (label + branch target)
        jal f               # ends block
        nop                 # delay slot
        nop                 # block @28
f:      jr $ra              # block @32
        nop
)");
  std::vector<uint32_t> leaders;
  for (const BlockAnnotation& b : obj.blocks) {
    leaders.push_back(b.offset);
  }
  EXPECT_EQ(leaders, (std::vector<uint32_t>{0, 12, 16, 28, 32}));
}

TEST(Assembler, NoTraceRegionFlags) {
  ObjectFile obj = Assemble("t.s", R"(
normal: nop
        jr $ra
        nop
        .notrace_on
secret: nop
        jr $ra
        nop
        .notrace_off
after:  nop
)");
  for (const BlockAnnotation& b : obj.blocks) {
    bool in_secret = b.offset >= 12 && b.offset < 24;
    EXPECT_EQ((b.flags & kBlockNoTrace) != 0, in_secret) << "offset " << b.offset;
  }
}

TEST(Assembler, IdleFlagsAttachToBlock) {
  ObjectFile obj = Assemble("t.s", R"(
        nop
        jr $ra
        nop
        .idle_start
idle:   b idle
        nop
)");
  bool found = false;
  for (const BlockAnnotation& b : obj.blocks) {
    if (b.offset == 12) {
      EXPECT_TRUE(b.flags & kBlockIdleStart);
      found = true;
    } else {
      EXPECT_FALSE(b.flags & kBlockIdleStart);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    Assemble("file.s", "nop\nnop\nbogus $t0\n");
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("file.s:3"), std::string::npos) << e.what();
  }
}

TEST(Assembler, MemoryOffsetRangeChecked) {
  EXPECT_THROW(Assemble("t.s", "lw $t0, 40000($t1)\n"), Error);
  EXPECT_NO_THROW(Assemble("t.s", "lw $t0, -32768($t1)\n"));
}

TEST(Assembler, ImmediateRangeChecked) {
  EXPECT_THROW(Assemble("t.s", "addiu $t0, $t1, 40000\n"), Error);
  EXPECT_THROW(Assemble("t.s", "andi $t0, $t1, -1\n"), Error);
  EXPECT_NO_THROW(Assemble("t.s", "andi $t0, $t1, 0xffff\n"));
}

}  // namespace
}  // namespace wrl
