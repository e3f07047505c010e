// DS32: the MIPS-I-subset instruction set architecture used throughout the
// reproduction.
//
// DS32 keeps the real MIPS-I opcode assignments so the instrumentation idioms
// from the paper's Figure 2 (jal clobbering ra, branch delay slots, the
// "li zero, N" trace-length no-op) carry over literally.  The subset covers
// everything the kernel, the workloads and epoxie's synthesized code need:
// the full integer ALU, loads/stores of bytes/halfwords/words, branches and
// jumps (one architectural delay slot), mult/div with HI/LO (the source of
// "arithmetic stalls"), syscall/break, and the COP0 system control set
// (mfc0/mtc0, tlbwi/tlbwr/tlbr/tlbp, rfe) in the R3000 style.
#ifndef WRLTRACE_ISA_ISA_H_
#define WRLTRACE_ISA_ISA_H_

#include <cstdint>
#include <optional>
#include <string>

namespace wrl {

// Conventional MIPS register numbers.  The tracing system "steals" three of
// them (see epoxie/epoxie.h); everything else follows the o32 convention.
enum Reg : uint8_t {
  kZero = 0,
  kAt = 1,
  kV0 = 2,
  kV1 = 3,
  kA0 = 4,
  kA1 = 5,
  kA2 = 6,
  kA3 = 7,
  kT0 = 8,
  kT1 = 9,
  kT2 = 10,
  kT3 = 11,
  kT4 = 12,
  kT5 = 13,
  kT6 = 14,
  kT7 = 15,
  kS0 = 16,
  kS1 = 17,
  kS2 = 18,
  kS3 = 19,
  kS4 = 20,
  kS5 = 21,
  kS6 = 22,
  kS7 = 23,
  kT8 = 24,
  kT9 = 25,
  kK0 = 26,
  kK1 = 27,
  kGp = 28,
  kSp = 29,
  kFp = 30,
  kRa = 31,
};

// Returns the conventional name ("t3", "sp", ...) for a register number.
const char* RegName(uint8_t reg);
// Parses "$t3", "$3", "$sp", ... Returns nullopt for anything else.
std::optional<uint8_t> ParseRegName(std::string_view name);

// Every DS32 mnemonic.
enum class Op : uint8_t {
  kInvalid = 0,
  // R-type ALU.
  kSll,
  kSrl,
  kSra,
  kSllv,
  kSrlv,
  kSrav,
  kJr,
  kJalr,
  kSyscall,
  kBreak,
  kMfhi,
  kMthi,
  kMflo,
  kMtlo,
  kMult,
  kMultu,
  kDiv,
  kDivu,
  kAdd,
  kAddu,
  kSub,
  kSubu,
  kAnd,
  kOr,
  kXor,
  kNor,
  kSlt,
  kSltu,
  // REGIMM.
  kBltz,
  kBgez,
  // I/J-type.
  kJ,
  kJal,
  kBeq,
  kBne,
  kBlez,
  kBgtz,
  kAddi,
  kAddiu,
  kSlti,
  kSltiu,
  kAndi,
  kOri,
  kXori,
  kLui,
  // Loads/stores.
  kLb,
  kLh,
  kLw,
  kLbu,
  kLhu,
  kSb,
  kSh,
  kSw,
  // COP0 system control.
  kMfc0,
  kMtc0,
  kTlbr,
  kTlbwi,
  kTlbwr,
  kTlbp,
  kRfe,
  // Never decoded from a word: the machine marks a registered trace-routine
  // entry with it in its predecoded pages (Machine::RegisterTraceRoutine).
  // `raw` keeps the entry's own word.
  kTraceEntry,
};

// COP0 register indices (R3000 assignments).
enum Cop0Reg : uint8_t {
  kCop0Index = 0,
  kCop0Random = 1,
  kCop0EntryLo = 2,
  kCop0Context = 4,
  kCop0BadVAddr = 8,
  kCop0EntryHi = 10,
  kCop0Status = 12,
  kCop0Cause = 13,
  kCop0Epc = 14,
  kCop0Prid = 15,
};

// A decoded DS32 instruction.  Field validity depends on the format, but all
// fields are always extracted so generic code (epoxie, memtrace) can reason
// about rs/imm uniformly.
struct Inst {
  Op op = Op::kInvalid;
  uint8_t rs = 0;      // bits 25:21 — base register for memory ops
  uint8_t rt = 0;      // bits 20:16
  uint8_t rd = 0;      // bits 15:11
  uint8_t shamt = 0;   // bits 10:6
  int16_t imm = 0;     // bits 15:0, sign interpretation depends on op
  uint32_t target = 0; // bits 25:0 for j/jal
  uint32_t raw = 0;
};

// Decodes a raw instruction word.  Unknown encodings yield Op::kInvalid.
Inst Decode(uint32_t word);

// --- Instruction property predicates (used by epoxie and the simulators) ---

bool IsLoad(Op op);
bool IsStore(Op op);
// Number of bytes accessed by a load/store; 0 for everything else.  Inline:
// the machine asks on every load and store.
constexpr unsigned MemAccessBytes(Op op) {
  switch (op) {
    case Op::kLb:
    case Op::kLbu:
    case Op::kSb:
      return 1;
    case Op::kLh:
    case Op::kLhu:
    case Op::kSh:
      return 2;
    case Op::kLw:
    case Op::kSw:
      return 4;
    default:
      return 0;
  }
}
// Conditional branches (PC-relative, 16-bit offset).
bool IsBranch(Op op);
// j / jal (26-bit region-absolute).
bool IsJump(Op op);
// jr / jalr.
bool IsIndirectJump(Op op);
// Any control transfer with an architectural delay slot.
bool HasDelaySlot(Op op);
// True if the instruction ends a basic block (control transfer or trap).
bool EndsBasicBlock(Op op);
// mult/div family — the instructions that incur "arithmetic stalls".
bool IsArithStall(Op op);
// Latency in cycles of the multiply/divide unit for this op (0 if none).
// Inline: the machine asks on every mult and div.
constexpr unsigned ArithStallCycles(Op op) {
  switch (op) {
    case Op::kMult:
    case Op::kMultu:
      return 11;  // R3000 multiply latency.
    case Op::kDiv:
    case Op::kDivu:
      return 34;  // R3000 divide latency.
    default:
      return 0;
  }
}

// Register read/write sets as 32-bit masks (bit n set = register n).
uint32_t RegsRead(const Inst& inst);
uint32_t RegsWritten(const Inst& inst);

// --- Encoders (used by the assembler and by epoxie's synthesized code) ---

uint32_t EncodeRType(Op op, uint8_t rs, uint8_t rt, uint8_t rd, uint8_t shamt);
uint32_t EncodeIType(Op op, uint8_t rs, uint8_t rt, uint16_t imm);
uint32_t EncodeJType(Op op, uint32_t target_word_index);
uint32_t EncodeCop0(Op op, uint8_t rt, uint8_t rd);
// syscall/break with a 20-bit code field (readable by the kernel).
uint32_t EncodeTrap(Op op, uint32_t code);
// Extracts the 20-bit code field of syscall/break.
uint32_t TrapCode(uint32_t word);

// Renders an instruction in assembler syntax ("addiu sp, sp, -24").
std::string Disassemble(const Inst& inst, uint32_t pc);
std::string DisassembleWord(uint32_t word, uint32_t pc);

// Computes the target of a branch at `pc` with the given immediate.
inline uint32_t BranchTarget(uint32_t pc, int16_t imm) {
  return pc + 4 + (static_cast<int32_t>(imm) << 2);
}
// Computes the target of a j/jal at `pc`.
inline uint32_t JumpTarget(uint32_t pc, uint32_t target_field) {
  return ((pc + 4) & 0xf0000000u) | (target_field << 2);
}

}  // namespace wrl

#endif  // WRLTRACE_ISA_ISA_H_
