#include "isa/isa.h"

#include <array>

#include "support/error.h"
#include "support/strings.h"

namespace wrl {
namespace {

constexpr std::array<const char*, 32> kRegNames = {
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3", "t0", "t1", "t2",
    "t3",   "t4", "t5", "t6", "t7", "s0", "s1", "s2", "s3", "s4", "s5",
    "s6",   "s7", "t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra"};

// MIPS-I primary opcodes.
enum : uint32_t {
  kOpSpecial = 0,
  kOpRegimm = 1,
  kOpJ = 2,
  kOpJal = 3,
  kOpBeq = 4,
  kOpBne = 5,
  kOpBlez = 6,
  kOpBgtz = 7,
  kOpAddi = 8,
  kOpAddiu = 9,
  kOpSlti = 10,
  kOpSltiu = 11,
  kOpAndi = 12,
  kOpOri = 13,
  kOpXori = 14,
  kOpLui = 15,
  kOpCop0 = 16,
  kOpLb = 32,
  kOpLh = 33,
  kOpLw = 35,
  kOpLbu = 36,
  kOpLhu = 37,
  kOpSb = 40,
  kOpSh = 41,
  kOpSw = 43,
};

// SPECIAL function codes.
enum : uint32_t {
  kFnSll = 0,
  kFnSrl = 2,
  kFnSra = 3,
  kFnSllv = 4,
  kFnSrlv = 6,
  kFnSrav = 7,
  kFnJr = 8,
  kFnJalr = 9,
  kFnSyscall = 12,
  kFnBreak = 13,
  kFnMfhi = 16,
  kFnMthi = 17,
  kFnMflo = 18,
  kFnMtlo = 19,
  kFnMult = 24,
  kFnMultu = 25,
  kFnDiv = 26,
  kFnDivu = 27,
  kFnAdd = 32,
  kFnAddu = 33,
  kFnSub = 34,
  kFnSubu = 35,
  kFnAnd = 36,
  kFnOr = 37,
  kFnXor = 38,
  kFnNor = 39,
  kFnSlt = 42,
  kFnSltu = 43,
};

// COP0 CO-format function codes.
enum : uint32_t {
  kFnTlbr = 1,
  kFnTlbwi = 2,
  kFnTlbwr = 6,
  kFnTlbp = 8,
  kFnRfe = 16,
};

Op DecodeSpecial(uint32_t funct) {
  switch (funct) {
    case kFnSll: return Op::kSll;
    case kFnSrl: return Op::kSrl;
    case kFnSra: return Op::kSra;
    case kFnSllv: return Op::kSllv;
    case kFnSrlv: return Op::kSrlv;
    case kFnSrav: return Op::kSrav;
    case kFnJr: return Op::kJr;
    case kFnJalr: return Op::kJalr;
    case kFnSyscall: return Op::kSyscall;
    case kFnBreak: return Op::kBreak;
    case kFnMfhi: return Op::kMfhi;
    case kFnMthi: return Op::kMthi;
    case kFnMflo: return Op::kMflo;
    case kFnMtlo: return Op::kMtlo;
    case kFnMult: return Op::kMult;
    case kFnMultu: return Op::kMultu;
    case kFnDiv: return Op::kDiv;
    case kFnDivu: return Op::kDivu;
    case kFnAdd: return Op::kAdd;
    case kFnAddu: return Op::kAddu;
    case kFnSub: return Op::kSub;
    case kFnSubu: return Op::kSubu;
    case kFnAnd: return Op::kAnd;
    case kFnOr: return Op::kOr;
    case kFnXor: return Op::kXor;
    case kFnNor: return Op::kNor;
    case kFnSlt: return Op::kSlt;
    case kFnSltu: return Op::kSltu;
    default: return Op::kInvalid;
  }
}

uint32_t SpecialFunct(Op op) {
  switch (op) {
    case Op::kSll: return kFnSll;
    case Op::kSrl: return kFnSrl;
    case Op::kSra: return kFnSra;
    case Op::kSllv: return kFnSllv;
    case Op::kSrlv: return kFnSrlv;
    case Op::kSrav: return kFnSrav;
    case Op::kJr: return kFnJr;
    case Op::kJalr: return kFnJalr;
    case Op::kSyscall: return kFnSyscall;
    case Op::kBreak: return kFnBreak;
    case Op::kMfhi: return kFnMfhi;
    case Op::kMthi: return kFnMthi;
    case Op::kMflo: return kFnMflo;
    case Op::kMtlo: return kFnMtlo;
    case Op::kMult: return kFnMult;
    case Op::kMultu: return kFnMultu;
    case Op::kDiv: return kFnDiv;
    case Op::kDivu: return kFnDivu;
    case Op::kAdd: return kFnAdd;
    case Op::kAddu: return kFnAddu;
    case Op::kSub: return kFnSub;
    case Op::kSubu: return kFnSubu;
    case Op::kAnd: return kFnAnd;
    case Op::kOr: return kFnOr;
    case Op::kXor: return kFnXor;
    case Op::kNor: return kFnNor;
    case Op::kSlt: return kFnSlt;
    case Op::kSltu: return kFnSltu;
    default: throw InternalError("not an R-type op");
  }
}

uint32_t PrimaryOpcode(Op op) {
  switch (op) {
    case Op::kJ: return kOpJ;
    case Op::kJal: return kOpJal;
    case Op::kBeq: return kOpBeq;
    case Op::kBne: return kOpBne;
    case Op::kBlez: return kOpBlez;
    case Op::kBgtz: return kOpBgtz;
    case Op::kAddi: return kOpAddi;
    case Op::kAddiu: return kOpAddiu;
    case Op::kSlti: return kOpSlti;
    case Op::kSltiu: return kOpSltiu;
    case Op::kAndi: return kOpAndi;
    case Op::kOri: return kOpOri;
    case Op::kXori: return kOpXori;
    case Op::kLui: return kOpLui;
    case Op::kLb: return kOpLb;
    case Op::kLh: return kOpLh;
    case Op::kLw: return kOpLw;
    case Op::kLbu: return kOpLbu;
    case Op::kLhu: return kOpLhu;
    case Op::kSb: return kOpSb;
    case Op::kSh: return kOpSh;
    case Op::kSw: return kOpSw;
    default: throw InternalError("not an I-type op");
  }
}

}  // namespace

const char* RegName(uint8_t reg) {
  WRL_CHECK(reg < 32);
  return kRegNames[reg];
}

std::optional<uint8_t> ParseRegName(std::string_view name) {
  if (name.size() < 2 || name.front() != '$') {
    return std::nullopt;
  }
  name.remove_prefix(1);
  // Numeric form: $0 .. $31.
  if (name[0] >= '0' && name[0] <= '9') {
    int value = 0;
    for (char c : name) {
      if (c < '0' || c > '9') {
        return std::nullopt;
      }
      value = value * 10 + (c - '0');
    }
    if (value >= 32) {
      return std::nullopt;
    }
    return static_cast<uint8_t>(value);
  }
  for (uint8_t i = 0; i < 32; ++i) {
    if (name == kRegNames[i]) {
      return i;
    }
  }
  if (name == "s8") {  // Alias for fp.
    return kFp;
  }
  return std::nullopt;
}

Inst Decode(uint32_t word) {
  Inst inst;
  inst.raw = word;
  inst.rs = static_cast<uint8_t>((word >> 21) & 31);
  inst.rt = static_cast<uint8_t>((word >> 16) & 31);
  inst.rd = static_cast<uint8_t>((word >> 11) & 31);
  inst.shamt = static_cast<uint8_t>((word >> 6) & 31);
  inst.imm = static_cast<int16_t>(word & 0xffff);
  inst.target = word & 0x03ffffff;
  uint32_t opcode = word >> 26;
  switch (opcode) {
    case kOpSpecial:
      inst.op = DecodeSpecial(word & 63);
      break;
    case kOpRegimm:
      inst.op = (inst.rt == 1) ? Op::kBgez : (inst.rt == 0) ? Op::kBltz : Op::kInvalid;
      break;
    case kOpJ: inst.op = Op::kJ; break;
    case kOpJal: inst.op = Op::kJal; break;
    case kOpBeq: inst.op = Op::kBeq; break;
    case kOpBne: inst.op = Op::kBne; break;
    case kOpBlez: inst.op = Op::kBlez; break;
    case kOpBgtz: inst.op = Op::kBgtz; break;
    case kOpAddi: inst.op = Op::kAddi; break;
    case kOpAddiu: inst.op = Op::kAddiu; break;
    case kOpSlti: inst.op = Op::kSlti; break;
    case kOpSltiu: inst.op = Op::kSltiu; break;
    case kOpAndi: inst.op = Op::kAndi; break;
    case kOpOri: inst.op = Op::kOri; break;
    case kOpXori: inst.op = Op::kXori; break;
    case kOpLui: inst.op = Op::kLui; break;
    case kOpCop0:
      if (inst.rs == 0) {
        inst.op = Op::kMfc0;
      } else if (inst.rs == 4) {
        inst.op = Op::kMtc0;
      } else if (inst.rs & 0x10) {
        switch (word & 63) {
          case kFnTlbr: inst.op = Op::kTlbr; break;
          case kFnTlbwi: inst.op = Op::kTlbwi; break;
          case kFnTlbwr: inst.op = Op::kTlbwr; break;
          case kFnTlbp: inst.op = Op::kTlbp; break;
          case kFnRfe: inst.op = Op::kRfe; break;
          default: inst.op = Op::kInvalid; break;
        }
      }
      break;
    case kOpLb: inst.op = Op::kLb; break;
    case kOpLh: inst.op = Op::kLh; break;
    case kOpLw: inst.op = Op::kLw; break;
    case kOpLbu: inst.op = Op::kLbu; break;
    case kOpLhu: inst.op = Op::kLhu; break;
    case kOpSb: inst.op = Op::kSb; break;
    case kOpSh: inst.op = Op::kSh; break;
    case kOpSw: inst.op = Op::kSw; break;
    default: inst.op = Op::kInvalid; break;
  }
  return inst;
}

bool IsLoad(Op op) {
  switch (op) {
    case Op::kLb:
    case Op::kLh:
    case Op::kLw:
    case Op::kLbu:
    case Op::kLhu:
      return true;
    default:
      return false;
  }
}

bool IsStore(Op op) { return op == Op::kSb || op == Op::kSh || op == Op::kSw; }

bool IsBranch(Op op) {
  switch (op) {
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlez:
    case Op::kBgtz:
    case Op::kBltz:
    case Op::kBgez:
      return true;
    default:
      return false;
  }
}

bool IsJump(Op op) { return op == Op::kJ || op == Op::kJal; }

bool IsIndirectJump(Op op) { return op == Op::kJr || op == Op::kJalr; }

bool HasDelaySlot(Op op) { return IsBranch(op) || IsJump(op) || IsIndirectJump(op); }

bool EndsBasicBlock(Op op) {
  return HasDelaySlot(op) || op == Op::kSyscall || op == Op::kBreak || op == Op::kRfe;
}

bool IsArithStall(Op op) {
  return op == Op::kMult || op == Op::kMultu || op == Op::kDiv || op == Op::kDivu;
}

uint32_t RegsRead(const Inst& inst) {
  uint32_t mask = 0;
  auto rs = [&] { mask |= 1u << inst.rs; };
  auto rt = [&] { mask |= 1u << inst.rt; };
  switch (inst.op) {
    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:
      rt();
      break;
    case Op::kSllv:
    case Op::kSrlv:
    case Op::kSrav:
    case Op::kAdd:
    case Op::kAddu:
    case Op::kSub:
    case Op::kSubu:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kNor:
    case Op::kSlt:
    case Op::kSltu:
    case Op::kMult:
    case Op::kMultu:
    case Op::kDiv:
    case Op::kDivu:
    case Op::kBeq:
    case Op::kBne:
      rs();
      rt();
      break;
    case Op::kJr:
    case Op::kJalr:
    case Op::kMthi:
    case Op::kMtlo:
    case Op::kBlez:
    case Op::kBgtz:
    case Op::kBltz:
    case Op::kBgez:
    case Op::kAddi:
    case Op::kAddiu:
    case Op::kSlti:
    case Op::kSltiu:
    case Op::kAndi:
    case Op::kOri:
    case Op::kXori:
    case Op::kLb:
    case Op::kLh:
    case Op::kLw:
    case Op::kLbu:
    case Op::kLhu:
      rs();
      break;
    case Op::kSb:
    case Op::kSh:
    case Op::kSw:
      rs();
      rt();
      break;
    case Op::kMtc0:
      rt();
      break;
    default:
      break;
  }
  mask &= ~1u;  // Reads of $zero are not dependencies.
  return mask;
}

uint32_t RegsWritten(const Inst& inst) {
  uint32_t mask = 0;
  switch (inst.op) {
    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:
    case Op::kSllv:
    case Op::kSrlv:
    case Op::kSrav:
    case Op::kMfhi:
    case Op::kMflo:
    case Op::kAdd:
    case Op::kAddu:
    case Op::kSub:
    case Op::kSubu:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kNor:
    case Op::kSlt:
    case Op::kSltu:
      mask |= 1u << inst.rd;
      break;
    case Op::kJalr:
      mask |= 1u << inst.rd;
      break;
    case Op::kJal:
      mask |= 1u << kRa;
      break;
    case Op::kAddi:
    case Op::kAddiu:
    case Op::kSlti:
    case Op::kSltiu:
    case Op::kAndi:
    case Op::kOri:
    case Op::kXori:
    case Op::kLui:
    case Op::kLb:
    case Op::kLh:
    case Op::kLw:
    case Op::kLbu:
    case Op::kLhu:
    case Op::kMfc0:
      mask |= 1u << inst.rt;
      break;
    default:
      break;
  }
  mask &= ~1u;  // Writes to $zero are discarded.
  return mask;
}

uint32_t EncodeRType(Op op, uint8_t rs, uint8_t rt, uint8_t rd, uint8_t shamt) {
  return (kOpSpecial << 26) | (uint32_t{rs} << 21) | (uint32_t{rt} << 16) |
         (uint32_t{rd} << 11) | (uint32_t{shamt} << 6) | SpecialFunct(op);
}

uint32_t EncodeIType(Op op, uint8_t rs, uint8_t rt, uint16_t imm) {
  if (op == Op::kBltz) {
    return (kOpRegimm << 26) | (uint32_t{rs} << 21) | (0u << 16) | imm;
  }
  if (op == Op::kBgez) {
    return (kOpRegimm << 26) | (uint32_t{rs} << 21) | (1u << 16) | imm;
  }
  return (PrimaryOpcode(op) << 26) | (uint32_t{rs} << 21) | (uint32_t{rt} << 16) | imm;
}

uint32_t EncodeJType(Op op, uint32_t target_word_index) {
  WRL_CHECK(op == Op::kJ || op == Op::kJal);
  return (PrimaryOpcode(op) << 26) | (target_word_index & 0x03ffffff);
}

uint32_t EncodeCop0(Op op, uint8_t rt, uint8_t rd) {
  switch (op) {
    case Op::kMfc0:
      return (kOpCop0 << 26) | (0u << 21) | (uint32_t{rt} << 16) | (uint32_t{rd} << 11);
    case Op::kMtc0:
      return (kOpCop0 << 26) | (4u << 21) | (uint32_t{rt} << 16) | (uint32_t{rd} << 11);
    case Op::kTlbr:
      return (kOpCop0 << 26) | (0x10u << 21) | kFnTlbr;
    case Op::kTlbwi:
      return (kOpCop0 << 26) | (0x10u << 21) | kFnTlbwi;
    case Op::kTlbwr:
      return (kOpCop0 << 26) | (0x10u << 21) | kFnTlbwr;
    case Op::kTlbp:
      return (kOpCop0 << 26) | (0x10u << 21) | kFnTlbp;
    case Op::kRfe:
      return (kOpCop0 << 26) | (0x10u << 21) | kFnRfe;
    default:
      throw InternalError("not a COP0 op");
  }
}

uint32_t EncodeTrap(Op op, uint32_t code) {
  WRL_CHECK(op == Op::kSyscall || op == Op::kBreak);
  uint32_t funct = (op == Op::kSyscall) ? kFnSyscall : kFnBreak;
  return (kOpSpecial << 26) | ((code & 0xfffff) << 6) | funct;
}

uint32_t TrapCode(uint32_t word) { return (word >> 6) & 0xfffff; }

std::string Disassemble(const Inst& inst, uint32_t pc) {
  const char* rs = RegName(inst.rs);
  const char* rt = RegName(inst.rt);
  const char* rd = RegName(inst.rd);
  int imm = inst.imm;
  switch (inst.op) {
    case Op::kInvalid: return StrFormat(".word 0x%08x", inst.raw);
    case Op::kSll:
      if (inst.raw == 0) {
        return "nop";
      }
      return StrFormat("sll %s, %s, %u", rd, rt, inst.shamt);
    case Op::kSrl: return StrFormat("srl %s, %s, %u", rd, rt, inst.shamt);
    case Op::kSra: return StrFormat("sra %s, %s, %u", rd, rt, inst.shamt);
    case Op::kSllv: return StrFormat("sllv %s, %s, %s", rd, rt, rs);
    case Op::kSrlv: return StrFormat("srlv %s, %s, %s", rd, rt, rs);
    case Op::kSrav: return StrFormat("srav %s, %s, %s", rd, rt, rs);
    case Op::kJr: return StrFormat("jr %s", rs);
    case Op::kJalr: return StrFormat("jalr %s, %s", rd, rs);
    case Op::kSyscall: return StrFormat("syscall %u", TrapCode(inst.raw));
    case Op::kBreak: return StrFormat("break %u", TrapCode(inst.raw));
    case Op::kMfhi: return StrFormat("mfhi %s", rd);
    case Op::kMthi: return StrFormat("mthi %s", rs);
    case Op::kMflo: return StrFormat("mflo %s", rd);
    case Op::kMtlo: return StrFormat("mtlo %s", rs);
    case Op::kMult: return StrFormat("mult %s, %s", rs, rt);
    case Op::kMultu: return StrFormat("multu %s, %s", rs, rt);
    case Op::kDiv: return StrFormat("div %s, %s", rs, rt);
    case Op::kDivu: return StrFormat("divu %s, %s", rs, rt);
    case Op::kAdd: return StrFormat("add %s, %s, %s", rd, rs, rt);
    case Op::kAddu: return StrFormat("addu %s, %s, %s", rd, rs, rt);
    case Op::kSub: return StrFormat("sub %s, %s, %s", rd, rs, rt);
    case Op::kSubu: return StrFormat("subu %s, %s, %s", rd, rs, rt);
    case Op::kAnd: return StrFormat("and %s, %s, %s", rd, rs, rt);
    case Op::kOr: return StrFormat("or %s, %s, %s", rd, rs, rt);
    case Op::kXor: return StrFormat("xor %s, %s, %s", rd, rs, rt);
    case Op::kNor: return StrFormat("nor %s, %s, %s", rd, rs, rt);
    case Op::kSlt: return StrFormat("slt %s, %s, %s", rd, rs, rt);
    case Op::kSltu: return StrFormat("sltu %s, %s, %s", rd, rs, rt);
    case Op::kBltz: return StrFormat("bltz %s, 0x%08x", rs, BranchTarget(pc, inst.imm));
    case Op::kBgez: return StrFormat("bgez %s, 0x%08x", rs, BranchTarget(pc, inst.imm));
    case Op::kJ: return StrFormat("j 0x%08x", JumpTarget(pc, inst.target));
    case Op::kJal: return StrFormat("jal 0x%08x", JumpTarget(pc, inst.target));
    case Op::kBeq: return StrFormat("beq %s, %s, 0x%08x", rs, rt, BranchTarget(pc, inst.imm));
    case Op::kBne: return StrFormat("bne %s, %s, 0x%08x", rs, rt, BranchTarget(pc, inst.imm));
    case Op::kBlez: return StrFormat("blez %s, 0x%08x", rs, BranchTarget(pc, inst.imm));
    case Op::kBgtz: return StrFormat("bgtz %s, 0x%08x", rs, BranchTarget(pc, inst.imm));
    case Op::kAddi: return StrFormat("addi %s, %s, %d", rt, rs, imm);
    case Op::kAddiu: return StrFormat("addiu %s, %s, %d", rt, rs, imm);
    case Op::kSlti: return StrFormat("slti %s, %s, %d", rt, rs, imm);
    case Op::kSltiu: return StrFormat("sltiu %s, %s, %d", rt, rs, imm);
    case Op::kAndi: return StrFormat("andi %s, %s, 0x%x", rt, rs, imm & 0xffff);
    case Op::kOri: return StrFormat("ori %s, %s, 0x%x", rt, rs, imm & 0xffff);
    case Op::kXori: return StrFormat("xori %s, %s, 0x%x", rt, rs, imm & 0xffff);
    case Op::kLui: return StrFormat("lui %s, 0x%x", rt, imm & 0xffff);
    case Op::kLb: return StrFormat("lb %s, %d(%s)", rt, imm, rs);
    case Op::kLh: return StrFormat("lh %s, %d(%s)", rt, imm, rs);
    case Op::kLw: return StrFormat("lw %s, %d(%s)", rt, imm, rs);
    case Op::kLbu: return StrFormat("lbu %s, %d(%s)", rt, imm, rs);
    case Op::kLhu: return StrFormat("lhu %s, %d(%s)", rt, imm, rs);
    case Op::kSb: return StrFormat("sb %s, %d(%s)", rt, imm, rs);
    case Op::kSh: return StrFormat("sh %s, %d(%s)", rt, imm, rs);
    case Op::kSw: return StrFormat("sw %s, %d(%s)", rt, imm, rs);
    case Op::kMfc0: return StrFormat("mfc0 %s, $%u", rt, inst.rd);
    case Op::kMtc0: return StrFormat("mtc0 %s, $%u", rt, inst.rd);
    case Op::kTlbr: return "tlbr";
    case Op::kTlbwi: return "tlbwi";
    case Op::kTlbwr: return "tlbwr";
    case Op::kTlbp: return "tlbp";
    case Op::kRfe: return "rfe";
    case Op::kTraceEntry: return DisassembleWord(inst.raw, pc);
  }
  return StrFormat(".word 0x%08x", inst.raw);
}

std::string DisassembleWord(uint32_t word, uint32_t pc) { return Disassemble(Decode(word), pc); }

}  // namespace wrl
