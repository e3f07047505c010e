// The hand-built lookup tables the parser tests run on: parser_test and
// parser_defense_test check the parser's behaviour on them, and
// parser_oracle_test holds the parser to its per-reference reference on
// the same tables.
#ifndef WRLTRACE_TESTS_PARSER_TABLES_H_
#define WRLTRACE_TESTS_PARSER_TABLES_H_

#include <cstdint>

#include "trace/parser.h"

namespace wrl {

constexpr uint32_t kKeyA = 0x10000010;     // Block with 2 instrs, no mem ops.
constexpr uint32_t kKeyB = 0x10000040;     // Block with 3 instrs, load@1.
constexpr uint32_t kKeyC = 0x10000080;     // Block with 4 instrs, store@0, load@2.
constexpr uint32_t kKeyIdle = 0x10000100;  // Idle-start block, 2 instrs.
constexpr uint32_t kKeyStop = 0x10000140;  // Idle-stop block, 1 instr.
constexpr uint32_t kKeyKA = 0x10000180;    // Kernel block, 2 instrs.
constexpr uint32_t kKeyKB = 0x100001c0;    // Kernel block, 3 instrs, load@1.

// Blocks A, B and C.
inline TraceInfoTable MakeUserBlockTable() {
  TraceInfoTable table;
  table.Add(kKeyA, {0x00400000, 2, 0, {}, 0});
  table.Add(kKeyB, {0x00400100, 3, 0, {{1, false, 4}}, 0});
  table.Add(kKeyC, {0x00400200, 4, 0, {{0, true, 4}, {2, false, 1}}, 0});
  return table;
}

// Every block above: user blocks, idle-loop blocks and kernel blocks in one
// table, which the tests use as both the kernel's and the users' table.
inline TraceInfoTable MakeMixedTable() {
  TraceInfoTable table = MakeUserBlockTable();
  table.Add(kKeyIdle, {0x80002000, 2, kBlockIdleStart, {}, 0});
  table.Add(kKeyStop, {0x80002100, 1, kBlockIdleStop, {}, 0});
  table.Add(kKeyKA, {0x80003000, 2, 0, {}, 0});
  table.Add(kKeyKB, {0x80003100, 3, 0, {{1, false, 4}}, 0});
  return table;
}

// The key of a kernel block whose original text lies at a user address.
constexpr uint32_t kKeyKernelAtUser = 0x80001000;

inline TraceInfoTable MakeKernelAtUserTable() {
  TraceInfoTable table;
  table.Add(kKeyKernelAtUser, {0x00400000, 1, 0, {}, 0});
  return table;
}

}  // namespace wrl

#endif  // WRLTRACE_TESTS_PARSER_TABLES_H_
