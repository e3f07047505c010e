// The EWO ("Epoxie Workbench Object") relocatable object format, the
// executable image format, and the static linker.
//
// The format exists for the same reason the paper's epoxie works at link time
// rather than on executables: the symbol and relocation tables let the
// instrumenter distinguish *uses of addresses* from coincidentally similar
// constants, so all address correction after code expansion can be done
// statically (paper §3.2).  In addition to symbols and relocations, EWO
// objects carry basic-block annotations: the assembler records every block
// leader it can prove, plus per-block tracing flags (no-trace regions,
// hand-traced routines, idle-loop counter markers) that epoxie and the
// trace-parsing library both consume.
#ifndef WRLTRACE_OBJ_OBJECT_FILE_H_
#define WRLTRACE_OBJ_OBJECT_FILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wrl {

enum class SectionId : uint8_t { kText = 0, kData = 1, kBss = 2, kAbs = 3 };

struct Symbol {
  std::string name;
  uint32_t value = 0;  // Section-relative offset (absolute for kAbs).
  SectionId section = SectionId::kText;
  bool global = false;
};

enum class RelocType : uint8_t {
  kWord32,   // 32-bit absolute word (.word label, in text or data).
  kHi16,     // lui immediate: (S + A) >> 16   (pure upper half, paired with kLo16/ori).
  kLo16,     // ori/lw/sw immediate: (S + A) & 0xffff.
  kJump26,   // j/jal target field: (S + A) >> 2.
};

struct Relocation {
  uint32_t offset = 0;  // Byte offset within the section the reloc patches.
  SectionId section = SectionId::kText;
  RelocType type = RelocType::kWord32;
  std::string symbol;
  int32_t addend = 0;
};

// Per-basic-block tracing flags.
enum BlockFlags : uint32_t {
  kBlockNone = 0,
  // Part of the tracing system or too delicate to rewrite: epoxie must not
  // instrument it, and the parser must not expect trace from it (paper §3.3).
  kBlockNoTrace = 1u << 0,
  // Instrumented by hand rather than by epoxie; the trace-parsing library
  // recognizes its records as special (paper §3.5).
  kBlockHandTraced = 1u << 1,
  // Entering this block starts/stops the idle-loop instruction counter used
  // for the I/O-stall estimate (paper §3.5, §5.1).
  kBlockIdleStart = 1u << 2,
  kBlockIdleStop = 1u << 3,
};

struct BlockAnnotation {
  uint32_t offset = 0;  // Byte offset of the block leader within .text.
  uint32_t flags = kBlockNone;
};

struct ObjectFile {
  std::string source_name;  // For diagnostics.
  std::vector<uint8_t> text;
  std::vector<uint8_t> data;
  uint32_t bss_size = 0;
  std::vector<Symbol> symbols;
  std::vector<Relocation> relocations;
  std::vector<BlockAnnotation> blocks;  // Sorted by offset, offsets unique.

  // Word accessors for .text (offsets must be word-aligned and in range).
  uint32_t TextWord(uint32_t offset) const;
  void SetTextWord(uint32_t offset, uint32_t word);
  uint32_t NumTextWords() const { return static_cast<uint32_t>(text.size() / 4); }
};

// A fully linked, absolute image.
struct Executable {
  uint32_t text_base = 0;
  std::vector<uint8_t> text;
  uint32_t data_base = 0;
  std::vector<uint8_t> data;
  uint32_t bss_base = 0;
  uint32_t bss_size = 0;
  uint32_t entry = 0;
  std::map<std::string, uint32_t> symbols;          // Global symbols, absolute.
  std::vector<BlockAnnotation> blocks;              // offset = absolute address.
  // Where each input object's text landed (absolute), in input order — the
  // hook the trace-info builder uses to pair instrumented and original
  // layouts.
  std::vector<uint32_t> object_text_bases;

  uint32_t TextEnd() const { return text_base + static_cast<uint32_t>(text.size()); }
  uint32_t DataEnd() const { return data_base + static_cast<uint32_t>(data.size()); }
  // Address of a required global symbol; throws Error if absent.
  uint32_t SymbolAddress(const std::string& name) const;
};

struct LinkOptions {
  uint32_t text_base = 0x00400000;
  // Data is placed at the first `data_align`-aligned address after text
  // (page-aligned by default so text growth changes text pages only).
  uint32_t data_align = 0x1000;
  // When nonzero, data is placed exactly here instead.  The instrumented
  // link of a binary pins data to the *original* binary's data base so the
  // data addresses recorded in the trace match the uninstrumented program
  // (paper §3.2: "expansion of traced text does not affect the trace
  // addresses generated").
  uint32_t fixed_data_base = 0;
  std::string entry_symbol = "_start";
};

// Links objects into an executable: lays out sections, resolves symbols,
// applies relocations.  Throws wrl::Error on undefined/duplicate symbols or
// malformed relocations.
Executable Link(const std::vector<ObjectFile>& objects, const LinkOptions& options);

}  // namespace wrl

#endif  // WRLTRACE_OBJ_OBJECT_FILE_H_
