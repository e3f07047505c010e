#include "obj/object_file.h"

#include <algorithm>

#include "support/error.h"
#include "support/strings.h"

namespace wrl {

uint32_t ObjectFile::TextWord(uint32_t offset) const {
  WRL_CHECK_MSG(offset % 4 == 0 && offset + 4 <= text.size(),
                StrFormat("text word offset %u out of range", offset));
  return text[offset] | (uint32_t{text[offset + 1]} << 8) | (uint32_t{text[offset + 2]} << 16) |
         (uint32_t{text[offset + 3]} << 24);
}

void ObjectFile::SetTextWord(uint32_t offset, uint32_t word) {
  WRL_CHECK_MSG(offset % 4 == 0 && offset + 4 <= text.size(),
                StrFormat("text word offset %u out of range", offset));
  text[offset] = static_cast<uint8_t>(word);
  text[offset + 1] = static_cast<uint8_t>(word >> 8);
  text[offset + 2] = static_cast<uint8_t>(word >> 16);
  text[offset + 3] = static_cast<uint8_t>(word >> 24);
}

uint32_t Executable::SymbolAddress(const std::string& name) const {
  auto it = symbols.find(name);
  if (it == symbols.end()) {
    throw Error(StrFormat("undefined symbol '%s'", name.c_str()));
  }
  return it->second;
}

namespace {

uint32_t AlignUp(uint32_t value, uint32_t align) {
  return (value + align - 1) & ~(align - 1);
}

struct ObjectLayout {
  uint32_t text_offset = 0;  // Offset of this object's text in the image.
  uint32_t data_offset = 0;
  uint32_t bss_offset = 0;
};

void PatchWord(std::vector<uint8_t>& bytes, uint32_t offset, uint32_t word) {
  WRL_CHECK(offset + 4 <= bytes.size());
  bytes[offset] = static_cast<uint8_t>(word);
  bytes[offset + 1] = static_cast<uint8_t>(word >> 8);
  bytes[offset + 2] = static_cast<uint8_t>(word >> 16);
  bytes[offset + 3] = static_cast<uint8_t>(word >> 24);
}

uint32_t FetchWord(const std::vector<uint8_t>& bytes, uint32_t offset) {
  WRL_CHECK(offset + 4 <= bytes.size());
  return bytes[offset] | (uint32_t{bytes[offset + 1]} << 8) | (uint32_t{bytes[offset + 2]} << 16) |
         (uint32_t{bytes[offset + 3]} << 24);
}

}  // namespace

Executable Link(const std::vector<ObjectFile>& objects, const LinkOptions& options) {
  Executable exe;
  exe.text_base = options.text_base;

  // Pass 1: layout.
  std::vector<ObjectLayout> layouts(objects.size());
  uint32_t text_size = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    WRL_CHECK_MSG(objects[i].text.size() % 4 == 0,
                  StrFormat("object '%s' text not word-aligned", objects[i].source_name.c_str()));
    layouts[i].text_offset = text_size;
    text_size += static_cast<uint32_t>(objects[i].text.size());
  }
  exe.data_base = options.fixed_data_base != 0
                      ? options.fixed_data_base
                      : AlignUp(options.text_base + text_size, options.data_align);
  uint32_t data_size = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    data_size = AlignUp(data_size, 8);
    layouts[i].data_offset = data_size;
    data_size += static_cast<uint32_t>(objects[i].data.size());
  }
  exe.bss_base = AlignUp(exe.data_base + data_size, 8);
  uint32_t bss_size = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    bss_size = AlignUp(bss_size, 8);
    layouts[i].bss_offset = bss_size;
    bss_size += objects[i].bss_size;
  }
  exe.bss_size = bss_size;

  // Pass 2: build the global symbol table.
  auto symbol_base = [&](size_t obj, SectionId section) -> uint32_t {
    switch (section) {
      case SectionId::kText: return exe.text_base + layouts[obj].text_offset;
      case SectionId::kData: return exe.data_base + layouts[obj].data_offset;
      case SectionId::kBss: return exe.bss_base + layouts[obj].bss_offset;
      case SectionId::kAbs: return 0;
    }
    throw InternalError("bad section id");
  };
  // name -> absolute address, for globals; per-object local tables too.
  std::vector<std::map<std::string, uint32_t>> local_symbols(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    for (const Symbol& s : objects[i].symbols) {
      uint32_t address = symbol_base(i, s.section) + s.value;
      local_symbols[i][s.name] = address;
      if (s.global) {
        auto [it, inserted] = exe.symbols.emplace(s.name, address);
        if (!inserted) {
          throw Error(StrFormat("duplicate global symbol '%s' (in '%s')", s.name.c_str(),
                                objects[i].source_name.c_str()));
        }
      }
    }
  }

  // Pass 3: concatenate section contents.
  exe.text.resize(text_size);
  exe.data.resize(data_size);
  for (size_t i = 0; i < objects.size(); ++i) {
    std::copy(objects[i].text.begin(), objects[i].text.end(),
              exe.text.begin() + layouts[i].text_offset);
    std::copy(objects[i].data.begin(), objects[i].data.end(),
              exe.data.begin() + layouts[i].data_offset);
  }

  // Pass 4: apply relocations.
  for (size_t i = 0; i < objects.size(); ++i) {
    for (const Relocation& r : objects[i].relocations) {
      // Resolve the symbol: local first, then global.
      uint32_t symbol_value;
      auto local_it = local_symbols[i].find(r.symbol);
      if (local_it != local_symbols[i].end()) {
        symbol_value = local_it->second;
      } else {
        auto global_it = exe.symbols.find(r.symbol);
        if (global_it == exe.symbols.end()) {
          throw Error(StrFormat("undefined symbol '%s' referenced from '%s'", r.symbol.c_str(),
                                objects[i].source_name.c_str()));
        }
        symbol_value = global_it->second;
      }
      uint32_t value = symbol_value + static_cast<uint32_t>(r.addend);

      std::vector<uint8_t>* section;
      uint32_t section_offset;
      if (r.section == SectionId::kText) {
        section = &exe.text;
        section_offset = layouts[i].text_offset + r.offset;
      } else if (r.section == SectionId::kData) {
        section = &exe.data;
        section_offset = layouts[i].data_offset + r.offset;
      } else {
        throw Error(StrFormat("relocation in unsupported section in '%s'",
                              objects[i].source_name.c_str()));
      }

      uint32_t word = FetchWord(*section, section_offset);
      switch (r.type) {
        case RelocType::kWord32:
          word = value;
          break;
        case RelocType::kHi16:
          word = (word & 0xffff0000u) | (value >> 16);
          break;
        case RelocType::kLo16:
          word = (word & 0xffff0000u) | (value & 0xffffu);
          break;
        case RelocType::kJump26: {
          uint32_t instr_addr = exe.text_base + section_offset;
          if ((value & 0xf0000000u) != ((instr_addr + 4) & 0xf0000000u)) {
            throw Error(StrFormat("jump from 0x%08x to 0x%08x crosses 256MB region", instr_addr,
                                  value));
          }
          word = (word & 0xfc000000u) | ((value >> 2) & 0x03ffffffu);
          break;
        }
      }
      PatchWord(*section, section_offset, word);
    }
  }

  // Pass 5: merge block annotations (absolute addresses).
  for (size_t i = 0; i < objects.size(); ++i) {
    for (const BlockAnnotation& b : objects[i].blocks) {
      exe.blocks.push_back(
          {exe.text_base + layouts[i].text_offset + b.offset, b.flags});
    }
  }
  std::sort(exe.blocks.begin(), exe.blocks.end(),
            [](const BlockAnnotation& a, const BlockAnnotation& b) { return a.offset < b.offset; });

  for (size_t i = 0; i < objects.size(); ++i) {
    exe.object_text_bases.push_back(exe.text_base + layouts[i].text_offset);
  }
  exe.entry = exe.SymbolAddress(options.entry_symbol);
  return exe;
}

}  // namespace wrl
