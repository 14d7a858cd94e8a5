// Bit-serial canonical Huffman decoding: the reference the table-driven
// huff::Decoder is checked against. One bit per step, one canonical range
// test per code length, no tables and no word reads — slow and obviously
// right. Throws std::runtime_error on an invalid code, and BitReader's
// std::out_of_range past the end of the data.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "huffman/bitio.h"
#include "huffman/canonical.h"

namespace testref {

class CanonicalWalk {
 public:
  explicit CanonicalWalk(const huff::CodeTable& table) {
    // (length, symbol) order is canonical order: codes of one length are
    // consecutive values, first assigned to the smallest symbol.
    for (std::uint8_t len = 1; len <= huff::kMaxCodeBits; ++len) {
      for (std::size_t s = 0; s < huff::kSymbols; ++s) {
        if (table.length(s) != len) continue;
        if (count_[len] == 0) {
          first_code_[len] = table.code(s);
          first_index_[len] = static_cast<std::uint32_t>(symbols_.size());
        }
        ++count_[len];
        symbols_.push_back(static_cast<std::uint8_t>(s));
        max_len_ = len;
      }
    }
  }

  std::uint8_t decode_one(huff::BitReader& reader) const {
    std::uint64_t code = 0;
    for (std::uint8_t len = 1; len <= max_len_; ++len) {
      code = (code << 1) | reader.get_bit();
      if (count_[len] != 0 && code >= first_code_[len] &&
          code < first_code_[len] + count_[len]) {
        return symbols_[first_index_[len] +
                        static_cast<std::uint32_t>(code - first_code_[len])];
      }
    }
    throw std::runtime_error("CanonicalWalk: invalid code");
  }

  std::vector<std::uint8_t> decode(huff::BitReader& reader,
                                   std::size_t n) const {
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(decode_one(reader));
    return out;
  }

  std::vector<std::uint8_t> decode(std::span<const std::uint8_t> data,
                                   std::size_t n) const {
    huff::BitReader reader(data);
    return decode(reader, n);
  }

 private:
  std::array<std::uint64_t, huff::kMaxCodeBits + 1> first_code_{};
  std::array<std::uint32_t, huff::kMaxCodeBits + 1> first_index_{};
  std::array<std::uint32_t, huff::kMaxCodeBits + 1> count_{};
  std::vector<std::uint8_t> symbols_;
  std::uint8_t max_len_ = 0;
};

}  // namespace testref
