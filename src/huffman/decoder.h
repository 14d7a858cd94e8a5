// Canonical Huffman decoder.
//
// Not on the paper's critical path (the benchmark is an encoder), but
// essential to this reproduction: every test round-trips
// decode(encode(x)) == x to prove that speculation, rollback and commit never
// corrupt output, and every container path (decompress_buffer, decode_block)
// decodes through it.
//
// Decoding is table-driven, the construction production decompressors use
// (zlib's inflate, zstd's Huffman stage): a 2^kTableBits table indexed by
// the next kTableBits bits gives the symbol and length of every code no
// longer than kTableBits in one load. The decoder reads a 64-bit big-endian
// word at the current bit position and resolves the next few symbols from
// it, as many as its bits are guaranteed to hold, before reading the next.
// A code longer than kTableBits (or a prefix the code does not use) takes
// the canonical range walk instead.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "huffman/bitio.h"
#include "huffman/canonical.h"

namespace huff {

class Decoder {
 public:
  /// Width of the lookup table's index. 11 bits measured faster than 9, 10
  /// and 12 on TXT/BMP/PDF containers (docs/data-plane.md): the 4 KiB table
  /// stays in L1, and the codes longer than it are rare.
  static constexpr unsigned kTableBits = 11;

  /// Throws std::invalid_argument if `table` has no coded symbols.
  explicit Decoder(const CodeTable& table);

  /// Decodes exactly `n_symbols` symbols from `reader`'s position and
  /// advances it past them. Throws std::runtime_error on an invalid code or
  /// a premature end of data; never reads past the reader's bytes.
  [[nodiscard]] std::vector<std::uint8_t> decode(BitReader& reader,
                                                 std::size_t n_symbols) const;

  /// Decodes a whole buffer of `n_symbols` starting at bit 0.
  [[nodiscard]] std::vector<std::uint8_t> decode(
      std::span<const std::uint8_t> data, std::size_t n_symbols) const;

 private:
  struct Entry {
    std::uint8_t symbol = 0;
    std::uint8_t length = 0;  ///< 0 = no code of ≤ kTableBits has this prefix
  };

  /// Decodes `n` symbols into `out` from bit `pos` of `data`; returns the
  /// bit position after the last one.
  std::uint64_t decode_into(std::span<const std::uint8_t> data,
                            std::uint64_t pos, std::uint8_t* out,
                            std::size_t n) const;

  /// The canonical range walk, one bit at a time from `pos` (advanced past
  /// the code): the fallback for codes the table does not resolve.
  std::uint8_t walk(std::span<const std::uint8_t> data,
                    std::uint64_t& pos) const;

  std::array<Entry, std::size_t{1} << kTableBits> table_{};

  // Canonical decode state per code length L (1..max_len_):
  //  first_code_[L] — numeric value of the first code of length L
  //  first_index_[L] — index into symbols_ of that code's symbol
  //  count_[L] — number of codes of length L
  std::array<std::uint64_t, kMaxCodeBits + 1> first_code_{};
  std::array<std::uint32_t, kMaxCodeBits + 1> first_index_{};
  std::array<std::uint32_t, kMaxCodeBits + 1> count_{};
  std::vector<std::uint8_t> symbols_;  ///< symbols in (length, symbol) order
  std::uint8_t max_len_ = 0;
};

}  // namespace huff
