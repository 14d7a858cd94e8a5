#include "huffman/decoder.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace huff {
namespace {

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  if constexpr (std::endian::native == std::endian::little) {
    w = __builtin_bswap64(w);
  }
  return w;
}

[[noreturn]] void throw_premature_end() {
  throw std::runtime_error("Decoder: premature end of data");
}

}  // namespace

Decoder::Decoder(const CodeTable& table) {
  std::vector<std::pair<std::uint8_t, std::uint16_t>> order;
  for (std::size_t s = 0; s < kSymbols; ++s) {
    if (table.length(s) != 0) {
      order.emplace_back(table.length(s), static_cast<std::uint16_t>(s));
    }
  }
  if (order.empty()) {
    throw std::invalid_argument("Decoder: code table has no coded symbols");
  }
  std::sort(order.begin(), order.end());
  max_len_ = order.back().first;

  for (const auto& [len, sym] : order) {
    if (count_[len] == 0) {
      first_code_[len] = table.code(sym);
      first_index_[len] = static_cast<std::uint32_t>(symbols_.size());
    }
    ++count_[len];
    symbols_.push_back(static_cast<std::uint8_t>(sym));
    if (len > kTableBits) continue;
    // The code is the top `len` bits of the index; every entry sharing that
    // prefix resolves to it.
    const std::size_t base = static_cast<std::size_t>(table.code(sym))
                             << (kTableBits - len);
    std::fill_n(table_.begin() + static_cast<std::ptrdiff_t>(base),
                std::size_t{1} << (kTableBits - len),
                Entry{static_cast<std::uint8_t>(sym), len});
  }
}

std::uint8_t Decoder::walk(std::span<const std::uint8_t> data,
                           std::uint64_t& pos) const {
  const std::uint64_t total_bits = std::uint64_t{data.size()} * 8;
  std::uint64_t code = 0;
  for (std::uint8_t len = 1; len <= max_len_; ++len) {
    if (pos >= total_bits) throw_premature_end();
    const auto byte = static_cast<std::size_t>(pos >> 3);
    code = (code << 1) | ((data[byte] >> (7 - (pos & 7))) & 1U);
    ++pos;
    // Codes of length `len` are the consecutive values
    // [first_code_[len], first_code_[len] + count_[len]).
    if (code - first_code_[len] < count_[len]) {
      return symbols_[first_index_[len] +
                      static_cast<std::uint32_t>(code - first_code_[len])];
    }
  }
  throw std::runtime_error("Decoder: invalid code in stream");
}

std::uint64_t Decoder::decode_into(std::span<const std::uint8_t> data,
                                   std::uint64_t pos, std::uint8_t* out,
                                   std::size_t n) const {
  // After the word is shifted to `pos`, at least 57 of its bits are stream
  // bits. A table code is at most kTableBits long, so this many lookups in a
  // row always have kTableBits bits of lookahead.
  constexpr std::size_t kPerWord = (57 - kTableBits) / kTableBits + 1;
  const std::uint64_t total_bits = std::uint64_t{data.size()} * 8;
  std::size_t i = 0;
  while (i < n) {
    const auto byte = static_cast<std::size_t>(pos >> 3);
    if (byte + 8 <= data.size() && n - i >= kPerWord) {
      // Word path, branch-free: an entry of length 0 stops the word from
      // advancing, so every later lookup repeats it and `got` stops there.
      std::uint64_t word = load_be64(data.data() + byte) << (pos & 7);
      std::size_t got = 0;
      for (std::size_t k = 0; k < kPerWord; ++k) {
        const Entry e = table_[word >> (64 - kTableBits)];
        out[i + got] = e.symbol;
        got += e.length != 0 ? 1 : 0;
        word <<= e.length;
        pos += e.length;
      }
      i += got;
      if (got < kPerWord) out[i++] = walk(data, pos);
      continue;
    }
    // Tail path (the last < 8 bytes, or the last few symbols): one symbol
    // per gather, zero-padded past the end. An entry is only taken if its
    // whole code is in the data; the walk checks every bit it reads.
    std::uint64_t word = 0;
    for (std::size_t b = byte; b < byte + 8; ++b) {
      word = (word << 8) | (b < data.size() ? data[b] : 0U);
    }
    word <<= pos & 7;
    const Entry e = table_[word >> (64 - kTableBits)];
    if (e.length == 0) {
      out[i++] = walk(data, pos);
      continue;
    }
    if (e.length > total_bits - pos) throw_premature_end();
    out[i++] = e.symbol;
    pos += e.length;
  }
  return pos;
}

std::vector<std::uint8_t> Decoder::decode(BitReader& reader,
                                          std::size_t n_symbols) const {
  const std::uint64_t pos = reader.position();
  const std::uint64_t cap = reader.bit_capacity();
  // Every code is at least one bit: refuse a count the data cannot hold
  // before sizing the output for it.
  if (n_symbols > (pos < cap ? cap - pos : 0)) throw_premature_end();
  std::vector<std::uint8_t> out(n_symbols);
  reader.seek(decode_into(reader.bytes(), pos, out.data(), n_symbols));
  return out;
}

std::vector<std::uint8_t> Decoder::decode(std::span<const std::uint8_t> data,
                                          std::size_t n_symbols) const {
  BitReader reader(data);
  return decode(reader, n_symbols);
}

}  // namespace huff
