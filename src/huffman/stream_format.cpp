#include "huffman/stream_format.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "huffman/decoder.h"
#include "huffman/encoder.h"
#include "huffman/offsets.h"

namespace huff {
namespace {

constexpr char kMagic[4] = {'T', 'V', 'S', 'H'};
constexpr std::uint16_t kVersion = 2;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

class Parser {
 public:
  explicit Parser(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() {
    auto b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }
  std::uint32_t u32() {
    auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[static_cast<std::size_t>(i)];
    return v;
  }
  std::uint64_t u64() {
    auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[static_cast<std::size_t>(i)];
    return v;
  }
  std::span<const std::uint8_t> take(std::size_t n) {
    if (pos_ + n > data_.size()) {
      throw std::runtime_error("CompressedStream: truncated input");
    }
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace

std::size_t CompressedStream::serialized_size() const {
  return 4 + 2 + 8 + 4 + 4 + kSymbols + 1 + block_offsets.size() * 8 + 8 +
         payload.size();
}

std::size_t CompressedStream::block_bytes(std::size_t i) const {
  if (i >= n_blocks) {
    throw std::out_of_range("CompressedStream: block index out of range");
  }
  const std::uint64_t begin = static_cast<std::uint64_t>(i) * block_size;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(block_size, original_bytes - begin));
}

std::vector<std::uint8_t> serialize(const CompressedStream& s) {
  std::vector<std::uint8_t> out;
  out.reserve(s.serialized_size());
  out.insert(out.end(), kMagic, kMagic + 4);
  put_u16(out, kVersion);
  put_u64(out, s.original_bytes);
  put_u32(out, s.n_blocks);
  put_u32(out, s.block_size);
  out.insert(out.end(), s.lengths.begin(), s.lengths.end());
  if (s.has_index() && s.block_offsets.size() != s.n_blocks) {
    throw std::invalid_argument("serialize: index size != block count");
  }
  out.push_back(s.has_index() ? 1 : 0);
  for (std::uint64_t off : s.block_offsets) put_u64(out, off);
  put_u64(out, s.payload_bits);
  out.insert(out.end(), s.payload.begin(), s.payload.end());
  return out;
}

CompressedStream deserialize(std::span<const std::uint8_t> data) {
  Parser p(data);
  auto magic = p.take(4);
  if (std::memcmp(magic.data(), kMagic, 4) != 0) {
    throw std::runtime_error("CompressedStream: bad magic");
  }
  const std::uint16_t version = p.u16();
  if (version != kVersion) {
    throw std::runtime_error("CompressedStream: unsupported version " +
                             std::to_string(version));
  }
  CompressedStream s;
  s.original_bytes = p.u64();
  s.n_blocks = p.u32();
  s.block_size = p.u32();
  auto lens = p.take(kSymbols);
  std::copy(lens.begin(), lens.end(), s.lengths.begin());
  if (!kraft_valid(s.lengths)) {
    throw std::runtime_error("CompressedStream: invalid code lengths");
  }
  const std::uint8_t has_index = p.u8();
  if (has_index > 1) {
    throw std::runtime_error("CompressedStream: bad index flag");
  }
  if (has_index == 1) {
    s.block_offsets.reserve(s.n_blocks);
    for (std::uint32_t i = 0; i < s.n_blocks; ++i) {
      s.block_offsets.push_back(p.u64());
    }
  }
  s.payload_bits = p.u64();
  auto payload = p.take(static_cast<std::size_t>((s.payload_bits + 7) / 8));
  s.payload.assign(payload.begin(), payload.end());
  return s;
}

std::vector<std::uint8_t> compress_buffer(std::span<const std::uint8_t> data,
                                          std::uint32_t block_size,
                                          bool with_index) {
  if (block_size == 0) {
    throw std::invalid_argument("compress_buffer: block_size == 0");
  }
  CompressedStream s;
  s.original_bytes = data.size();
  s.block_size = block_size;

  const std::size_t n_blocks = (data.size() + block_size - 1) / block_size;
  s.n_blocks = static_cast<std::uint32_t>(n_blocks);

  std::vector<Histogram> hists(n_blocks);
  std::vector<std::span<const std::uint8_t>> blocks(n_blocks);
  for (std::size_t i = 0; i < n_blocks; ++i) {
    const std::size_t begin = i * block_size;
    const std::size_t len = std::min<std::size_t>(block_size, data.size() - begin);
    blocks[i] = data.subspan(begin, len);
    hists[i] = Histogram::of(blocks[i]);
  }

  const Histogram global = Histogram::merged(hists);
  const CodeTable table = CodeTable::from_histogram(global);
  s.lengths = table.lengths();

  const auto offsets = all_offsets(hists, table);
  std::vector<EncodedBlock> encoded(n_blocks);
  for (std::size_t i = 0; i < n_blocks; ++i) {
    encoded[i] = encode_block(blocks[i], table);
  }
  s.payload = assemble(encoded, offsets);
  s.payload_bits =
      n_blocks == 0 ? 0 : offsets.back() + encoded.back().bit_count;
  if (with_index) s.block_offsets = offsets;
  return serialize(s);
}

std::vector<std::uint8_t> decompress_buffer(
    std::span<const std::uint8_t> container) {
  const CompressedStream s = deserialize(container);
  if (s.original_bytes == 0) return {};
  const Decoder decoder(s.table());
  return decoder.decode(s.payload, static_cast<std::size_t>(s.original_bytes));
}

std::vector<std::uint8_t> decode_block(const CompressedStream& stream,
                                        std::size_t i) {
  return decode_block(stream, Decoder(stream.table()), i);
}

std::vector<std::uint8_t> decode_block(const CompressedStream& stream,
                                        const Decoder& decoder, std::size_t i) {
  if (!stream.has_index()) {
    throw std::logic_error("decode_block: container carries no block index");
  }
  if (i >= stream.n_blocks) {
    throw std::out_of_range("decode_block: block index out of range");
  }
  if (stream.block_offsets[i] >= stream.payload_bits) {
    throw std::runtime_error("decode_block: index entry past the payload");
  }
  BitReader reader(stream.payload);
  reader.seek(stream.block_offsets[i]);
  return decoder.decode(reader, stream.block_bytes(i));
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_file: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("write_file: write failed for " + path);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("read_file: cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(out.data()), size);
  if (!in) throw std::runtime_error("read_file: read failed for " + path);
  return out;
}

}  // namespace huff
