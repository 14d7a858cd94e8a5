// Differential suite for the table-driven huff::Decoder: every case decodes
// the same bits with the decoder and with the bit-serial canonical walk
// (support/reference_decoder.h) and requires identical bytes, identical end
// positions, or a std::runtime_error where the data is bad. The cases aim at
// the decoder's seams: codes longer than the table's window (the fallback),
// the switch from 64-bit word reads to the zero-padded tail, unaligned
// start bits, truncation and prefixes an incomplete code leaves unused.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "huffman/bitio.h"
#include "huffman/decoder.h"
#include "support/reference_decoder.h"
#include "workload/rng.h"

namespace {

using huff::BitReader;
using huff::BitWriter;
using huff::CodeLengths;
using huff::CodeTable;
using huff::Decoder;
using huff::Histogram;
using testref::CanonicalWalk;

struct Encoded {
  std::vector<std::uint8_t> bytes;
  std::uint64_t lead_bits = 0;  ///< bits before the first code
  std::uint64_t bits = 0;       ///< lead + code bits, padding excluded
};

/// `lead_bits` random bits, then `symbols` coded with `t`, zero-padded.
Encoded encode(std::span<const std::uint8_t> symbols, const CodeTable& t,
               unsigned lead_bits = 0, std::uint64_t lead = 0) {
  BitWriter w;
  w.put(lead, static_cast<std::uint8_t>(lead_bits));
  for (std::uint8_t s : symbols) w.put(t.code(s), t.length(s));
  Encoded e;
  e.lead_bits = lead_bits;
  e.bits = w.bit_size();
  e.bytes = w.take();
  return e;
}

std::uint8_t max_length(const CodeTable& t) {
  const auto& l = t.lengths();
  return *std::max_element(l.begin(), l.end());
}

std::vector<std::uint8_t> coded_symbols(const CodeTable& t) {
  std::vector<std::uint8_t> out;
  for (std::size_t s = 0; s < huff::kSymbols; ++s) {
    if (t.has_code(s)) out.push_back(static_cast<std::uint8_t>(s));
  }
  return out;
}

/// A random histogram over a random alphabet; `skew` spreads the counts
/// over up to 2^28, which drives the rarest codes far past the window.
CodeTable random_table(wl::Rng& rng, bool skew) {
  Histogram h;
  const std::size_t alphabet = 1 + rng.below(huff::kSymbols);
  for (std::size_t k = 0; k < alphabet; ++k) {
    const std::uint64_t count =
        skew ? (std::uint64_t{1} << rng.below(28)) + rng.below(16)
             : 1 + rng.below(1000);
    h.at(rng.below(huff::kSymbols)) += count;
  }
  return CodeTable::from_histogram(h);
}

/// `n` symbols of `t`: half the draws uniform over the coded alphabet (so
/// long codes are common), half the shortest code.
std::vector<std::uint8_t> random_symbols(wl::Rng& rng, const CodeTable& t,
                                         std::size_t n) {
  const auto alphabet = coded_symbols(t);
  const std::uint8_t shortest = *std::min_element(
      alphabet.begin(), alphabet.end(),
      [&](std::uint8_t a, std::uint8_t b) { return t.length(a) < t.length(b); });
  std::vector<std::uint8_t> out(n);
  for (auto& s : out) {
    s = rng.below(2) == 0 ? alphabet[rng.below(alphabet.size())] : shortest;
  }
  return out;
}

/// Fibonacci counts give the deepest tree a histogram of this size can:
/// 30 symbols reach a 29-bit code.
CodeTable fibonacci_table() {
  Histogram h;
  std::uint64_t a = 1;
  std::uint64_t b = 1;
  for (std::size_t s = 0; s < 30; ++s) {
    h.at(s * 7 + 3) = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return CodeTable::from_histogram(h);
}

TEST(DecoderDiff, RandomTablesMatchTheCanonicalWalk) {
  wl::Rng rng(0xdec0de);
  std::uint8_t deepest = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const CodeTable t = random_table(rng, trial % 2 == 1);
    deepest = std::max(deepest, max_length(t));
    const auto symbols = random_symbols(rng, t, 1 + rng.below(3000));
    const auto enc = encode(symbols, t);
    const Decoder dec(t);
    const CanonicalWalk ref(t);
    ASSERT_EQ(ref.decode(enc.bytes, symbols.size()), symbols) << trial;
    ASSERT_EQ(dec.decode(enc.bytes, symbols.size()), symbols) << trial;
  }
  // The skewed tables must have exercised codes well past the window.
  EXPECT_GE(deepest, 20);
}

TEST(DecoderDiff, FibonacciCodesPastTheWindowDecode) {
  const CodeTable t = fibonacci_table();
  ASSERT_GE(max_length(t), 20);
  ASSERT_GT(max_length(t), Decoder::kTableBits);
  wl::Rng rng(29);
  const auto symbols = random_symbols(rng, t, 20000);
  const auto enc = encode(symbols, t);
  EXPECT_EQ(Decoder(t).decode(enc.bytes, symbols.size()),
            CanonicalWalk(t).decode(enc.bytes, symbols.size()));
  EXPECT_EQ(Decoder(t).decode(enc.bytes, symbols.size()), symbols);
}

TEST(DecoderDiff, WindowLengthCodesBackToBack) {
  // Lengths 1..10 then two codes of exactly the window and two just past
  // it (a complete code). A stream of only the longest table codes uses
  // every bit of lookahead a 64-bit word guarantees, at every skew.
  CodeLengths lens{};
  for (std::uint8_t l = 1; l < Decoder::kTableBits; ++l) lens[l] = l;
  lens[200] = Decoder::kTableBits;
  lens[201] = Decoder::kTableBits + 1;
  lens[202] = Decoder::kTableBits + 1;
  const CodeTable t = CodeTable::from_lengths(lens);
  wl::Rng rng(11);
  for (unsigned lead = 0; lead < 8; ++lead) {
    std::vector<std::uint8_t> symbols(500, 200);
    for (std::size_t k = 300; k < symbols.size(); ++k) {
      symbols[k] = static_cast<std::uint8_t>(200 + rng.below(3));
    }
    const auto enc = encode(symbols, t, lead, rng.next());
    BitReader r(enc.bytes);
    r.seek(lead);
    ASSERT_EQ(Decoder(t).decode(r, symbols.size()), symbols) << lead;
    EXPECT_EQ(r.position(), enc.bits);
  }
}

TEST(DecoderDiff, SingleSymbolTable) {
  Histogram h;
  h.at('q') = 5;
  const CodeTable t = CodeTable::from_histogram(h);
  ASSERT_EQ(t.length('q'), 1);
  for (std::size_t n : {1, 7, 8, 9, 63, 64, 65, 1000}) {
    const std::vector<std::uint8_t> symbols(n, 'q');
    const auto enc = encode(symbols, t);
    EXPECT_EQ(Decoder(t).decode(enc.bytes, n), symbols) << n;
  }
  // The one-bit code is "0"; a set bit is a prefix no code uses.
  const std::vector<std::uint8_t> bad = {0x00, 0x01};
  EXPECT_THROW((void)Decoder(t).decode(bad, 16), std::runtime_error);
  EXPECT_EQ(Decoder(t).decode(bad, 15), std::vector<std::uint8_t>(15, 'q'));
}

TEST(DecoderDiff, RandomStartBitsThroughBitReader) {
  wl::Rng rng(0x5eed);
  for (int trial = 0; trial < 300; ++trial) {
    const CodeTable t = random_table(rng, trial % 3 == 0);
    const auto symbols = random_symbols(rng, t, 1 + rng.below(400));
    const auto lead_bits = static_cast<unsigned>(rng.below(64));
    const auto enc = encode(symbols, t, lead_bits, rng.next());

    BitReader got(enc.bytes);
    got.seek(enc.lead_bits);
    BitReader want(enc.bytes);
    want.seek(enc.lead_bits);
    ASSERT_EQ(Decoder(t).decode(got, symbols.size()), symbols) << trial;
    ASSERT_EQ(CanonicalWalk(t).decode(want, symbols.size()), symbols);
    EXPECT_EQ(got.position(), want.position()) << trial;
    EXPECT_EQ(got.position(), enc.bits) << trial;
  }
}

TEST(DecoderDiff, LastCodeEndingOnTheFinalBit) {
  wl::Rng rng(81);
  int aligned = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const CodeTable t = random_table(rng, trial % 2 == 0);
    const auto symbols = random_symbols(rng, t, 1 + rng.below(120));
    const auto enc = encode(symbols, t);
    if (enc.bits % 8 != 0) continue;
    ++aligned;
    // The codes fill the buffer exactly: decoding all of them must consume
    // the final bit, and one more symbol must be refused.
    BitReader r(enc.bytes);
    ASSERT_EQ(Decoder(t).decode(r, symbols.size()), symbols) << trial;
    EXPECT_EQ(r.position(), enc.bytes.size() * 8);
    EXPECT_THROW((void)Decoder(t).decode(enc.bytes, symbols.size() + 1),
                 std::runtime_error);
  }
  EXPECT_GT(aligned, 20);
}

TEST(DecoderDiff, CodesStraddlingTheLastEightBytes) {
  // Decode every suffix of a stream whose codes are long: each start
  // position crosses from 64-bit word reads to the padded tail somewhere
  // else, including in the middle of a code.
  wl::Rng rng(7);
  for (const CodeTable& t : {fibonacci_table(), random_table(rng, true),
                             random_table(rng, false)}) {
    const auto symbols = random_symbols(rng, t, 200);
    const auto enc = encode(symbols, t);
    std::vector<std::uint64_t> starts;
    std::uint64_t pos = 0;
    for (std::uint8_t s : symbols) {
      starts.push_back(pos);
      pos += t.length(s);
    }
    const Decoder dec(t);
    for (std::size_t j = 0; j < symbols.size(); ++j) {
      BitReader r(enc.bytes);
      r.seek(starts[j]);
      const auto got = dec.decode(r, symbols.size() - j);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), symbols.begin() +
                                 static_cast<std::ptrdiff_t>(j)))
          << "start symbol " << j;
      EXPECT_EQ(r.position(), enc.bits);
    }
  }
}

TEST(DecoderDiff, TruncatedPayloadsThrow) {
  wl::Rng rng(404);
  for (int trial = 0; trial < 60; ++trial) {
    const CodeTable t =
        trial == 0 ? fibonacci_table() : random_table(rng, trial % 2 == 0);
    const auto symbols = random_symbols(rng, t, 1 + rng.below(100));
    const auto enc = encode(symbols, t);
    const Decoder dec(t);
    const CanonicalWalk ref(t);
    // Any cut that removes a code bit leaves the last code incomplete.
    for (std::size_t keep = 0; keep < enc.bytes.size(); ++keep) {
      const auto cut = std::span(enc.bytes).first(keep);
      EXPECT_THROW((void)dec.decode(cut, symbols.size()), std::runtime_error)
          << trial << " keep " << keep;
      EXPECT_ANY_THROW((void)ref.decode(cut, symbols.size()));
    }
    // Asking for more symbols than the bits hold, even far more.
    EXPECT_THROW((void)dec.decode(enc.bytes, symbols.size() + enc.bytes.size() * 8),
                 std::runtime_error);
    EXPECT_THROW((void)dec.decode(enc.bytes, ~std::size_t{0}),
                 std::runtime_error);
  }
  // A reader positioned past its data.
  const std::vector<std::uint8_t> bytes(16, 0);
  BitReader r(bytes);
  r.seek(1000);
  EXPECT_THROW((void)Decoder(fibonacci_table()).decode(r, 1), std::runtime_error);
}

TEST(DecoderDiff, IncompleteTableUnusedPrefixThrows) {
  // Kraft sum 1/2 + 1/4 + 2^-13 < 1: codes a=0, b=10, c=1100000000000. Both
  // a short unused prefix (111…) and one that matches c's first eleven bits
  // but not its thirteen must be rejected, as the reference rejects them.
  CodeLengths lens{};
  lens['a'] = 1;
  lens['b'] = 2;
  lens['c'] = 13;
  const CodeTable t = CodeTable::from_lengths(lens);
  const Decoder dec(t);
  const CanonicalWalk ref(t);

  const std::vector<std::uint8_t> valid = {'a', 'b', 'c', 'a', 'c', 'b'};
  const auto enc = encode(valid, t);
  EXPECT_EQ(dec.decode(enc.bytes, valid.size()), valid);

  BitWriter w;
  w.put(0b0, 1);                // a
  w.put(0b1100000000001, 13);   // c's window, then an unused tail
  const auto long_bad = w.take();
  BitWriter w2;
  w2.put(0b10, 2);              // b
  w2.put(0b111, 3);             // unused short prefix
  w2.put(0, 16);
  const auto short_bad = w2.take();
  for (const auto& bad : {long_bad, short_bad}) {
    EXPECT_THROW((void)dec.decode(bad, 2), std::runtime_error);
    EXPECT_THROW((void)ref.decode(bad, 2), std::runtime_error);
  }
  // The valid prefix before the bad code still decodes.
  EXPECT_EQ(dec.decode(long_bad, 1), std::vector<std::uint8_t>{'a'});
  EXPECT_EQ(dec.decode(short_bad, 1), std::vector<std::uint8_t>{'b'});
}

TEST(DecoderDiff, ZeroSymbolsReadNothing) {
  const CodeTable t = fibonacci_table();
  BitReader r(std::span<const std::uint8_t>{});
  EXPECT_TRUE(Decoder(t).decode(r, 0).empty());
  EXPECT_EQ(r.position(), 0u);
}

}  // namespace
