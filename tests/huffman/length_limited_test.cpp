// Length-limited codes (package-merge): validity, optimality under the
// limit, and round trips through the decoder.
#include <gtest/gtest.h>

#include "huffman/decoder.h"
#include "huffman/encoder.h"
#include "huffman/length_limited.h"
#include "workload/corpus.h"

namespace {

using huff::CodeLengths;
using huff::CodeTable;
using huff::Histogram;

TEST(LengthLimited, ValidatesArguments) {
  Histogram h;
  h.at('a') = 1;
  const CodeLengths lens = huff::HuffmanTree::build(h).lengths();
  EXPECT_THROW(huff::limit_code_lengths(lens, h, 0), std::invalid_argument);
  // 256 floored symbols cannot fit in 7 bits.
  const Histogram full = h.with_floor(1);
  const CodeLengths full_lens = huff::HuffmanTree::build(full).lengths();
  EXPECT_THROW(huff::limit_code_lengths(full_lens, full, 7),
               std::invalid_argument);
  EXPECT_NO_THROW(huff::limit_code_lengths(full_lens, full, 8));
}

TEST(LengthLimited, AlreadyShortLengthsUnchangedInCost) {
  const Histogram h =
      Histogram::of(wl::make_corpus(wl::FileKind::Txt, 50000));
  const CodeLengths optimal = huff::HuffmanTree::build(h).lengths();
  const CodeLengths limited = huff::limit_code_lengths(optimal, h, 32);
  // Generous limit: cost must not get worse.
  EXPECT_LE(huff::encoded_bits(limited, h), huff::encoded_bits(optimal, h));
}

class LengthLimitSweep
    : public ::testing::TestWithParam<std::tuple<wl::FileKind, int>> {};

TEST_P(LengthLimitSweep, LimitedCodesAreValidAndNearOptimal) {
  const auto [kind, max_bits] = GetParam();
  const Histogram h =
      Histogram::of(wl::make_corpus(kind, 200000)).with_floor(1);
  const CodeLengths optimal = huff::HuffmanTree::build(h).lengths();
  const CodeLengths limited =
      huff::limit_code_lengths(optimal, h, static_cast<std::uint8_t>(max_bits));

  EXPECT_TRUE(huff::kraft_valid(limited));
  std::uint8_t max_seen = 0;
  for (std::size_t s = 0; s < huff::kSymbols; ++s) {
    EXPECT_EQ(limited[s] == 0, optimal[s] == 0) << "coverage must not change";
    max_seen = std::max(max_seen, limited[s]);
  }
  EXPECT_LE(max_seen, max_bits);

  // Squeezing 256 floored symbols under a 10-bit ceiling has a real,
  // input-dependent price; what optimality guarantees is that it stays
  // bounded and can never beat unconstrained Huffman.
  const auto base = static_cast<double>(huff::encoded_bits(optimal, h));
  const auto cost = static_cast<double>(huff::encoded_bits(limited, h));
  EXPECT_GE(cost, base - 1e-9) << "cannot beat unconstrained Huffman";
  EXPECT_LT(cost, base * 1.10) << "limit " << max_bits;

  // And the limited table still round-trips real data.
  const auto table = CodeTable::from_lengths(limited);
  const auto data = wl::make_corpus(kind, 20000, 3);
  const auto enc = huff::encode_block(data, table);
  const huff::Decoder slow(table);
  EXPECT_EQ(slow.decode(enc.bits, data.size()), data);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LengthLimitSweep,
    ::testing::Combine(::testing::Values(wl::FileKind::Txt, wl::FileKind::Bmp,
                                         wl::FileKind::Pdf),
                       ::testing::Values(10, 12, 14)));

TEST(LengthLimited, CostIsMonotoneInTheLimit) {
  // A property only optimal solutions have: loosening the constraint can
  // never increase the optimal cost. (The earlier greedy heuristic violated
  // this; package-merge must not.)
  for (wl::FileKind kind : wl::all_kinds()) {
    const Histogram h =
        Histogram::of(wl::make_corpus(kind, 150000)).with_floor(1);
    const auto unconstrained =
        huff::encoded_bits(huff::HuffmanTree::build(h).lengths(), h);
    std::uint64_t prev = ~0ULL;
    for (std::uint8_t limit : {9, 10, 11, 12, 14, 16, 20}) {
      const auto cost =
          huff::encoded_bits(huff::build_limited_lengths(h, limit), h);
      EXPECT_LE(cost, prev) << wl::to_string(kind) << " limit " << int{limit};
      EXPECT_GE(cost, unconstrained);
      prev = cost;
    }
    // By 20 bits the constraint is inactive on these inputs.
    EXPECT_EQ(prev, unconstrained) << wl::to_string(kind);
  }
}

}  // namespace
