// Length-limited prefix codes.
//
// The table-driven decoder (decoder.h) indexes a 2^W lookup table with the
// next W bits; codes longer than W take a slow path. Limiting the maximum
// code length to W keeps every symbol on the table. This
// module turns optimal Huffman lengths into the *optimal* lengths subject
// to a maximum, via the package-merge algorithm (Larmore & Hirschberg
// 1990) — the same construction production compressors use for their
// table-friendly code tables.
#pragma once

#include <cstdint>

#include "huffman/tree.h"

namespace huff {

/// Returns the cost-optimal lengths with max(length) ≤ max_bits (Kraft
/// valid; identical to the input when it already satisfies the limit).
/// Throws std::invalid_argument if max_bits is too small to give every used
/// symbol a code (need 2^max_bits ≥ symbols).
[[nodiscard]] CodeLengths limit_code_lengths(const CodeLengths& lengths,
                                             const Histogram& hist,
                                             std::uint8_t max_bits);

/// Convenience: optimal lengths for `hist` limited to `max_bits`.
[[nodiscard]] CodeLengths build_limited_lengths(const Histogram& hist,
                                                std::uint8_t max_bits);

}  // namespace huff
