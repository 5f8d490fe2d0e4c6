// Tabled Asymmetric Numeral System (tANS) entropy coder.
//
// The paper's Fig. 13/14 comparison includes Zstd, whose entropy stage is
// FSE — a tANS coder — "a different coding algorithm on top of
// LZ-compression that is typically faster than Huffman decoding" (§V-D).
// This module provides a from-scratch tANS implementation over byte
// alphabets; the zstd_like baseline uses it for its literal stream.
//
// Encoding walks the input in reverse, maintaining a state in
// [table_size, 2*table_size); decoding walks the emitted bits forward
// with a single table lookup per symbol, mirroring the branch-free decode
// property that makes tANS fast.
#pragma once

#include <cstdint>
#include <vector>

#include "util/common.hpp"

namespace gompresso::ans {

/// Default table log (2^11 states, the FSE default neighbourhood).
inline constexpr unsigned kDefaultTableLog = 11;

/// Valid table-log range for any model (decode tables up to 2^14 states).
inline constexpr unsigned kMinTableLog = 9;
inline constexpr unsigned kMaxTableLog = 14;

/// Byte alphabet size shared by every model.
inline constexpr std::size_t kAlphabetSize = 256;

/// Encodes `data` (byte alphabet) into a self-contained payload embedding
/// the normalized frequency table and the original size.
Bytes encode(ByteSpan data, unsigned table_log = kDefaultTableLog);

/// Decodes a payload produced by encode(). Throws gompresso::Error on
/// corrupt input.
Bytes decode(ByteSpan payload);

/// Normalizes `freqs` so the non-zero entries sum to 2^table_log, keeping
/// every present symbol >= 1 (largest-remainder method). Exposed for
/// testing. Returns an all-zero vector when `total` is 0.
std::vector<std::uint32_t> normalize_frequencies(const std::vector<std::uint64_t>& freqs,
                                                 unsigned table_log);

/// A tANS model: one normalized distribution and its encode/decode state
/// tables. encode()/decode() build one per payload; a model can also
/// serve many independently decodable streams.
class Model {
 public:
  Model() = default;

  /// Builds a model from raw symbol frequencies. At least one symbol must
  /// be present.
  static Model from_frequencies(const std::vector<std::uint64_t>& freqs,
                                unsigned table_log = kDefaultTableLog);

  /// Serialises the normalized counts (gap-coded varints).
  void serialize(Bytes& out) const;

  /// Reads a model back; `pos` advances past it.
  static Model deserialize(ByteSpan data, std::size_t& pos);

  /// Encodes one stream with this model (the stream embeds only its
  /// final state and bit payload — the model is shared externally).
  /// Every symbol of `data` must be present in the model.
  Bytes encode_stream(ByteSpan data) const;

  /// Decodes a stream of `count` symbols produced by encode_stream. One
  /// branchless refill covers four symbols (4 * kMaxTableLog bits fit the
  /// BitReader guarantee), so the steady-state symbol cost is one table
  /// load plus one unchecked bit read.
  Bytes decode_stream(ByteSpan stream, std::size_t count) const;

  unsigned table_log() const { return table_log_; }
  bool valid() const { return table_log_ != 0; }

 private:
  /// Builds the encoder and decoder state tables from norm_.
  void build_tables();

  unsigned table_log_ = 0;
  std::vector<std::uint32_t> norm_;  // 256 entries, sums to 2^table_log

  // Encoder: next_state[offset[s] + (x - norm[s])] for x in [norm, 2norm).
  std::vector<std::uint32_t> enc_offset_;
  std::vector<std::uint32_t> enc_next_state_;
  // Decoder: per state {symbol, nb_bits, new_state}.
  struct DecodeEntry {
    std::uint8_t symbol = 0;
    std::uint8_t nb_bits = 0;
    std::uint16_t new_state = 0;
  };
  std::vector<DecodeEntry> dec_table_;
};

}  // namespace gompresso::ans
