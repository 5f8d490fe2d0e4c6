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
#include <utility>
#include <vector>

#include "bitstream/bit_writer.hpp"
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

/// Reusable storage for Model::encode_stream_into: the reversed-bit stack
/// and the stream bit writer, both reused across streams so steady-state
/// encoding performs no heap allocation. reserve() pre-sizes for streams
/// of up to `max_symbols` input bytes.
struct EncodeStreamWorkspace {
  std::vector<std::pair<std::uint32_t, std::uint8_t>> bit_stack;
  BitWriter bits;
  void reserve(std::size_t max_symbols) {
    bit_stack.reserve(max_symbols);
    bits.reserve(max_symbols * 2 + 16);  // <= ~table_log bits per symbol
  }
};

/// A shared tANS model: one normalized distribution serving many
/// independently decodable streams. This mirrors Gompresso's shared-table
/// design — "All sub-blocks of a given data block decode their bitstreams
/// using look-up tables created from the same two Huffman trees for that
/// block" (§III-B.1) — with tANS state tables in place of Huffman tables.
/// Used by the Gompresso/Tans codec (core/tans_codec).
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

  /// In-place variant of deserialize() for the decode hot path: rebuilds
  /// this model from the serialized counts, reusing the existing table
  /// storage (allocation-free once the buffers are warm — see
  /// reserve_decode). Only the decode table is built; calling
  /// encode_stream on a model read this way throws. Returns true when no
  /// internal buffer had to grow (the steady-state reuse signal the
  /// scratch counters aggregate).
  bool deserialize_decode_into(ByteSpan data, std::size_t& pos);

  /// Pre-sizes the decode-side buffers for tables up to `table_log`, so
  /// every later deserialize_decode_into is allocation-free.
  void reserve_decode(unsigned table_log);

  /// In-place variant of from_frequencies for the encode hot path:
  /// rebuilds this model (encoder + decoder tables) reusing the existing
  /// table storage, so per-block model builds are allocation-free once
  /// the buffers are warm (see reserve_encode). Identical normalization
  /// and tables to from_frequencies. Returns true when no internal
  /// buffer had to grow (the steady-state reuse signal).
  bool build_encode_into(const std::vector<std::uint64_t>& freqs, unsigned table_log);

  /// Pre-sizes every buffer build_encode_into touches for tables up to
  /// `table_log`, so later rebuilds are allocation-free.
  void reserve_encode(unsigned table_log);

  /// Encodes one stream with this model (the stream embeds only its
  /// final state and bit payload — the model is shared externally).
  /// Every symbol of `data` must be present in the model.
  Bytes encode_stream(ByteSpan data) const;

  /// Appending, allocation-free variant of encode_stream: produces the
  /// identical stream bytes at the end of `out`, staging through `ws`.
  void encode_stream_into(ByteSpan data, Bytes& out, EncodeStreamWorkspace& ws) const;

  /// Decodes a stream of `count` symbols produced by encode_stream.
  Bytes decode_stream(ByteSpan stream, std::size_t count) const;

  /// Allocation-free span variant of decode_stream: decodes exactly
  /// out.size() symbols into `out`. This is the sub-block lane kernel —
  /// one branchless refill covers four symbols (4 * kMaxTableLog bits fit
  /// the BitReader guarantee), so the steady-state symbol cost is one
  /// table load plus one unchecked bit read.
  void decode_stream_into(ByteSpan stream, MutableByteSpan out) const;

  /// Decodes up to four independent streams of one shared model
  /// concurrently, interleaving their state chains so the out-of-order
  /// core overlaps the serial table-load latencies (the FSE multi-state
  /// trick applied across sub-block lanes instead of within one stream —
  /// the on-disk format is unchanged; this is the CPU register file
  /// playing the role of the paper's warp lanes). Equivalent to decoding
  /// stream i with decode_stream_into(streams[i], {outs[i], counts[i]}).
  static void decode_streams4(const Model& model, const ByteSpan* streams,
                              std::uint8_t* const* outs, const std::size_t* counts,
                              int n);

  unsigned table_log() const { return table_log_; }
  bool valid() const { return table_log_ != 0; }

 private:
  /// Validates a stream's header (start state + payload size) and returns
  /// the table-biased initial state; `bits` receives the bit payload.
  std::uint32_t parse_stream_header(ByteSpan stream, ByteSpan& bits) const;
  /// Parses the gap-coded counts into norm_ and infers table_log_.
  void parse_counts(ByteSpan data, std::size_t& pos);
  /// (Re)builds the state tables in place; the encoder side is optional
  /// (the decode hot path never touches it).
  void build_tables(bool build_encoder);

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
