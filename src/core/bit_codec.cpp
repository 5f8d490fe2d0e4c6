#include "core/bit_codec.hpp"

#include <atomic>

#include "bitstream/bit_reader.hpp"
#include "bitstream/bit_writer.hpp"
#include "core/decode_tables.hpp"
#include "core/encode_tables.hpp"
#include "huffman/code_builder.hpp"
#include "huffman/histogram.hpp"
#include "huffman/serial.hpp"
#include "lz77/deflate_tables.hpp"
#include "util/thread_pool.hpp"
#include "util/varint.hpp"

namespace gompresso::core {

std::size_t decode_tables_footprint(unsigned codeword_limit) {
  // Two tables of 2^CWL entries, one packed uint32 each.
  return 2 * (std::size_t{1} << codeword_limit) * 4;
}

namespace {

/// Worst-case emitted bits for a span of tokens: every literal/END code
/// is bounded by the 15-bit CWL cap, every match token by 48 bits (see
/// FusedEmitTables). Used to reserve BitWriter unchecked runs.
std::uint64_t emit_bits_bound(std::uint64_t n_literals, std::uint64_t n_sequences) {
  return 15 * n_literals + 48 * n_sequences + 64;
}

/// Emits sequences [seq_begin, seq_end) through the fused tables into
/// `w`, one sub-block at a time (sub-block boundaries are global: the
/// first sub-block of the range starts at seq_begin, which callers align
/// to tokens_per_subblock). Fills table[0..] with per-sub-block sizes.
/// `lit` points at the range's first literal byte; `span_lits` is the
/// range's total literal count (callers already have it).
void emit_subblocks(const lz77::TokenBlock& block, std::size_t seq_begin,
                    std::size_t seq_end, const std::uint8_t* lit,
                    std::uint64_t span_lits, std::size_t tokens_per_subblock,
                    const FusedEmitTables& emit, BitWriter& w, SubblockEnc* table) {
  w.begin_run(emit_bits_bound(span_lits, seq_end - seq_begin));
  std::size_t seq_index = seq_begin;
  while (seq_index < seq_end) {
    SubblockEnc info;
    const std::uint64_t start_bits = w.bit_count();
    const std::size_t count =
        std::min<std::size_t>(tokens_per_subblock, seq_end - seq_index);
    for (std::size_t k = 0; k < count; ++k) {
      const lz77::Sequence& s = block.sequences[seq_index + k];
      // Literal run: pack as many codes as fit the 57-bit write limit
      // into one unchecked write (>= 3 at the worst-case 15-bit CWL).
      std::uint64_t v = 0;
      unsigned n = 0;
      for (std::uint32_t i = 0; i < s.literal_len; ++i) {
        const FusedEmitTables::Entry e = emit.lit[lit[i]];
        v |= static_cast<std::uint64_t>(e.bits) << n;
        n += e.nbits;
        if (n > 42) {
          w.write_unchecked(v, n);
          v = 0;
          n = 0;
        }
      }
      if (n != 0) w.write_unchecked(v, n);
      lit += s.literal_len;
      info.n_literals += s.literal_len;
      if (s.match_len == 0) {
        w.write_unchecked(emit.end.bits, emit.end.nbits);
      } else {
        // One fused write emits length code + extra + distance code +
        // extra (<= 48 bits) — the 6-call per-symbol chain collapsed.
        const FusedEmitTables::Token t = emit.match_token(s.match_len, s.match_dist);
        w.write_unchecked(t.bits, t.nbits);
      }
    }
    info.n_sequences = static_cast<std::uint32_t>(count);
    info.bits = w.bit_count() - start_bits;
    *table++ = info;
    seq_index += count;
  }
  w.end_run();
}

}  // namespace

const Bytes& encode_block_bit(const lz77::TokenBlock& block, const BitCodecConfig& config,
                              EncodeScratch& scratch, ThreadPool* lane_pool) {
  check(config.tokens_per_subblock >= 1, "bit codec: tokens_per_subblock must be >= 1");
  check(config.codeword_limit >= 9 && config.codeword_limit <= 15,
        "bit codec: CWL out of range (need >= ceil(log2(286)))");
  const EncodeScratch::CapSnapshot caps = scratch.capacities();

  // Pass 1: histogram both alphabets. Literals go through the 4-way
  // byte histogram; match buckets come from the constexpr length table
  // and the closed-form distance bit-width (no BucketCode round trips).
  auto& litlen_freqs = scratch.litlen_freqs;
  auto& offset_freqs = scratch.offset_freqs;
  litlen_freqs.assign(kLitLenAlphabet, 0);
  offset_freqs.assign(kOffsetAlphabet, 0);
  huffman::add_byte_histogram(block.literals.data(), block.literals.size(),
                              litlen_freqs.data());
  for (const auto& s : block.sequences) {
    if (s.match_len == 0) {
      ++litlen_freqs[kEndSymbol];
      continue;
    }
    check(s.match_len >= lz77::kMinMatch && s.match_len <= lz77::kMaxMatch,
          "bit codec: match length outside DEFLATE domain");
    check(s.match_dist >= 1 && s.match_dist <= lz77::kMaxDistance,
          "bit codec: match distance outside DEFLATE domain");
    ++litlen_freqs[kFirstLengthSymbol + lz77::length_code(s.match_len)];
    ++offset_freqs[lz77::distance_code(s.match_dist)];
  }

  // Build the two limited-length canonical codes and the fused emit
  // tables, all in reused storage.
  huffman::build_code_lengths_into(litlen_freqs, config.codeword_limit,
                                   scratch.litlen_lengths, scratch.code_ws);
  huffman::build_code_lengths_into(offset_freqs, config.codeword_limit,
                                   scratch.offset_lengths, scratch.code_ws);
  huffman::assign_canonical_codes_into(scratch.litlen_lengths, scratch.litlen_codes);
  huffman::assign_canonical_codes_into(scratch.offset_lengths, scratch.offset_codes);
  scratch.emit.build(scratch.litlen_codes, scratch.offset_codes);
  ++scratch.stats.table_builds;

  // Pass 2: emit the bitstream sub-block by sub-block, recording sizes.
  const std::size_t n_seq = block.sequences.size();
  const std::size_t tps = config.tokens_per_subblock;
  const std::size_t n_sub = n_seq == 0 ? 0 : (n_seq + tps - 1) / tps;
  scratch.subblocks.assign(n_sub, SubblockEnc{});

  if (lane_pool != nullptr && n_sub > 1) {
    // Sub-block token coding is embarrassingly parallel once every lane
    // knows its literal base: chunks of sub-blocks emit into their own
    // writers, then the streams are spliced in order at bit granularity.
    // Output bytes are identical to the serial path.
    const std::size_t grain = std::max<std::size_t>(
        1, n_sub / (4 * lane_pool->parallelism()));
    const std::size_t n_chunks = (n_sub + grain - 1) / grain;
    std::vector<BitWriter> lane_writers(n_chunks);
    // Literal offset of every sub-block (prefix sums over sequences).
    std::vector<std::uint64_t> lit_base(n_sub + 1, 0);
    {
      std::uint64_t lits = 0;
      for (std::size_t sb = 0; sb < n_sub; ++sb) {
        const std::size_t lo = sb * tps;
        const std::size_t hi = std::min(n_seq, lo + tps);
        for (std::size_t i = lo; i < hi; ++i) lits += block.sequences[i].literal_len;
        lit_base[sb + 1] = lits;
      }
    }
    lane_pool->parallel_for_chunked(n_sub, grain, [&](std::size_t sb_begin,
                                                      std::size_t sb_end) {
      const std::size_t chunk = sb_begin / grain;
      emit_subblocks(block, sb_begin * tps, std::min(n_seq, sb_end * tps),
                     block.literals.data() + lit_base[sb_begin],
                     lit_base[sb_end] - lit_base[sb_begin], tps, scratch.emit,
                     lane_writers[chunk], scratch.subblocks.data() + sb_begin);
    });
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::uint64_t nbits = lane_writers[c].bit_count();
      const Bytes bytes = lane_writers[c].finish();
      scratch.stream.append_bits(bytes, nbits);
    }
    ++scratch.stats.lane_fanouts;
  } else if (n_sub != 0) {
    emit_subblocks(block, 0, n_seq, block.literals.data(), block.literals.size(), tps,
                   scratch.emit, scratch.stream, scratch.subblocks.data());
  }

  // Assemble: counts, sub-block table, serialized trees, bitstream.
  Bytes& out = scratch.payload;
  out.clear();
  put_varint(out, n_seq);
  put_varint(out, block.literals.size());
  put_varint(out, scratch.subblocks.size());
  for (const auto& info : scratch.subblocks) {
    put_varint(out, info.bits);
    put_varint(out, info.n_sequences);
    put_varint(out, info.n_literals);
  }
  huffman::write_code_lengths(scratch.litlen_lengths, scratch.trees);
  huffman::write_code_lengths(scratch.offset_lengths, scratch.trees);
  scratch.trees.flush_into(out);
  scratch.stream.flush_into(out);

  ++scratch.stats.blocks;
  if (!scratch.pending_growth && caps == scratch.capacities()) {
    ++scratch.stats.buffer_reuses;
  }
  scratch.pending_growth = false;
  return out;
}

Bytes encode_block_bit(const lz77::TokenBlock& block, const BitCodecConfig& config) {
  EncodeScratch scratch;
  encode_block_bit(block, config, scratch);
  return std::move(scratch.payload);
}

namespace {

/// Decodes one sub-block lane with the fused tables. Steady-state token
/// cost: one refill, one fused lit/len load, and (for matches) one fused
/// offset load — no conditional refills and no secondary value-decode
/// lookups on the critical path. Returns the lane's output byte count.
/// 64-byte aligned (see lz77::resolve_span).
[[gnu::aligned(64)]] std::uint64_t decode_subblock(ByteSpan payload,
                                                   const SubblockLayout& lane,
                                                   const FusedTables& tables,
                                                   lz77::Sequence* seq_out,
                                                   std::uint8_t* lit_out) {
  BitReader reader(payload, lane.bit_offset);
  // Hoisted raw pointers: the byte stores through lit_out may alias
  // anything, so indexing through the vectors would reload their data
  // pointers on every token.
  const std::uint32_t* const litlen_table = tables.litlen.data();
  const std::uint32_t* const offset_table = tables.offset.data();
  const unsigned table_bits = tables.bits;
  std::uint32_t lits_left = lane.n_literals;
  std::uint64_t match_bytes = 0;
  for (std::uint32_t k = 0; k < lane.n_sequences; ++k) {
    lz77::Sequence seq;
    while (true) {
      // One branchless refill per token guarantees 56 bits — more than
      // the worst-case token of CWL(15) + 5 length extra + CWL(15) + 13
      // distance extra = 48 bits — so the token decode below runs with
      // no conditional refills at all.
      reader.refill();
      const std::uint32_t e = litlen_table[reader.peek_unchecked(table_bits)];
      check(e != 0, "bit codec: invalid lit/len code");
      reader.consume_unchecked(fused_code_length(e));
      const std::uint32_t kind = fused_kind(e);
      if (kind == kFusedDoubleLiteral) {
        check(lits_left >= 2, "bit codec: literal overflow in sub-block");
        const std::uint32_t v = fused_value(e);
        lit_out[0] = static_cast<std::uint8_t>(v);
        lit_out[1] = static_cast<std::uint8_t>(v >> 8);
        lit_out += 2;
        lits_left -= 2;
        seq.literal_len += 2;
        continue;
      }
      if (kind == kFusedLiteral) {
        check(lits_left != 0, "bit codec: literal overflow in sub-block");
        *lit_out++ = static_cast<std::uint8_t>(fused_value(e));
        --lits_left;
        ++seq.literal_len;
        continue;
      }
      if (kind == kFusedEnd) break;  // terminator sequence: no match
      seq.match_len = fused_value(e) + reader.read_unchecked(fused_extra_bits(e));
      const std::uint32_t d = offset_table[reader.peek_unchecked(table_bits)];
      check(d != 0, "bit codec: invalid offset code");
      reader.consume_unchecked(fused_code_length(d));
      seq.match_dist = fused_value(d) + reader.read_unchecked(fused_extra_bits(d));
      match_bytes += seq.match_len;
      break;
    }
    seq_out[k] = seq;
  }
  check(lits_left == 0, "bit codec: literal underflow in sub-block");
  check(reader.bit_pos() == lane.bit_offset + lane.bits,
        "bit codec: sub-block size mismatch");
  check(!reader.overflowed(), "bit codec: sub-block overran payload");
  return lane.n_literals + match_bytes;
}

}  // namespace

lz77::TokenBlock decode_block_bit(ByteSpan payload, const BitCodecConfig& config) {
  DecodeScratch scratch;
  decode_block_bit(payload, config, scratch);
  return std::move(scratch.block);
}

const lz77::TokenBlock& decode_block_bit(ByteSpan payload, const BitCodecConfig& config,
                                         DecodeScratch& scratch, ThreadPool* lane_pool) {
  std::size_t pos = 0;
  const std::uint64_t n_seq = get_varint(payload, pos);
  const std::uint64_t n_literals = get_varint(payload, pos);
  const std::uint64_t n_subblocks = get_varint(payload, pos);
  check(n_seq > 0, "bit codec: empty block");
  check(n_subblocks > 0 && n_subblocks <= n_seq, "bit codec: bad sub-block count");
  // Lane output slots are 32-bit; a block's output size is uint32 too, so
  // counts beyond that are corrupt and must not wrap the prefix sums.
  check(n_seq <= 0xFFFFFFFFull && n_literals <= 0xFFFFFFFFull,
        "bit codec: block counts exceed 32-bit bounds");

  // Steady-state accounting: did every scratch buffer already have room?
  const bool buffers_fit =
      scratch.subblocks.capacity() >= n_subblocks &&
      scratch.block.sequences.capacity() >= n_seq &&
      scratch.block.literals.capacity() >= n_literals;

  // Parse the sub-block size list and derive every lane's bit offset and
  // output slots via prefix sums — the header's whole purpose (§III-A).
  scratch.subblocks.resize(static_cast<std::size_t>(n_subblocks));
  std::uint64_t seq_total = 0, lit_total = 0, bits_total = 0;
  for (auto& lane : scratch.subblocks) {
    lane.bits = get_varint(payload, pos);
    lane.n_sequences = static_cast<std::uint32_t>(get_varint(payload, pos));
    lane.n_literals = static_cast<std::uint32_t>(get_varint(payload, pos));
    lane.bit_offset = bits_total;  // relative; rebased below
    lane.seq_base = static_cast<std::uint32_t>(seq_total);
    lane.lit_base = static_cast<std::uint32_t>(lit_total);
    seq_total += lane.n_sequences;
    lit_total += lane.n_literals;
    bits_total += lane.bits;
  }
  check(seq_total == n_seq, "bit codec: sub-block sequence counts disagree");
  check(lit_total == n_literals, "bit codec: sub-block literal counts disagree");

  // Deserialize the two trees and build the fused single-lookup decode
  // tables ("stored in the software-controlled, on-chip memories of the
  // GPU"). Blocks shipping byte-identical trees reuse the cached tables.
  const std::size_t tree_nibbles = kLitLenAlphabet + kOffsetAlphabet;
  const std::size_t tree_bytes = (tree_nibbles * 4 + 7) / 8;
  check(pos + tree_bytes <= payload.size(), "bit codec: truncated tree section");
  const ByteSpan tree_section = payload.subspan(pos, tree_bytes);
  if (scratch.tables.matches(tree_section, config.codeword_limit)) {
    ++scratch.stats.table_reuses;
  } else {
    BitReader tree_reader(payload, 8 * pos);
    huffman::read_code_lengths(kLitLenAlphabet, tree_reader, scratch.litlen_lengths);
    huffman::read_code_lengths(kOffsetAlphabet, tree_reader, scratch.offset_lengths);
    scratch.tables.build(scratch.litlen_lengths, scratch.offset_lengths,
                         config.codeword_limit);
    scratch.tables.tree_bytes.assign(tree_section.begin(), tree_section.end());
    ++scratch.stats.table_builds;
  }
  const std::uint64_t stream_base_bit = 8 * (pos + tree_bytes);
  for (auto& lane : scratch.subblocks) lane.bit_offset += stream_base_bit;

  lz77::TokenBlock& block = scratch.block;
  block.sequences.resize(static_cast<std::size_t>(n_seq));
  block.literals.resize(static_cast<std::size_t>(n_literals));

  // Each warp lane decodes one sub-block; lanes are independent because
  // the table gives every lane its bit offset and output slots. With a
  // lane pool the lanes run on real threads (the paper's intra-block
  // parallelism); otherwise they execute lock-step-equivalently in a loop.
  std::atomic<std::uint64_t> out_bytes{0};
  auto decode_lanes = [&](std::size_t begin, std::size_t end) {
    std::uint64_t local = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const SubblockLayout& lane = scratch.subblocks[i];
      local += decode_subblock(payload, lane, scratch.tables,
                               block.sequences.data() + lane.seq_base,
                               block.literals.data() + lane.lit_base);
    }
    out_bytes.fetch_add(local, std::memory_order_relaxed);
  };
  if (lane_pool != nullptr && n_subblocks > 1) {
    // Grain: a few chunks per participant balances load without paying a
    // queue pop per tiny lane.
    const std::size_t grain = std::max<std::size_t>(
        1, static_cast<std::size_t>(n_subblocks) / (4 * lane_pool->parallelism()));
    lane_pool->parallel_for_chunked(static_cast<std::size_t>(n_subblocks), grain,
                                    decode_lanes);
    ++scratch.stats.lane_fanouts;
  } else {
    decode_lanes(0, static_cast<std::size_t>(n_subblocks));
  }
  block.uncompressed_size = static_cast<std::uint32_t>(out_bytes.load());

  ++scratch.stats.blocks;
  if (buffers_fit) ++scratch.stats.buffer_reuses;
  return block;
}

}  // namespace gompresso::core
