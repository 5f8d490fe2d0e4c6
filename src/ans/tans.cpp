#include "ans/tans.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "bitstream/bit_reader.hpp"
#include "bitstream/bit_writer.hpp"
#include "util/varint.hpp"

namespace gompresso::ans {
namespace {

constexpr std::size_t kAlphabet = kAlphabetSize;

// Payload tags for the self-contained convenience format.
constexpr std::uint8_t kTagEmpty = 0;
constexpr std::uint8_t kTagRle = 1;   // single distinct symbol
constexpr std::uint8_t kTagCoded = 2;

/// FSE-style spread: distributes symbol occurrences over the state table
/// with the co-prime step (5/8 table + 3).
void spread_symbols_into(const std::vector<std::uint32_t>& norm, unsigned table_log,
                         std::uint8_t* spread) {
  const std::size_t table_size = std::size_t{1} << table_log;
  const std::size_t step = (table_size >> 1) + (table_size >> 3) + 3;
  const std::size_t mask = table_size - 1;
  std::size_t pos = 0;
  for (std::size_t s = 0; s < kAlphabet; ++s) {
    for (std::uint32_t i = 0; i < norm[s]; ++i) {
      spread[pos] = static_cast<std::uint8_t>(s);
      pos = (pos + step) & mask;
    }
  }
  check(pos == 0, "tans: spread did not cover table");  // step co-prime with size
}

}  // namespace

std::vector<std::uint32_t> normalize_frequencies(const std::vector<std::uint64_t>& freqs,
                                                 unsigned table_log) {
  const std::size_t count = freqs.size();
  std::vector<std::uint32_t> norm(count, 0);
  const std::uint64_t total = std::accumulate(freqs.begin(), freqs.end(), std::uint64_t{0});
  if (total == 0) return norm;
  const std::uint64_t target = 1ull << table_log;

  // First pass: proportional share, at least 1 for present symbols.
  std::vector<std::pair<double, std::uint32_t>> remainders;
  remainders.reserve(count);
  std::uint64_t assigned = 0;
  for (std::size_t s = 0; s < count; ++s) {
    if (freqs[s] == 0) continue;
    const double exact = static_cast<double>(freqs[s]) * static_cast<double>(target) /
                         static_cast<double>(total);
    std::uint32_t n = static_cast<std::uint32_t>(exact);
    if (n == 0) n = 1;
    norm[s] = n;
    assigned += n;
    remainders.emplace_back(exact - static_cast<double>(n), static_cast<std::uint32_t>(s));
  }
  // Distribute the remainder to the symbols with the largest fractional
  // parts (or shave from the largest counts when over-assigned).
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::size_t i = 0;
  while (assigned < target) {
    norm[remainders[i % remainders.size()].second] += 1;
    ++assigned;
    ++i;
  }
  while (assigned > target) {
    // Shave the largest normalized count that stays >= 1.
    std::size_t best = count;
    for (std::size_t s = 0; s < count; ++s) {
      if (norm[s] > 1 && (best == count || norm[s] > norm[best])) best = s;
    }
    check(best != count, "tans: cannot normalize (too many symbols for table)");
    norm[best] -= 1;
    --assigned;
  }
  return norm;
}

// ---------------------------------------------------------------------------
// Model

Model Model::from_frequencies(const std::vector<std::uint64_t>& freqs,
                              unsigned table_log) {
  check(table_log >= kMinTableLog && table_log <= kMaxTableLog,
        "tans: table_log out of [9, 14]");
  check(freqs.size() <= kAlphabet, "tans: alphabet too large");
  Model m;
  m.table_log_ = table_log;
  std::vector<std::uint64_t> padded(freqs);
  padded.resize(kAlphabet, 0);
  m.norm_ = normalize_frequencies(padded, table_log);
  check(std::accumulate(m.norm_.begin(), m.norm_.end(), std::uint64_t{0}) ==
            (1ull << table_log),
        "tans: empty model");
  m.build_tables();
  return m;
}

void Model::build_tables() {
  const std::size_t table_size = std::size_t{1} << table_log_;
  std::uint8_t spread[std::size_t{1} << kMaxTableLog];
  spread_symbols_into(norm_, table_log_, spread);
  std::uint32_t counter[kAlphabet];
  for (std::size_t s = 0; s < kAlphabet; ++s) counter[s] = norm_[s];

  enc_offset_.assign(kAlphabet + 1, 0);
  for (std::size_t s = 0; s < kAlphabet; ++s) {
    enc_offset_[s + 1] = enc_offset_[s] + norm_[s];
  }
  enc_next_state_.assign(table_size, 0);
  dec_table_.assign(table_size, {});

  for (std::size_t u = 0; u < table_size; ++u) {
    const std::uint8_t s = spread[u];
    const std::uint32_t x = counter[s]++;  // in [norm[s], 2*norm[s])
    enc_next_state_[enc_offset_[s] + (x - norm_[s])] =
        static_cast<std::uint32_t>(u + table_size);
    const unsigned nb = table_log_ - floor_log2(x);
    dec_table_[u].symbol = s;
    dec_table_[u].nb_bits = static_cast<std::uint8_t>(nb);
    dec_table_[u].new_state = static_cast<std::uint16_t>((x << nb) - table_size);
  }
}

void Model::serialize(Bytes& out) const {
  check(valid(), "tans: serializing an empty model");
  std::uint32_t present = 0;
  for (std::size_t s = 0; s < kAlphabet; ++s) present += norm_[s] != 0;
  put_varint(out, present);
  std::size_t prev = 0;
  for (std::size_t s = 0; s < kAlphabet; ++s) {
    if (norm_[s] == 0) continue;
    put_varint(out, s - prev);
    put_varint(out, norm_[s]);
    prev = s;
  }
}

Model Model::deserialize(ByteSpan data, std::size_t& pos) {
  // The counts carry no explicit table_log: it is inferred from their sum.
  Model m;
  m.norm_.assign(kAlphabet, 0);
  const std::uint64_t present = get_varint(data, pos);
  check(present >= 1 && present <= kAlphabet, "tans: bad symbol count");
  std::size_t sym = 0;
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < present; ++i) {
    sym += static_cast<std::size_t>(get_varint(data, pos));
    check(sym < kAlphabet, "tans: symbol out of range");
    const std::uint64_t c = get_varint(data, pos);
    check(c >= 1 && c <= (1u << kMaxTableLog), "tans: bad normalized count");
    m.norm_[sym] = static_cast<std::uint32_t>(c);
    total += c;
  }
  check(is_pow2(total) && total >= (1u << kMinTableLog) && total <= (1u << kMaxTableLog),
        "tans: normalized counts do not sum to a table size");
  m.table_log_ = floor_log2(total);
  m.build_tables();
  return m;
}

Bytes Model::encode_stream(ByteSpan data) const {
  check(valid(), "tans: encoding with an empty model");
  const std::size_t table_size = std::size_t{1} << table_log_;

  // Encode in reverse; bits are stacked and replayed forward so the
  // decoder can read the stream front to back.
  std::vector<std::pair<std::uint32_t, std::uint8_t>> bit_stack;
  bit_stack.reserve(data.size());
  std::uint32_t state = static_cast<std::uint32_t>(table_size);
  for (std::size_t i = data.size(); i-- > 0;) {
    const std::uint8_t s = data[i];
    const std::uint32_t f = norm_[s];
    check(f != 0, "tans: symbol absent from shared model");
    unsigned nb = 0;
    while ((state >> nb) >= 2 * f) ++nb;
    bit_stack.emplace_back(state & ((1u << nb) - 1), static_cast<std::uint8_t>(nb));
    state = enc_next_state_[enc_offset_[s] + (state >> nb) - f];
  }

  Bytes out;
  put_varint(out, state);
  BitWriter bits;
  for (std::size_t i = bit_stack.size(); i-- > 0;) {
    bits.write(bit_stack[i].first, bit_stack[i].second);
  }
  const Bytes stream = bits.finish();
  put_varint(out, stream.size());
  out.insert(out.end(), stream.begin(), stream.end());
  return out;
}

// For any table the build invariant gives new_state <= table_size -
// 2^nb_bits, so new_state + read(nb_bits) < table_size always: the state
// cannot escape the table even on corrupt bits (those are caught by the
// overflow latch and the callers' symbol-count checks), and the decode
// loop below needs no per-symbol bounds check.

Bytes Model::decode_stream(ByteSpan stream, std::size_t count) const {
  check(valid(), "tans: decoding with an empty model");
  const std::size_t table_size = std::size_t{1} << table_log_;
  std::size_t pos = 0;
  const std::uint64_t start_state = get_varint(stream, pos);
  check(start_state >= table_size && start_state < 2 * table_size,
        "tans: bad stream start state");
  // Validated against the remainder, not via `pos + stream_bytes`: a
  // crafted size near 2^64 would wrap the sum and pass.
  const std::uint64_t stream_bytes = get_varint(stream, pos);
  check(stream_bytes <= stream.size() - pos, "tans: truncated stream");
  BitReader bits(stream.subspan(pos, static_cast<std::size_t>(stream_bytes)));
  std::uint32_t state = static_cast<std::uint32_t>(start_state - table_size);

  Bytes out(count);
  const DecodeEntry* const table = dec_table_.data();
  std::uint8_t* o = out.data();
  std::size_t n = count;
  // One refill covers four symbols: 4 * kMaxTableLog = 56 bits, exactly
  // the BitReader guarantee.
  while (n >= 4) {
    bits.refill();
    for (int k = 0; k < 4; ++k) {
      const DecodeEntry e = table[state];
      *o++ = e.symbol;
      state = e.new_state + bits.read_unchecked(e.nb_bits);
    }
    n -= 4;
  }
  bits.refill();
  while (n-- > 0) {
    const DecodeEntry e = table[state];
    *o++ = e.symbol;
    state = e.new_state + bits.read_unchecked(e.nb_bits);
  }
  check(!bits.overflowed(), "tans: bitstream underrun");
  return out;
}

// ---------------------------------------------------------------------------
// Self-contained convenience format

Bytes encode(ByteSpan data, unsigned table_log) {
  check(table_log >= kMinTableLog && table_log <= kMaxTableLog,
        "tans: table_log out of [9, 14]");
  Bytes out;
  if (data.empty()) {
    out.push_back(kTagEmpty);
    return out;
  }

  std::vector<std::uint64_t> freqs(kAlphabet, 0);
  for (const auto b : data) ++freqs[b];
  std::size_t distinct = 0;
  std::size_t the_symbol = 0;
  for (std::size_t s = 0; s < kAlphabet; ++s) {
    if (freqs[s] != 0) {
      ++distinct;
      the_symbol = s;
    }
  }
  if (distinct == 1) {
    out.push_back(kTagRle);
    out.push_back(static_cast<std::uint8_t>(the_symbol));
    put_varint(out, data.size());
    return out;
  }

  const Model model = Model::from_frequencies(freqs, table_log);
  out.push_back(kTagCoded);
  put_varint(out, data.size());
  model.serialize(out);
  const Bytes stream = model.encode_stream(data);
  out.insert(out.end(), stream.begin(), stream.end());
  return out;
}

Bytes decode(ByteSpan payload) {
  check(!payload.empty(), "tans: empty payload");
  std::size_t pos = 0;
  const std::uint8_t tag = payload[pos++];
  if (tag == kTagEmpty) return {};
  if (tag == kTagRle) {
    check(pos < payload.size(), "tans: truncated RLE payload");
    const std::uint8_t symbol = payload[pos++];
    const std::uint64_t n = get_varint(payload, pos);
    check(n <= (1ull << 32), "tans: implausible RLE length");
    return Bytes(static_cast<std::size_t>(n), symbol);
  }
  check(tag == kTagCoded, "tans: unknown payload tag");
  const std::uint64_t n = get_varint(payload, pos);
  check(n <= (1ull << 32), "tans: implausible size");
  const Model model = Model::deserialize(payload, pos);
  return model.decode_stream(payload.subspan(pos), static_cast<std::size_t>(n));
}

}  // namespace gompresso::ans
