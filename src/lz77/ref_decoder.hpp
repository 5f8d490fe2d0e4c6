// Sequential reference decoder for LZ77 token blocks.
//
// resolve_span is production decode's LZ77 resolver (core::decode_block_at
// runs it on every coded block), the correctness oracle for the warp
// simulator, and the zstd-like baseline's sequence resolver. Its copy
// primitives live in core/resolve_common.hpp, shared with the decoders
// that copy one checked match at a time (core::copy_match).
#pragma once

#include <span>

#include "lz77/sequence.hpp"
#include "util/common.hpp"

namespace gompresso::lz77 {

/// Reconstructs the uncompressed block from sequences + literals.
/// Throws gompresso::Error on malformed input (distance past the start,
/// literal buffer mismatch, size mismatch).
Bytes decode_reference(const TokenBlock& block);

/// Sequential span-resolving kernel: resolves `sequences` into `window`
/// starting at absolute offset `base`. Literal strings and matches are
/// written from window[base] onward; back-references may read any window
/// byte below their write position, including [0, base) — the caller
/// guarantees that prefix is already resolved. Production decode and
/// decode_reference run it over a whole block at base 0. Returns the
/// number of bytes written (the caller compares it with the block size).
/// Throws gompresso::Error on malformed input (every sequence is
/// bounds-checked before it writes).
///
/// Write contract: the kernel copies in 16-byte wild chunks, so it writes
/// only inside [base, window.size()) but may overwrite bytes past a
/// sequence before the sequences that own them are written. Callers pass
/// a window that ends where their owned bytes end; nothing past
/// window.size() or literals[literal_count) is touched, so no buffer needs
/// tail slack. After a throw, window bytes past the last complete
/// sequence are unspecified.
///
/// 64-byte aligned, as every hot kernel is, so decode speed does not move
/// with the size of code linked before it.
[[gnu::aligned(64)]] std::uint64_t resolve_span(std::span<const Sequence> sequences,
                                                const std::uint8_t* literals,
                                                std::size_t literal_count,
                                                MutableByteSpan window, std::uint64_t base);

/// Validates structural invariants of a token block without decoding:
/// distances within bounds, literal byte count consistent, terminator
/// shape. Throws gompresso::Error on violation.
void validate(const TokenBlock& block);

}  // namespace gompresso::lz77
