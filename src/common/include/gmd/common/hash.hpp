#pragma once

/// \file hash.hpp
/// FNV-1a 64-bit hashing, shared by the sweep checkpoint journal
/// (trace/point identity hashes) and the GMDT trace store (per-chunk
/// payload checksums).  One implementation so the two subsystems can
/// never drift: a journal keyed off a trace store header must agree
/// with a journal keyed off the decoded events it describes.  Also the
/// one text codec for those hashes (to_hex16 / parse_hex16).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace gmd {

/// Incremental FNV-1a 64 hasher.  mix(u64) feeds the value's eight
/// little-endian bytes, so mixing a value and mixing its byte image
/// produce the same state.
struct Fnv1a {
  static constexpr std::uint64_t kOffsetBasis = 0xCBF29CE484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001B3ULL;

  std::uint64_t state = kOffsetBasis;

  void mix_byte(std::uint8_t byte) {
    state ^= byte;
    state *= kPrime;
  }

  void mix(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      mix_byte(static_cast<std::uint8_t>((value >> shift) & 0xFFu));
    }
  }

  /// Doubles are hashed through their IEEE-754 bit pattern so the hash
  /// is exact (no text round-trip).
  void mix_double(double value) { mix(std::bit_cast<std::uint64_t>(value)); }

  void mix_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) mix_byte(bytes[i]);
  }
};

/// One-shot FNV-1a 64 of a byte range.
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t size) {
  Fnv1a h;
  h.mix_bytes(data, size);
  return h.state;
}

/// A 64-bit hash as exactly 16 lowercase hex digits, zero-padded: the
/// text form of every checksum and identity hash written to disk or to
/// the service protocol.
inline std::string to_hex16(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string text(16, '0');
  for (int i = 15; i >= 0; --i, value >>= 4) text[i] = kDigits[value & 0xFu];
  return text;
}

/// Inverse of to_hex16: accepts exactly 16 lowercase hex digits and
/// nothing else.  A shorter token is a truncation tear, not a smaller
/// number, so it yields nullopt like any other malformed token.
inline std::optional<std::uint64_t> parse_hex16(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    const bool digit = c >= '0' && c <= '9';
    if (!digit && (c < 'a' || c > 'f')) return std::nullopt;
    value = value << 4 |
            static_cast<std::uint64_t>(digit ? c - '0' : c - 'a' + 10);
  }
  return value;
}

}  // namespace gmd
