// Wire primitives: the one implementation of every small byte-level
// convention the persisted artifacts share.  The campaign journal, the
// fleet journal, the state snapshot, the timeline, the metrics/trace JSON
// and the status heartbeat all format doubles, hash, escape and tokenize
// through this module, so a value written by one of them parses back
// bit-identically -- and is rejected identically -- by every other.
//
//   * Doubles go out as the shortest round-trip decimal (std::to_chars) and
//     come back through one strict, finite-only real parser.
//   * Integers parse with one full-consume, overflow-checked parser that
//     takes no '+' prefix.
//   * Content hashes are FNV-1a 64 (byte fold and little-endian word fold).
//     In-process memo keys over large numeric buffers use the 128-bit word
//     digest, which never reaches an artifact.
//   * Wire lines are space-separated `key=value` fields.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gb::wire {

// --- formatting -------------------------------------------------------------

/// Shortest round-trip decimal form: parse_real on the result yields the
/// exact same double, which is what makes journal resume and timeline
/// replay bit-identical to an uninterrupted run.
[[nodiscard]] std::string format_double(double value);

/// 16 lowercase hex digits, zero padded (content ids, chain links).
[[nodiscard]] std::string format_hex64(std::uint64_t value);

/// JSON string-body escape: quote, backslash and every control byte
/// (`\n`, `\r`, `\t` by name, the rest as `\u00XX`).
[[nodiscard]] std::string json_escape(std::string_view text);

// --- FNV-1a 64 --------------------------------------------------------------

inline constexpr std::uint64_t fnv1a_basis = 14695981039346656037ULL;
inline constexpr std::uint64_t fnv1a_prime = 1099511628211ULL;

[[nodiscard]] constexpr std::uint64_t fnv1a_byte(std::uint64_t hash,
                                                 unsigned char byte) {
    return (hash ^ byte) * fnv1a_prime;
}

/// Fold the 8 little-endian bytes of `word`.
[[nodiscard]] constexpr std::uint64_t fnv1a_word(std::uint64_t hash,
                                                 std::uint64_t word) {
    for (int shift = 0; shift < 64; shift += 8) {
        hash = fnv1a_byte(hash, static_cast<unsigned char>(word >> shift));
    }
    return hash;
}

/// Fold every byte of `bytes`.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view bytes,
                                            std::uint64_t hash = fnv1a_basis) {
    for (const char c : bytes) {
        hash = fnv1a_byte(hash, static_cast<unsigned char>(c));
    }
    return hash;
}

// --- 128-bit word digest ---------------------------------------------------

struct digest128 {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    friend bool operator==(const digest128&, const digest128&) = default;
};

/// Digest of the doubles' bit patterns, so 0.0 and -0.0 differ.  Word i
/// feeds lane i % 4 through xxHash64's multiply-rotate round; the four
/// lanes are independent, so their multiply chains overlap and a 64 KB
/// trace digests in a few microseconds (fnv1a_word folds byte by byte, 8
/// dependent multiplies a word).  Each lane enters both halves through a
/// bijection, so a difference confined to one lane's state shows in both.
/// The length is folded in.  Not cryptographic: it keys in-process memos
/// and never reaches a persisted artifact.
[[nodiscard]] digest128 digest_doubles(std::span<const double> words);

// --- checked number parsing -------------------------------------------------

/// The whole of `text` must be an integer of type T in `base`: no sign
/// prefix other than '-' (and none for unsigned T), no surrounding space,
/// no trailing junk, no overflow.  `out` is unspecified on failure.
template <std::integral T>
[[nodiscard]] bool parse_int(std::string_view text, T& out, int base = 10) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out, base);
    return ec == std::errc{} && ptr == end;
}

/// The whole of `text` must be a finite real: from_chars accepts
/// "nan"/"inf" spellings, and a corrupted or hostile line must not smuggle
/// a non-finite quantity into a record.  Out-of-range magnitudes (1e400)
/// fail too.
[[nodiscard]] bool parse_real(std::string_view text, double& out);

// --- key=value lines --------------------------------------------------------

/// Calls `fn(field)` for every non-empty space-separated field of `line`;
/// stops and returns false at the first field `fn` rejects.
template <typename Fn>
bool for_each_token(std::string_view line, Fn&& fn) {
    std::size_t pos = 0;
    while (pos < line.size()) {
        std::size_t space = line.find(' ', pos);
        if (space == std::string_view::npos) {
            space = line.size();
        }
        if (space > pos && !fn(line.substr(pos, space - pos))) {
            return false;
        }
        pos = space + 1;
    }
    return true;
}

/// for_each_token over a line whose every field is `key=value`: calls
/// `consume(key, value)` split at the first '=', and fails on a field
/// without '=' or one `consume` rejects.
template <typename Fn>
bool for_each_field(std::string_view line, Fn&& consume) {
    return for_each_token(line, [&](std::string_view field) {
        const std::size_t eq = field.find('=');
        return eq != std::string_view::npos &&
               consume(field.substr(0, eq), field.substr(eq + 1));
    });
}

/// The non-empty space-separated fields of `line`.
[[nodiscard]] std::vector<std::string_view> tokenize(std::string_view line);

/// Value of the first `key=...` token; false when the key is absent.
bool field_value(const std::vector<std::string_view>& tokens,
                 std::string_view key, std::string_view& value);

} // namespace gb::wire
