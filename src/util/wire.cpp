#include "util/wire.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>

#include "util/contracts.hpp"

namespace gb::wire {

std::string format_double(double value) {
    std::array<char, 32> buffer{};
    const auto [ptr, ec] =
        std::to_chars(buffer.data(), buffer.data() + buffer.size(), value);
    GB_ENSURES(ec == std::errc{});
    return std::string(buffer.data(), ptr);
}

std::string format_hex64(std::uint64_t value) {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(value));
    return std::string(buffer);
}

std::string json_escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                constexpr char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

constexpr std::uint64_t xxh_prime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t xxh_prime2 = 0xc2b2ae3d27d4eb4fULL;

constexpr std::uint64_t lane_round(std::uint64_t lane, double word) {
    return std::rotl(lane + std::bit_cast<std::uint64_t>(word) * xxh_prime2,
                     31) *
           xxh_prime1;
}

/// MurmurHash3's fmix64 finalizer: a bijection with full avalanche.
constexpr std::uint64_t avalanche(std::uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

} // namespace

digest128 digest_doubles(std::span<const double> words) {
    // xxHash64's lane seeds for seed 0.
    std::array<std::uint64_t, 4> lane{xxh_prime1 + xxh_prime2, xxh_prime2,
                                      0, 0 - xxh_prime1};
    const std::size_t n = words.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        lane[0] = lane_round(lane[0], words[i]);
        lane[1] = lane_round(lane[1], words[i + 1]);
        lane[2] = lane_round(lane[2], words[i + 2]);
        lane[3] = lane_round(lane[3], words[i + 3]);
    }
    for (; i < n; ++i) {
        lane[i % 4] = lane_round(lane[i % 4], words[i]);
    }
    const std::uint64_t length = n;
    return {avalanche(lane[0] + std::rotl(lane[1], 21) +
                      std::rotl(lane[2], 42) + lane[3] * xxh_prime1 +
                      length),
            avalanche(lane[1] + std::rotl(lane[2], 21) +
                      std::rotl(lane[3], 42) + lane[0] * xxh_prime2 +
                      length * xxh_prime1)};
}

bool parse_real(std::string_view text, double& out) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && ptr == end && std::isfinite(out);
}

std::vector<std::string_view> tokenize(std::string_view line) {
    std::vector<std::string_view> tokens;
    for_each_token(line, [&](std::string_view token) {
        tokens.push_back(token);
        return true;
    });
    return tokens;
}

bool field_value(const std::vector<std::string_view>& tokens,
                 std::string_view key, std::string_view& value) {
    for (const std::string_view token : tokens) {
        if (token.size() > key.size() && token[key.size()] == '=' &&
            token.starts_with(key)) {
            value = token.substr(key.size() + 1);
            return true;
        }
    }
    return false;
}

} // namespace gb::wire
