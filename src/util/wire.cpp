#include "util/wire.hpp"

#include <array>
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
