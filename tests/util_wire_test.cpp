// Wire-primitive tests: the one double formatter, FNV-1a, checked number
// parsers, key=value tokenizer and atomic publisher every persisted
// artifact goes through, plus the in-process word digest.  The hash pins
// are the values the pre-unification per-module copies produced on the
// same inputs, so a drift here would silently re-key every cache, chain
// and content hash.
#include "util/wire.hpp"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet.hpp"
#include "harness/integrity/integrity.hpp"
#include "harness/status.hpp"
#include "util/rng.hpp"

namespace gb {
namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
}

// --- format_double ------------------------------------------------------

TEST(WireTest, FormatDoubleIsShortestRoundTrip) {
    const double denormal = std::numeric_limits<double>::denorm_min();
    const struct {
        double value;
        const char* bytes;
    } cases[] = {
        {-0.0, "-0"},
        {denormal, "5e-324"},
        {1e308, "1e+308"},
        {0.1, "0.1"},
        {850.5, "850.5"},
        {1.0 / 3.0, "0.3333333333333333"},
        {-42.0, "-42"},
        {1e21, "1e+21"},
    };
    for (const auto& c : cases) {
        const std::string text = wire::format_double(c.value);
        EXPECT_EQ(text, c.bytes);
        double back = 1.0;
        ASSERT_TRUE(wire::parse_real(text, back)) << text;
        EXPECT_EQ(back, c.value) << text;
        EXPECT_EQ(std::signbit(back), std::signbit(c.value)) << text;
    }
}

TEST(WireTest, FormatHex64IsZeroPaddedLowercase) {
    EXPECT_EQ(wire::format_hex64(0), "0000000000000000");
    EXPECT_EQ(wire::format_hex64(0xdeadbeef12345678ULL),
              "deadbeef12345678");
    EXPECT_EQ(wire::format_hex64(~0ULL), "ffffffffffffffff");
}

TEST(WireTest, JsonEscapeCoversEveryControlByte) {
    EXPECT_EQ(wire::json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(wire::json_escape("\n\r\t"), "\\n\\r\\t");
    EXPECT_EQ(wire::json_escape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(wire::json_escape(std::string(1, '\x1f')), "\\u001f");
    EXPECT_EQ(wire::json_escape("vmin.TTT\x7f"), "vmin.TTT\x7f");
}

// --- FNV-1a -------------------------------------------------------------

TEST(WireTest, Fnv1aMatchesThePublishedVectors) {
    EXPECT_EQ(wire::fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(wire::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(wire::fnv1a("foobar"), 0x85944171f73967e8ULL);
    // The word fold is the byte fold over the little-endian bytes.
    EXPECT_EQ(wire::fnv1a_word(wire::fnv1a_basis, 0x6261ULL),
              wire::fnv1a(std::string_view("ab\0\0\0\0\0\0", 8)));
}

TEST(WireTest, HashesKeepTheirPinnedValues) {
    EXPECT_EQ(hash_label(""), 0xc3817c016ba4ff30ULL);
    EXPECT_EQ(hash_label("dram-chip-7"), 0x2446117802c84fdbULL);

    fleet::cohort_key key;
    EXPECT_EQ(fleet::probe_content(key, 0), 0x40d69e0cf0f65c45ULL);
    key.corner = process_corner::tff;
    key.workload_class = 3;
    key.operating_point = 2;
    key.variant = 1;
    EXPECT_EQ(fleet::probe_content(key, -25), 0x09bf5985b8cf11b4ULL);

    EXPECT_EQ(chain_next(chain_basis, ""), 0xf4ed18ebf16aa5ccULL);
    EXPECT_EQ(chain_next(0x0123456789abcdefULL, "probe corner=TTT"),
              0xcb16e18adca13a9bULL);
}

// --- word digest --------------------------------------------------------

TEST(WireTest, DigestSeesEveryWordBitAndTheLength) {
    rng r(0xd1ce57ULL);
    std::vector<double> words(1031); // not a multiple of the 4 lanes
    for (double& w : words) {
        w = r.uniform(0.0, 4.0);
    }
    const wire::digest128 base = wire::digest_doubles(words);
    EXPECT_EQ(wire::digest_doubles(words), base);
    // Every word position (all four lanes and the tail) reaches both
    // halves: one flipped low mantissa bit changes lo and hi.
    for (const std::size_t at : {0UL, 1UL, 2UL, 3UL, 512UL, 1028UL, 1030UL}) {
        std::vector<double> flipped = words;
        flipped[at] = std::nextafter(flipped[at], 10.0);
        const wire::digest128 d = wire::digest_doubles(flipped);
        EXPECT_NE(d.lo, base.lo) << "word " << at;
        EXPECT_NE(d.hi, base.hi) << "word " << at;
    }
    // Bit patterns, not values: -0.0 == 0.0 yet digests differ.
    const std::vector<double> zero{0.0};
    const std::vector<double> negative_zero{-0.0};
    EXPECT_NE(wire::digest_doubles(zero), wire::digest_doubles(negative_zero));
    // A trailing zero word changes the length and so the digest.
    std::vector<double> longer = words;
    longer.push_back(0.0);
    EXPECT_NE(wire::digest_doubles(longer), base);
    // Swapping two words across lanes changes it too.
    std::vector<double> swapped = words;
    std::swap(swapped[4], swapped[5]);
    EXPECT_NE(wire::digest_doubles(swapped), base);
    EXPECT_NE(wire::digest_doubles({}), wire::digest_doubles(zero));
}

// --- checked number parsing ---------------------------------------------

TEST(WireTest, IntegerParserIsStrict) {
    int value = 0;
    EXPECT_TRUE(wire::parse_int("-17", value));
    EXPECT_EQ(value, -17);
    EXPECT_FALSE(wire::parse_int("", value));
    EXPECT_FALSE(wire::parse_int("12x", value));
    EXPECT_FALSE(wire::parse_int(" 12", value));
    EXPECT_FALSE(wire::parse_int("+12", value));
    EXPECT_FALSE(wire::parse_int("2147483648", value));

    std::uint64_t wide = 0;
    EXPECT_TRUE(wire::parse_int("18446744073709551615", wide));
    EXPECT_EQ(wide, ~0ULL);
    EXPECT_FALSE(wire::parse_int("18446744073709551616", wide));
    EXPECT_FALSE(wire::parse_int("-1", wide));
    EXPECT_TRUE(wire::parse_int("deadbeef", wide, 16));
    EXPECT_EQ(wide, 0xdeadbeefULL);
}

TEST(WireTest, RealParserIsFiniteOnly) {
    double value = 0.0;
    EXPECT_TRUE(wire::parse_real("-2.5e3", value));
    EXPECT_EQ(value, -2500.0);
    for (const char* bad : {"", "nan", "-nan", "inf", "-inf", "infinity",
                            "1e400", "1.5x", "+1", " 1"}) {
        EXPECT_FALSE(wire::parse_real(bad, value)) << bad;
    }
}

// --- key=value lines ----------------------------------------------------

TEST(WireTest, FieldsSplitOnSpacesAndFirstEquals) {
    const auto tokens = wire::tokenize("  probe a=1  b=x=y c= ");
    ASSERT_EQ(tokens.size(), 4U);
    EXPECT_EQ(tokens[0], "probe");
    std::string_view value;
    ASSERT_TRUE(wire::field_value(tokens, "b", value));
    EXPECT_EQ(value, "x=y");
    ASSERT_TRUE(wire::field_value(tokens, "c", value));
    EXPECT_EQ(value, "");
    EXPECT_FALSE(wire::field_value(tokens, "probe", value));
    EXPECT_FALSE(wire::field_value(tokens, "d", value));

    std::vector<std::string> seen;
    EXPECT_TRUE(wire::for_each_field(
        "k=v  w=", [&](std::string_view key, std::string_view val) {
            seen.push_back(std::string(key) + "|" + std::string(val));
            return true;
        }));
    EXPECT_EQ(seen, (std::vector<std::string>{"k|v", "w|"}));
    EXPECT_FALSE(wire::for_each_field(
        "k=v bare", [](std::string_view, std::string_view) { return true; }));
}

// --- atomic publisher ---------------------------------------------------

TEST(WireTest, PublisherReplacesTheFileAtomically) {
    const std::string path = temp_path("wire_publish.txt");
    ASSERT_TRUE(publish_file(path, "first\n"));
    ASSERT_TRUE(publish_file(path, "second\n"));
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "second");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(WireTest, PublisherFailsCleanly) {
    // The temp file cannot even be created in a missing directory.
    const std::string missing = temp_path("wire_no_such_dir/state.json");
    EXPECT_FALSE(publish_file(missing, "x"));
    EXPECT_FALSE(std::filesystem::exists(missing + ".tmp"));

    // The temp write succeeds but rename(2) cannot replace a directory:
    // the temp file must not be left behind.
    const std::string directory = temp_path("wire_publish_onto_dir");
    std::filesystem::create_directories(directory);
    EXPECT_FALSE(publish_file(directory, "x"));
    EXPECT_FALSE(std::filesystem::exists(directory + ".tmp"));
    EXPECT_TRUE(std::filesystem::is_directory(directory));
}

} // namespace
} // namespace gb
