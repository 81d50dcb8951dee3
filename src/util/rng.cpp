#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/wire.hpp"

namespace gb {

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t hash_label(std::string_view label) {
    // FNV-1a, then a splitmix finalizer for better avalanche.
    std::uint64_t s = wire::fnv1a(label);
    return splitmix64(s);
}

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

} // namespace

rng::rng(std::uint64_t seed) : seed_(seed) {
    std::uint64_t s = seed;
    for (auto& word : state_) {
        word = splitmix64(s);
    }
}

rng::result_type rng::operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

rng rng::child(std::string_view label) const {
    return rng(seed_ ^ hash_label(label));
}

rng rng::child(std::uint64_t index) const {
    std::uint64_t s = seed_ + 0x632be59bd9b4e019ULL * (index + 1);
    return rng(splitmix64(s));
}

double rng::uniform() {
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double rng::uniform(double lo, double hi) {
    GB_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform();
}

std::uint64_t rng::uniform_index(std::uint64_t n) {
    GB_EXPECTS(n > 0);
    // Lemire's multiply-shift rejection method for unbiased bounded integers.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto low = static_cast<std::uint64_t>(m);
    if (low < n) {
        const std::uint64_t threshold = (0 - n) % n;
        while (low < threshold) {
            x = (*this)();
            m = static_cast<__uint128_t>(x) * n;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double rng::normal() {
    // Box-Muller; reject u1 == 0 to avoid log(0).
    double u1 = uniform();
    while (u1 <= 0.0) {
        u1 = uniform();
    }
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
}

double rng::normal(double mean, double stddev) {
    GB_EXPECTS(stddev >= 0.0);
    return mean + stddev * normal();
}

double rng::lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
}

std::uint64_t rng::poisson(double lambda) {
    GB_EXPECTS(lambda >= 0.0);
    if (lambda == 0.0) {
        return 0;
    }
    if (lambda < 30.0) {
        // Knuth's product-of-uniforms method.
        const double limit = std::exp(-lambda);
        std::uint64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform();
        } while (p > limit);
        return k - 1;
    }
    // Normal approximation with continuity correction for large lambda.
    const double x = normal(lambda, std::sqrt(lambda));
    return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

bool rng::bernoulli(double p) {
    GB_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform() < p;
}

} // namespace gb
