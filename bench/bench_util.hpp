// Shared formatting for the table/figure regeneration binaries, plus
// optional metrics emission (`--metrics <path>`) so ablation runs can be
// scraped by dashboards without parsing their human-facing tables.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/trace/metrics.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/wire.hpp"

namespace gb::bench {

inline void banner(const std::string& experiment,
                   const std::string& paper_claim) {
    std::cout << "==============================================================\n"
              << experiment << '\n'
              << "Paper: " << paper_claim << '\n'
              << "==============================================================\n";
}

inline void note(const std::string& text) {
    std::cout << "NOTE: " << text << '\n';
}

/// Optional `--metrics <path>` reporting for bench binaries: the flag is
/// stripped from argv up front, counters are recorded into `registry()`
/// during the (serial) run, and `emit()` writes the merged registry as
/// flat JSON at the end when the flag was present.  Without the flag the
/// registry still accumulates -- recording is cheap and keeps call sites
/// unconditional.
class metrics_reporter {
public:
    metrics_reporter(int& argc, char** argv)
        : path_(take_flag_value(argc, argv, "--metrics")) {}

    [[nodiscard]] metrics_registry& registry() { return registry_; }

    /// Serial shard for all bench recording.
    static constexpr std::size_t shard = 0;

    /// Write the registry if --metrics was given; true when written.
    bool emit() const {
        if (!path_) {
            return false;
        }
        std::ofstream out(*path_);
        write_metrics_json(out, registry_);
        std::cerr << "metrics written to " << *path_ << '\n';
        return true;
    }

private:
    std::optional<std::string> path_;
    metrics_registry registry_{1}; // bench binaries record serially
};

/// Machine-readable perf baseline for a bench binary, consumed by
/// `gbreport diff` in the CI perf gate.  Enabled by `--baseline <dir>`
/// (stripped from argv) or the GB_UPDATE_BASELINE environment variable
/// naming the directory; emits `<dir>/BENCH_<name>.json` in the flat
/// metrics format with:
///
///   * counters -- exact content metrics, including `content.hash`, an
///     FNV-1a hash over everything fold()ed (any drift is a correctness
///     regression, gated at zero tolerance);
///   * gauges   -- `wall.<label>_ms` medians and `wall.<label>_p95_ms`
///     tails over the repetitions passed to sample()/time() (gated with a
///     generous `wall.*` tolerance, so only order-of-magnitude slowdowns
///     trip the gate).
class baseline_reporter {
public:
    baseline_reporter(int& argc, char** argv, std::string name)
        : name_(std::move(name)),
          dir_(take_flag_value(argc, argv, "--baseline")) {
        if (!dir_) {
            if (const char* env = std::getenv("GB_UPDATE_BASELINE")) {
                if (*env != '\0') {
                    dir_ = std::string(env);
                }
            }
        }
    }

    [[nodiscard]] bool enabled() const { return dir_.has_value(); }

    /// Fold a value into the campaign-content hash (FNV-1a over the
    /// little-endian bytes).
    void fold(std::uint64_t value) { hash_ = wire::fnv1a_word(hash_, value); }

    /// Record an exact content metric (compared at zero tolerance).
    void counter(const std::string& name, std::uint64_t value) {
        counters_[name] = value;
    }

    /// Copy every counter of a metrics snapshot into the baseline and fold
    /// it into the content hash.
    void absorb(const metrics_snapshot& snapshot) {
        for (const auto& [name, value] : snapshot.counters) {
            counter(name, value);
            fold(value);
        }
    }

    /// Record one wall-time repetition; emit() publishes the median.
    void sample(const std::string& label, double elapsed_ms) {
        samples_[label].push_back(elapsed_ms);
    }

    /// Time one repetition of `fn` under `label`.
    template <typename Fn> void time(const std::string& label, Fn&& fn) {
        const auto begin = std::chrono::steady_clock::now();
        fn();
        sample(label,
               std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - begin)
                   .count());
    }

    /// Write BENCH_<name>.json when enabled; true when written.
    bool emit() {
        if (!dir_) {
            return false;
        }
        metrics_snapshot snapshot;
        snapshot.counters.emplace_back("content.hash", hash_);
        for (const auto& [name, value] : counters_) {
            snapshot.counters.emplace_back(name, value);
        }
        std::sort(snapshot.counters.begin(), snapshot.counters.end());
        for (const auto& [label, values] : samples_) {
            // gb::median pins the midpoint form for both parities (the
            // inline even-count expression previously lived here, where the
            // n == 0 corner would have underflowed `n / 2 - 1`); the p95
            // tail gauge rides the same `wall.*` diff tolerance.
            snapshot.gauges.emplace_back("wall." + label + "_ms",
                                         median(values));
            snapshot.gauges.emplace_back("wall." + label + "_p95_ms",
                                         p95(values));
        }
        const std::string path = *dir_ + "/BENCH_" + name_ + ".json";
        std::ofstream out(path);
        if (!out) {
            std::cerr << "cannot write baseline " << path << '\n';
            return false;
        }
        write_metrics_json(out, snapshot);
        std::cerr << "baseline written to " << path << '\n';
        return true;
    }

private:
    std::string name_;
    std::optional<std::string> dir_;
    std::uint64_t hash_ = wire::fnv1a_basis;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, std::vector<double>> samples_;
};

} // namespace gb::bench
