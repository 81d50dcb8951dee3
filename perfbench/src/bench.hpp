// The benchmark's shared frame: options, the per-run context every
// workload records into, and the workload interface.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Seed whose digests are pinned (pinned.hpp).
inline constexpr std::uint64_t default_seed = 2018;
/// Engine workers unless --jobs says otherwise.  One: on a shared host the
/// parallel speed-up of a second worker comes and goes (the same run took
/// 1x or 2x as long from one minute to the next), so timings taken with
/// two workers measured the host more than the program.
inline constexpr int default_jobs = 1;

struct options {
    std::string workload;
    std::uint64_t seed = default_seed;
    double seconds = 10.0;
    bool trace = false;
    int jobs = 0;        ///< engine workers (resolved in main)
    std::string out_dir; ///< scratch files and the span dump
};

/// One measurement phase: the samples the end-to-end metrics come from.
struct phase {
    std::vector<double> setup_s;
    std::vector<double> op_ms;  ///< the workload's primary operation
    std::vector<double> op2_ms; ///< its secondary operation
    double work_units = 0.0;    ///< work done inside the primary ops
    double peak_rss_mb = 0.0;
};

/// Per-run context.  Correctness failures are counted per operation: an
/// operation fails if it throws or any `expect` inside it fails.
class bench {
public:
    explicit bench(options opt) : opt_(std::move(opt)) {}

    [[nodiscard]] const options& opt() const { return opt_; }
    [[nodiscard]] span_recorder& spans() { return spans_; }
    [[nodiscard]] bool tracing() const { return spans_.enabled(); }

    /// Run one operation, counting it as attempted and, if it throws or
    /// an expectation inside it fails, as failed.
    template <typename Fn> void op(const char* what, Fn&& fn) {
        ++attempted_;
        op_ok_ = true;
        try {
            fn();
        } catch (const std::exception& e) {
            expect(false, std::string(what) + " threw: " + e.what());
        }
        if (!op_ok_) {
            ++failed_;
        }
    }

    /// Record a correctness check; false marks the current operation
    /// (and the run) as failed.
    bool expect(bool ok, const std::string& what);

    /// A check that is an operation of its own (counted in attempted and,
    /// when it fails, in failed).
    void check(bool ok, const std::string& what);

    /// A per-operation layer counter, kept only during the traced phase.
    void sample(const std::string& layer, double value) {
        if (tracing()) {
            layer_samples_[layer].push_back(value);
        }
    }
    [[nodiscard]] const std::map<std::string, std::vector<double>>&
    layer_samples() const {
        return layer_samples_;
    }

    /// A digest of simulated output.  The first value recorded under a
    /// name is the run's reference; later ones must equal it, and with
    /// the default seed it must equal the pinned value.
    void digest(const std::string& name, std::uint64_t value);
    [[nodiscard]] const std::map<std::string, std::uint64_t>& digests()
        const {
        return digests_;
    }

    /// A deterministic accuracy line printed beside the timings.
    void accuracy(const std::string& name, const std::string& text) {
        accuracy_.emplace_back(name, text);
    }
    [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
    accuracy_lines() const {
        return accuracy_;
    }

    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }
    [[nodiscard]] const std::vector<std::string>& failures() const {
        return failures_;
    }

private:
    options opt_;
    span_recorder spans_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool op_ok_ = true;
    std::vector<std::string> failures_;
    std::map<std::string, std::vector<double>> layer_samples_;
    std::map<std::string, std::uint64_t> digests_;
    std::vector<std::pair<std::string, std::string>> accuracy_;
};

/// A workload: set up, then repeated whole rounds of operations.
class workload {
public:
    virtual ~workload() = default;

    /// Human names of the three workload-specific end-to-end slots.
    [[nodiscard]] virtual const char* op_name() const = 0;
    [[nodiscard]] virtual const char* op2_name() const = 0;
    [[nodiscard]] virtual const char* work_name() const = 0;

    /// Untimed preparation of the workload's inputs, run once.
    virtual void prepare(bench&) {}
    /// Everything before the first timed operation; timed, and run
    /// several times.  Each call replaces the previous state.
    virtual void setup(bench& b) = 0;
    /// One whole round of operations.
    virtual void round(bench& b, phase& p) = 0;
    /// End-of-run checks and accuracy lines.
    virtual void finish(bench&) {}
};

std::unique_ptr<workload> make_fleet_cold(const std::string& out_dir);
std::unique_ptr<workload> make_fleet_warm(const std::string& out_dir);
std::unique_ptr<workload> make_undervolt_campaign();
std::unique_ptr<workload> make_dram_retention();

// --- helpers ----------------------------------------------------------------

/// Digest of a byte string (the library's FNV-1a label hash).
[[nodiscard]] std::uint64_t digest_of(std::string_view bytes);
[[nodiscard]] std::string hex(std::uint64_t value);
[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view bytes);

} // namespace perfbench
