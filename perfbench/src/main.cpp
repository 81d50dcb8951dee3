// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--jobs W] [--out DIR]
//
// Runs one workload in-process against the library's public API, checks
// every simulated output, and prints the end-to-end metrics (untraced run)
// or, with --trace 1, the per-layer metrics of a separate traced run.  The
// last line of stdout is one JSON object; the exit code is 0 only when
// every check passed.  All times are host time.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "pinned.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
constexpr const char* compiler_name = ""; // __VERSION__ names clang itself
#else
constexpr const char* compiler_name = "g++ ";
#endif

namespace perfbench {

// --- bench / helpers ---------------------------------------------------------

bool bench::expect(bool ok, const std::string& what) {
    if (!ok) {
        op_ok_ = false;
        if (failures_.size() < 20) {
            failures_.push_back(what);
        }
    }
    return ok;
}

void bench::check(bool ok, const std::string& what) {
    op("check", [&] { expect(ok, what); });
}

void bench::digest(const std::string& name, std::uint64_t value) {
    const auto [it, inserted] = digests_.emplace(name, value);
    check(inserted || it->second == value,
          name + " changed between rounds: " + hex(it->second) + " then " +
              hex(value));
}

std::uint64_t digest_of(std::string_view bytes) {
    return gb::hash_label(bytes);
}

std::string hex(std::uint64_t value) {
    char buffer[19];
    std::snprintf(buffer, sizeof buffer, "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return std::move(bytes).str();
}

void write_file(const std::string& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

namespace {

/// Set-up repetitions: at least 3, and more while they take under
/// 1.5 s in all, up to 15.
constexpr std::size_t setup_min = 3;
constexpr std::size_t setup_max = 15;
constexpr double setup_budget_s = 1.5;
/// Samples a tail needs: ten beyond it plus the tail sample itself.
constexpr std::size_t tail_samples = 11;

struct metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::string human; ///< workload-specific name and sample detail
};

/// Peak resident set of this process image, from VmHWM.  (getrusage's
/// ru_maxrss survives execve, so it would report the launcher's peak.)
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

/// Highest-percentile sample that still has ten samples beyond it; with
/// fewer than eleven samples, the maximum.
double tail_of(std::vector<double> values, std::string& detail) {
    if (values.empty()) {
        detail = "no samples";
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n < tail_samples) {
        detail = "max of " + std::to_string(n) + " samples";
        return values.back();
    }
    const std::size_t at = n - tail_samples;
    detail = "p" + std::to_string(100 * (at + 1) / n) + " of " +
             std::to_string(n) + " samples, 10 beyond";
    return values[at];
}

double median_of(const std::vector<double>& values) {
    return values.empty() ? 0.0 : gb::median(std::span(values));
}

std::vector<metric> end_to_end(const workload& w, const phase& p) {
    std::string op_tail;
    std::string op2_tail;
    const double op_tail_ms = tail_of(p.op_ms, op_tail);
    const double op2_tail_ms = tail_of(p.op2_ms, op2_tail);
    const std::string op = w.op_name();
    const std::string op2 = w.op2_name();
    const auto count = [](const std::vector<double>& v) {
        return std::to_string(v.size()) + " samples";
    };
    return {
        {"setup_s", "s", median_of(p.setup_s),
         "setup_s, median of " + count(p.setup_s)},
        {"op_ms.p50", "ms", median_of(p.op_ms), op + ".p50, " + count(p.op_ms)},
        {"op_ms.tail", "ms", op_tail_ms, op + ".tail, " + op_tail},
        {"op2_ms.p50", "ms", median_of(p.op2_ms),
         op2 + ".p50, " + count(p.op2_ms)},
        {"op2_ms.tail", "ms", op2_tail_ms, op2 + ".tail, " + op2_tail},
        {"work_per_s", "1/s",
         p.op_ms.empty() ? 0.0
                         : p.work_units / static_cast<double>(p.op_ms.size()) /
                               (median_of(p.op_ms) / 1000.0),
         std::string(w.work_name()) + ", work per op / median op time"},
        {"peak_rss_mb", "MB", p.peak_rss_mb, "peak_rss_mb"},
    };
}

/// Set up (timed; `repeat` for the several set-ups setup_s takes its
/// median over), then run whole rounds until `seconds` have passed and
/// both operations have a tail's worth of samples (or three times the
/// budget is spent).
void run_phase(bench& b, workload& w, phase& p, bool repeat,
               double seconds) {
    double spent_s = 0.0;
    do {
        const double start = now_ms();
        w.setup(b);
        p.setup_s.push_back((now_ms() - start) / 1000.0);
        spent_s += p.setup_s.back();
    } while (repeat && p.setup_s.size() < setup_max &&
             (p.setup_s.size() < setup_min || spent_s < setup_budget_s));
    const double start = now_ms();
    const auto elapsed_s = [&] { return (now_ms() - start) / 1000.0; };
    do {
        w.round(b, p);
    } while (elapsed_s() < seconds ||
             (std::min(p.op_ms.size(), p.op2_ms.size()) < tail_samples &&
              elapsed_s() < 3.0 * seconds));
    p.peak_rss_mb = peak_rss_mb();
}

std::optional<long long> parse_int(std::string_view text) {
    long long value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size()) {
        return std::nullopt;
    }
    return value;
}

int usage(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload fleet-cold|fleet-warm|"
                 "undervolt-campaign|dram-retention --seed N --seconds S "
                 "--trace 0|1 [--jobs W] [--out DIR]\n";
    return 2;
}

std::string json_number(double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

void print_json(const bench& b, const std::vector<metric>& metrics,
                bool correct) {
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << b.attempted()
              << ", \"failed\": " << b.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name
                  << "\": {\"value\": " << json_number(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

} // namespace

int run(int argc, char** argv) {
    options opt;
    std::optional<long long> trace;
    std::optional<long long> seconds;
    std::optional<long long> seed;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) {
            return usage("missing value for " + std::string(flag));
        }
        const std::string_view value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            seed = parse_int(value);
        } else if (flag == "--seconds") {
            seconds = parse_int(value);
        } else if (flag == "--trace") {
            trace = parse_int(value);
        } else if (flag == "--jobs") {
            const auto jobs = parse_int(value);
            if (!jobs || *jobs < 1 || *jobs > 256) {
                return usage("--jobs wants an integer in [1, 256]");
            }
            opt.jobs = static_cast<int>(*jobs);
        } else if (flag == "--out") {
            opt.out_dir = value;
        } else {
            return usage("unknown flag " + std::string(flag));
        }
    }
    if (!seed || *seed < 0 || !seconds || *seconds < 1 || *seconds > 600 ||
        !trace || (*trace != 0 && *trace != 1)) {
        return usage("--seed, --seconds and --trace are required");
    }
    opt.seed = static_cast<std::uint64_t>(*seed);
    opt.seconds = static_cast<double>(*seconds);
    opt.trace = *trace == 1;
    const int nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    if (opt.jobs == 0) {
        opt.jobs = default_jobs;
    }
    // Every engine in the library, including those whose API takes no
    // worker count, resolves GB_JOBS.
    setenv("GB_JOBS", std::to_string(opt.jobs).c_str(), 1);
    if (opt.out_dir.empty()) {
        opt.out_dir = ".bench_build/perfbench/out/" + opt.workload;
    }
    std::unique_ptr<workload> w;
    if (opt.workload == "fleet-cold") {
        w = make_fleet_cold(opt.out_dir);
    } else if (opt.workload == "fleet-warm") {
        w = make_fleet_warm(opt.out_dir);
    } else if (opt.workload == "undervolt-campaign") {
        w = make_undervolt_campaign();
    } else if (opt.workload == "dram-retention") {
        w = make_dram_retention();
    } else {
        return usage("unknown workload '" + opt.workload + "'");
    }
    std::filesystem::create_directories(opt.out_dir);

    std::cout << "perfbench " << opt.workload << ": seed " << opt.seed
              << (opt.seed == default_seed ? " (default, digests pinned)"
                                           : " (digests not pinned)")
              << ", " << opt.seconds << " s, trace " << opt.trace
              << "\nenv: nproc=" << nproc << " jobs=" << opt.jobs
              << " build=" << PERFBENCH_BUILD_TYPE << " compiler=\""
              << compiler_name << __VERSION__ << "\"\n";

    bench b(opt);
    phase untraced;
    phase traced;
    std::vector<span> spans;
    try {
        w->prepare(b);
        run_phase(b, *w, untraced, true,
                  opt.trace ? opt.seconds / 2.0 : opt.seconds);
        if (opt.trace) {
            b.spans().set_enabled(true);
            run_phase(b, *w, traced, false, opt.seconds / 2.0);
            b.spans().set_enabled(false);
            spans = b.spans().collect();
        }
        w->finish(b);
    } catch (const std::exception& e) {
        b.expect(false, std::string("run aborted: ") + e.what());
    }

    if (opt.seed == default_seed) {
        for (const auto& [name, value] : b.digests()) {
            const auto it = pinned_digests.find(name);
            b.check(it != pinned_digests.end() && it->second == value,
                     name + " = " + hex(value) + " does not match pinned " +
                         (it == pinned_digests.end() ? std::string("(none)")
                                                     : hex(it->second)));
        }
    }

    const std::vector<metric> e2e = end_to_end(*w, untraced);
    std::cout << "\nend-to-end (untraced, host time):\n";
    for (const metric& m : e2e) {
        std::cout << "  " << std::left << std::setw(14) << m.name << std::right
                  << std::setw(16) << m.value << ' ' << std::left
                  << std::setw(4) << m.unit << std::right << "  " << m.human
                  << '\n';
    }
    std::cout << "  failed_ratio   " << b.failed() << '/' << b.attempted()
              << " ops\n";
    for (const auto& [name, text] : b.accuracy_lines()) {
        std::cout << name << ": " << text << '\n';
    }
    for (const auto& [name, value] : b.digests()) {
        std::cout << "digest " << name << " = " << hex(value) << '\n';
    }

    std::vector<metric> reported = e2e;
    if (opt.trace) {
        const std::vector<metric> traced_e2e = end_to_end(*w, traced);
        std::cout << "\ntracing overhead (traced minus untraced):\n";
        for (std::size_t i = 0; i < e2e.size(); ++i) {
            std::cout << "  " << std::left << std::setw(14) << e2e[i].name
                      << std::right << std::setw(16)
                      << traced_e2e[i].value - e2e[i].value << ' '
                      << e2e[i].unit << '\n';
        }
        std::cout << '\n';
        print_self_time_table(std::cout, spans);
        const std::string dump = opt.out_dir + "/spans.json";
        if (write_chrome_trace(dump, spans)) {
            std::cout << spans.size() << " spans written to " << dump << '\n';
        }
        reported.clear();
        std::cout << "\nper-layer (traced run):\n";
        for (const layer_metric& m : layer_metrics(spans, b.layer_samples())) {
            std::cout << "  " << std::left << std::setw(34) << m.name
                      << std::right << std::setw(16) << std::fixed
                      << std::setprecision(3) << m.value << ' ' << m.unit
                      << '\n';
            std::cout.unsetf(std::ios::floatfield);
            reported.push_back({m.name, m.unit, m.value, m.name});
        }
    }

    const bool correct =
        b.failed() == 0 && b.failures().empty() && b.attempted() > 0;
    for (const std::string& failure : b.failures()) {
        std::cout << "FAILED: " << failure << '\n';
    }
    print_json(b, reported, correct);
    return correct ? 0 : 1;
}

} // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
