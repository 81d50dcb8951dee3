// Deterministic rig-fault model for the characterization framework.
//
// The paper's rig is hostile: boards hang until the watchdog monitor
// power-cycles them, crash mid-run, sometimes fail to come back when the
// power switch is actuated, and stream raw-log lines over a serial link
// that a dying machine truncates or garbles.  A `fault_plan` reproduces
// all of that *deterministically*: every decision is derived with
// splitmix64 from (plan seed, task index, attempt), so a faulty campaign
// is exactly as reproducible as a healthy one -- identical for any worker
// count, and replayable for debugging by re-running with the same seed.
//
// The execution engine consumes the plan per task attempt (hang / crash /
// power-switch faults trigger bounded retry with exponential backoff, then
// an `aborted_rig` outcome); the campaign journal consumes it per completed
// record (log-corruption faults mangle the journal line the way a dying
// UART does); the DRAM campaign runner consumes it per DIMM (thermocouple
// mounting faults routed into the thermal testbed's existing hook).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace gb {

/// What the rig does to one task attempt.
enum class rig_fault : std::uint8_t {
    none,                ///< the run executes and reports normally
    hang_until_watchdog, ///< board wedges; watchdog fires, board reboots
    board_crash,         ///< board dies mid-run; results of the run are lost
    power_switch_failure ///< actuation fails; board never starts the run
};

[[nodiscard]] std::string_view to_string(rig_fault fault);

struct fault_plan_config {
    /// Root of every per-(task, attempt) fault decision.  Campaigns pass
    /// their base seed so faulty runs reproduce with the campaign.
    std::uint64_t seed = 0;

    /// Per-attempt probability of each run fault; their sum must stay
    /// within [0, 1].
    double hang_rate = 0.0;
    double crash_rate = 0.0;
    double power_switch_rate = 0.0;

    /// Per-completed-task probability that the record's raw-log line is
    /// truncated/garbled in the journal (noticed only at parse time, like
    /// on the real rig: the run itself is unaffected).
    double log_corruption_rate = 0.0;

    /// Per-DIMM probability of a thermocouple mounting fault, and the
    /// sensor offset such a fault applies (routed into
    /// thermal_testbed::inject_thermocouple_fault by the DRAM runner).
    double thermocouple_fault_rate = 0.0;
    celsius thermocouple_offset{-6.0};

    /// Simulated rig recovery times, charged to
    /// execution_stats::rig_downtime_s (no real sleeping).
    double watchdog_timeout_s = 10.0; ///< hang detection latency
    double reboot_s = 30.0;           ///< power-cycle + boot after hang/crash
    double power_cycle_retry_s = 5.0; ///< re-actuating a stuck power switch

    void validate() const;
};

class fault_plan {
public:
    explicit fault_plan(fault_plan_config config);

    /// Fault injected into attempt `attempt` of task `task_index`.
    /// Deterministic: depends only on (seed, task_index, attempt).
    [[nodiscard]] rig_fault draw(std::uint64_t task_index,
                                 int attempt) const;

    /// Whether the completed task's journal line gets mangled.
    [[nodiscard]] bool corrupts_log(std::uint64_t task_index) const;

    /// Deterministically mangle a raw-log line the way the dying serial
    /// link does: truncate into the first half of the line and smear
    /// garbage over the tail.  The result never parses as a well-formed
    /// record, so the tolerant parser skips it instead of resurrecting a
    /// wrong one.
    [[nodiscard]] std::string corrupt_line(std::uint64_t task_index,
                                           std::string_view line) const;

    /// Thermocouple mounting-fault offset for a DIMM; 0 C means healthy.
    [[nodiscard]] celsius thermocouple_offset(int dimm) const;

    /// Simulated seconds the rig loses recovering from one fault.
    [[nodiscard]] double downtime_for(rig_fault fault) const;

    [[nodiscard]] const fault_plan_config& config() const { return config_; }

private:
    fault_plan_config config_;
};

/// Convenience plan: `fault_rate` split evenly across the three run faults,
/// with the same rate of journal-line corruption.
[[nodiscard]] fault_plan make_uniform_fault_plan(std::uint64_t seed,
                                                 double fault_rate);

// ---------------------------------------------------------------------------
// Silent data corruption (SDC)
//
// The rig faults above are *loud*: a hang trips the watchdog, a crash
// loses the run, a mangled journal line fails to parse.  The paper's
// scarier failure mode is silent -- a rig operating below Vmin or past
// tREFP returns a plausible-but-wrong measurement with no fault signal at
// all (the Scrooge-Attack observation).  An `sdc_plan` injects exactly
// that: a one-shot corruption of a completed probe's *values*, drawn with
// the same (seed, site, hit) purity as fault_plan/chaos_plan so an SDC
// campaign reproduces bitwise at any worker or shard count.  The defense
// lives in harness/integrity + fleet/service (quorum voting, chain-hashed
// journal, audit sampling); this type only supplies the attack.

/// What a Byzantine rig silently falsifies in one probe result.
enum class sdc_site : std::uint8_t {
    vmin_flip,    ///< one mantissa bit of the Vmin requirement flipped
    weak_drop,    ///< weak/erroneous cell count under-reported
    weak_phantom, ///< weak/erroneous cell count over-reported
    power_scale,  ///< power reading scaled by a few permille
};

[[nodiscard]] std::string_view to_string(sdc_site site);
[[nodiscard]] bool sdc_site_from_string(std::string_view text,
                                        sdc_site& site);

/// One armed corruption.  Each trigger fires at most once per plan, on the
/// `at`-th execution opportunity (1-based, counted across all sites).
struct sdc_trigger {
    sdc_site site = sdc_site::vmin_flip;
    std::uint64_t at = 1;
    /// Site-specific corruption parameter (bit index, cell delta, permille
    /// scale).  `param_auto` derives one from the plan seed and hit.
    static constexpr std::uint64_t param_auto = ~0ULL;
    std::uint64_t param = param_auto;
};

struct sdc_plan_config {
    /// Root of the deterministic parameter derivation.
    std::uint64_t seed = 0;
    std::vector<sdc_trigger> triggers;
};

/// A corruption decision: falsify the value at `site` with `param`.
struct sdc_corruption {
    sdc_site site = sdc_site::vmin_flip;
    std::uint64_t param = 0;
};

class sdc_plan {
public:
    explicit sdc_plan(sdc_plan_config config);

    /// One execution opportunity (a replica run, an audit re-probe, a
    /// repair re-execution).  Engaged when an armed trigger's `at` equals
    /// this opportunity's 1-based index; consumed triggers never re-fire.
    /// Thread-safe, but deterministic callers draw at serial points only.
    [[nodiscard]] std::optional<sdc_corruption> on_execution();

    /// Corruptions handed out so far.
    [[nodiscard]] std::uint64_t injected() const;

    [[nodiscard]] const sdc_plan_config& config() const { return config_; }

    // Pure scalar appliers, usable by any result type without this header
    // knowing the fleet's probe_result.  Each is guaranteed to *change*
    // the value (an SDC that corrupts into the truth is no test) and to
    // keep it finite.

    /// Flip mantissa bit `param % 52` of a finite double (IEEE-754 binary64:
    /// mantissa flips never touch the exponent or sign, so the value stays
    /// finite and changes by a bounded relative amount).
    [[nodiscard]] static double corrupt_vmin(double value_mv,
                                             std::uint64_t param);
    /// Drop (weak_drop) or invent (weak_phantom) `1 + param % 3` cells.
    /// No clamping: under-reporting an empty count goes negative rather
    /// than silently corrupting into the truth.
    [[nodiscard]] static long long corrupt_weak_cells(long long count,
                                                      sdc_site site,
                                                      std::uint64_t param);
    /// Scale a power reading by `(1000 ± (1 + param % 100)) / 1000` --
    /// a few permille, the size of a miscalibrated shunt.
    [[nodiscard]] static double corrupt_power(double watts,
                                              std::uint64_t param);

private:
    sdc_plan_config config_;
    mutable std::mutex mutex_;
    std::vector<bool> fired_flags_;
    std::uint64_t opportunities_ = 0;
    std::uint64_t injected_ = 0;
};

/// Parse a CLI SDC spec: comma-separated `site@at[/param]` triggers, e.g.
/// `vmin_flip@5,power_scale@12/37`.  Same grammar and diagnostics contract
/// as parse_chaos_spec: false with the offending token quoted in `error`.
[[nodiscard]] bool parse_sdc_spec(std::string_view spec,
                                  sdc_plan_config& config,
                                  std::string& error);

// --- trigger specs ---------------------------------------------------------

/// The comma-separated `site@at[/param]` grammar shared by the chaos and
/// SDC trigger specs.  Diagnostics name the spec `kind` ("chaos trigger
/// 'x@0' wants a positive integer after '@'") and the parameter by its
/// `param` slot name and `param_noun`.
struct trigger_grammar {
    std::string_view kind;                   ///< "chaos", "sdc"
    std::span<const std::string_view> sites; ///< site names, enum order
    std::string_view param;                  ///< "keep", "param"
    std::string_view param_noun;             ///< "torn length", "parameter"
};

/// Receives each parsed trigger: its index into `trigger_grammar::sites`,
/// its `at`, and its `/param` when one was given.
using trigger_sink = std::function<void(
    std::size_t site, std::uint64_t at, std::optional<std::uint64_t> param)>;

/// Parse `spec`, handing triggers to `emit` in order.  False at the first
/// malformed token, with a diagnostic quoting it in `error`; triggers
/// before it have already been emitted.
[[nodiscard]] bool parse_trigger_spec(std::string_view spec,
                                      const trigger_grammar& grammar,
                                      std::string& error,
                                      const trigger_sink& emit);

} // namespace gb
