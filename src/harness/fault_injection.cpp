#include "harness/fault_injection.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "harness/execution_engine.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace gb {

namespace {

// Domain separators so the fault streams never alias the task-seed stream
// the engine hands to the tasks themselves (same base seed, different
// purpose).
constexpr std::uint64_t run_fault_domain = 0x7269672d66617574ULL;
constexpr std::uint64_t log_fault_domain = 0x6c6f672d66617574ULL;
constexpr std::uint64_t sensor_fault_domain = 0x7463702d66617574ULL;
constexpr std::uint64_t sdc_domain = 0x7364632d66617574ULL;

constexpr std::array<std::string_view, 4> sdc_site_names = {
    "vmin_flip", "weak_drop", "weak_phantom", "power_scale"};

} // namespace

std::string_view to_string(rig_fault fault) {
    switch (fault) {
    case rig_fault::none: return "none";
    case rig_fault::hang_until_watchdog: return "hang";
    case rig_fault::board_crash: return "crash";
    case rig_fault::power_switch_failure: return "power-switch";
    }
    return "?";
}

void fault_plan_config::validate() const {
    GB_EXPECTS(hang_rate >= 0.0 && hang_rate <= 1.0);
    GB_EXPECTS(crash_rate >= 0.0 && crash_rate <= 1.0);
    GB_EXPECTS(power_switch_rate >= 0.0 && power_switch_rate <= 1.0);
    GB_EXPECTS(hang_rate + crash_rate + power_switch_rate <= 1.0);
    GB_EXPECTS(log_corruption_rate >= 0.0 && log_corruption_rate <= 1.0);
    GB_EXPECTS(thermocouple_fault_rate >= 0.0 &&
               thermocouple_fault_rate <= 1.0);
    GB_EXPECTS(watchdog_timeout_s >= 0.0);
    GB_EXPECTS(reboot_s >= 0.0);
    GB_EXPECTS(power_cycle_retry_s >= 0.0);
}

fault_plan::fault_plan(fault_plan_config config) : config_(config) {
    config_.validate();
}

rig_fault fault_plan::draw(std::uint64_t task_index, int attempt) const {
    GB_EXPECTS(attempt >= 0);
    const std::uint64_t base =
        derive_task_seed(config_.seed ^ run_fault_domain, task_index);
    rng stream(derive_task_seed(base,
                                static_cast<std::uint64_t>(attempt) + 1));
    double u = stream.uniform();
    if (u < config_.hang_rate) {
        return rig_fault::hang_until_watchdog;
    }
    u -= config_.hang_rate;
    if (u < config_.crash_rate) {
        return rig_fault::board_crash;
    }
    u -= config_.crash_rate;
    if (u < config_.power_switch_rate) {
        return rig_fault::power_switch_failure;
    }
    return rig_fault::none;
}

bool fault_plan::corrupts_log(std::uint64_t task_index) const {
    if (config_.log_corruption_rate <= 0.0) {
        return false;
    }
    rng stream(derive_task_seed(config_.seed ^ log_fault_domain, task_index));
    return stream.bernoulli(config_.log_corruption_rate);
}

std::string fault_plan::corrupt_line(std::uint64_t task_index,
                                     std::string_view line) const {
    rng stream(derive_task_seed(config_.seed ^ log_fault_domain,
                                task_index) +
               1);
    // Cut into the first half, then always smear line noise over the tail:
    // the noise bytes contain no '=', so whatever field they land in (or
    // start) fails key=value parsing -- the remnant can never parse as a
    // (wrong) record, regardless of where the cut fell.
    const std::uint64_t cut =
        line.empty() ? 0 : stream.uniform_index(line.size() / 2 + 1);
    std::string mangled(line.substr(0, cut));
    mangled += "\x01#\x7f~";
    return mangled;
}

celsius fault_plan::thermocouple_offset(int dimm) const {
    GB_EXPECTS(dimm >= 0);
    if (config_.thermocouple_fault_rate <= 0.0) {
        return celsius{0.0};
    }
    rng stream(derive_task_seed(config_.seed ^ sensor_fault_domain,
                                static_cast<std::uint64_t>(dimm)));
    if (!stream.bernoulli(config_.thermocouple_fault_rate)) {
        return celsius{0.0};
    }
    return config_.thermocouple_offset;
}

double fault_plan::downtime_for(rig_fault fault) const {
    switch (fault) {
    case rig_fault::none: return 0.0;
    case rig_fault::hang_until_watchdog:
        return config_.watchdog_timeout_s + config_.reboot_s;
    case rig_fault::board_crash: return config_.reboot_s;
    case rig_fault::power_switch_failure:
        return config_.power_cycle_retry_s;
    }
    return 0.0;
}

fault_plan make_uniform_fault_plan(std::uint64_t seed, double fault_rate) {
    GB_EXPECTS(fault_rate >= 0.0 && fault_rate <= 1.0);
    fault_plan_config config;
    config.seed = seed;
    config.hang_rate = fault_rate / 3.0;
    config.crash_rate = fault_rate / 3.0;
    config.power_switch_rate = fault_rate / 3.0;
    config.log_corruption_rate = fault_rate;
    return fault_plan(config);
}

// --- silent data corruption ------------------------------------------------

std::string_view to_string(sdc_site site) {
    const auto index = static_cast<std::size_t>(site);
    return index < sdc_site_names.size() ? sdc_site_names[index] : "?";
}

bool sdc_site_from_string(std::string_view text, sdc_site& site) {
    const auto it =
        std::find(sdc_site_names.begin(), sdc_site_names.end(), text);
    if (it == sdc_site_names.end()) {
        return false;
    }
    site = static_cast<sdc_site>(it - sdc_site_names.begin());
    return true;
}

sdc_plan::sdc_plan(sdc_plan_config config)
    : config_(std::move(config)),
      fired_flags_(config_.triggers.size(), false) {
    for (const sdc_trigger& trigger : config_.triggers) {
        GB_EXPECTS(trigger.at >= 1);
    }
}

std::optional<sdc_corruption> sdc_plan::on_execution() {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t hit = ++opportunities_;
    for (std::size_t t = 0; t < config_.triggers.size(); ++t) {
        const sdc_trigger& trigger = config_.triggers[t];
        if (fired_flags_[t] || hit != trigger.at) {
            continue;
        }
        fired_flags_[t] = true;
        ++injected_;
        std::uint64_t param = trigger.param;
        if (param == sdc_trigger::param_auto) {
            param = derive_task_seed(config_.seed ^ sdc_domain, hit);
        }
        return sdc_corruption{trigger.site, param};
    }
    return std::nullopt;
}

std::uint64_t sdc_plan::injected() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return injected_;
}

double sdc_plan::corrupt_vmin(double value_mv, std::uint64_t param) {
    GB_EXPECTS(std::isfinite(value_mv));
    // Binary64 layout: bits [0, 52) are the mantissa.  Flipping one of
    // them always produces a different, still-finite double.
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value_mv);
    return std::bit_cast<double>(bits ^ (1ULL << (param % 52)));
}

long long sdc_plan::corrupt_weak_cells(long long count, sdc_site site,
                                       std::uint64_t param) {
    const long long delta = 1 + static_cast<long long>(param % 3);
    return site == sdc_site::weak_drop ? count - delta : count + delta;
}

double sdc_plan::corrupt_power(double watts, std::uint64_t param) {
    GB_EXPECTS(std::isfinite(watts));
    const std::uint64_t permille = 1 + param % 100;
    const double factor =
        (param % 2 == 0) ? (1000.0 + static_cast<double>(permille)) / 1000.0
                         : (1000.0 - static_cast<double>(permille)) / 1000.0;
    return watts * factor;
}

bool parse_sdc_spec(std::string_view spec, sdc_plan_config& config,
                    std::string& error) {
    const trigger_grammar grammar{"sdc", sdc_site_names, "param",
                                  "parameter"};
    return parse_trigger_spec(
        spec, grammar, error,
        [&](std::size_t site, std::uint64_t at,
            std::optional<std::uint64_t> param) {
            sdc_trigger trigger;
            trigger.site = static_cast<sdc_site>(site);
            trigger.at = at;
            trigger.param = param.value_or(sdc_trigger::param_auto);
            config.triggers.push_back(trigger);
        });
}

bool parse_trigger_spec(std::string_view spec, const trigger_grammar& grammar,
                        std::string& error, const trigger_sink& emit) {
    const std::string kind(grammar.kind);
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::size_t end =
            comma == std::string_view::npos ? spec.size() : comma;
        const std::string_view token = spec.substr(pos, end - pos);
        pos = end + 1;
        if (token.empty()) {
            if (comma == std::string_view::npos) {
                break;
            }
            error = "empty " + kind + " trigger in spec '" +
                    std::string(spec) + "'";
            return false;
        }
        const std::string quoted =
            kind + " trigger '" + std::string(token) + "'";
        const std::size_t at_sep = token.find('@');
        if (at_sep == std::string_view::npos || at_sep == 0) {
            error = quoted + " wants site@at[/" + std::string(grammar.param) +
                    "]";
            return false;
        }
        const std::string_view site_name = token.substr(0, at_sep);
        const auto site =
            std::find(grammar.sites.begin(), grammar.sites.end(), site_name);
        if (site == grammar.sites.end()) {
            error = quoted + ": unknown " + kind + " site '" +
                    std::string(site_name) + "'";
            return false;
        }
        std::string_view numbers = token.substr(at_sep + 1);
        std::string_view param_text;
        const std::size_t slash = numbers.find('/');
        if (slash != std::string_view::npos) {
            param_text = numbers.substr(slash + 1);
            numbers = numbers.substr(0, slash);
        }
        std::uint64_t at = 0;
        if (!wire::parse_int(numbers, at) || at == 0) {
            error = quoted + " wants a positive integer after '@'";
            return false;
        }
        std::optional<std::uint64_t> param;
        if (!param_text.empty() &&
            !wire::parse_int(param_text, param.emplace())) {
            error = quoted + " wants an integer " +
                    std::string(grammar.param_noun) + " after '/'";
            return false;
        }
        emit(static_cast<std::size_t>(site - grammar.sites.begin()), at,
             param);
        if (comma == std::string_view::npos) {
            break;
        }
    }
    return true;
}

} // namespace gb
