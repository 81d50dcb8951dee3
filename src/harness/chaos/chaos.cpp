#include "harness/chaos/chaos.hpp"

#include <algorithm>
#include <array>
#include <unistd.h>

#include "harness/execution_engine.hpp"
#include "harness/fault_injection.hpp"
#include "util/contracts.hpp"

namespace gb {

namespace {

// Domain separator for torn-length derivation, so chaos draws never alias
// the rig-fault or task-seed streams built from the same campaign seed.
constexpr std::uint64_t tear_domain = 0x746f726e2d777274ULL;

constexpr std::array<std::string_view, 6> site_names = {
    "journal_append",  "snapshot_temp", "snapshot_rename",
    "control_command", "cache_warm",    "timeline_append",
};

std::size_t site_index(chaos_site site) {
    return static_cast<std::size_t>(site);
}

} // namespace

std::string_view to_string(chaos_site site) {
    return site_index(site) < site_names.size() ? site_names[site_index(site)]
                                                : "?";
}

bool chaos_site_from_string(std::string_view text, chaos_site& site) {
    const auto it = std::find(site_names.begin(), site_names.end(), text);
    if (it == site_names.end()) {
        return false;
    }
    site = static_cast<chaos_site>(it - site_names.begin());
    return true;
}

chaos_crash::chaos_crash(chaos_site site)
    : std::runtime_error("chaos kill-point fired at " +
                         std::string(to_string(site))),
      site_(site) {}

chaos_plan::chaos_plan(chaos_plan_config config)
    : config_(std::move(config)),
      fired_flags_(config_.triggers.size(), false) {
    for (const chaos_trigger& trigger : config_.triggers) {
        GB_EXPECTS(trigger.at >= 1);
    }
}

std::uint64_t chaos_plan::derive_keep(std::uint64_t hit, std::uint64_t size,
                                      std::uint64_t keep) const {
    if (size == 0) {
        return 0;
    }
    if (keep != chaos_trigger::keep_auto) {
        return keep < size ? keep : size - 1;
    }
    // Strictly partial: somewhere in [0, size) so the payload's trailing
    // newline (journal) or tail (snapshot temp) never reaches disk.
    const std::uint64_t draw =
        derive_task_seed(config_.seed ^ tear_domain, hit);
    return draw % size;
}

std::optional<chaos_tear> chaos_plan::on_journal_append(std::uint64_t written,
                                                        std::uint64_t size) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++hits_[site_index(chaos_site::journal_append)];
    for (std::size_t t = 0; t < config_.triggers.size(); ++t) {
        const chaos_trigger& trigger = config_.triggers[t];
        if (fired_flags_[t] ||
            trigger.site != chaos_site::journal_append) {
            continue;
        }
        // Fire on the append whose bytes carry the cumulative count past
        // the trigger's byte threshold.
        if (written >= trigger.at || written + size < trigger.at) {
            continue;
        }
        fired_flags_[t] = true;
        ++fired_count_;
        return chaos_tear{chaos_site::journal_append,
                          derive_keep(trigger.at, size, trigger.keep)};
    }
    return std::nullopt;
}

const chaos_trigger* chaos_plan::fire_on_hit(chaos_site site) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t hit = ++hits_[site_index(site)];
    for (std::size_t t = 0; t < config_.triggers.size(); ++t) {
        const chaos_trigger& trigger = config_.triggers[t];
        if (!fired_flags_[t] && trigger.site == site && hit == trigger.at) {
            fired_flags_[t] = true;
            ++fired_count_;
            return &trigger;
        }
    }
    return nullptr;
}

std::optional<chaos_tear> chaos_plan::on_snapshot_temp(std::uint64_t size) {
    const chaos_trigger* trigger = fire_on_hit(chaos_site::snapshot_temp);
    if (trigger == nullptr) {
        return std::nullopt;
    }
    return chaos_tear{chaos_site::snapshot_temp,
                      derive_keep(trigger->at, size, trigger->keep)};
}

bool chaos_plan::on_snapshot_rename() {
    return fire_on_hit(chaos_site::snapshot_rename) != nullptr;
}

bool chaos_plan::on_control_command() {
    return fire_on_hit(chaos_site::control_command) != nullptr;
}

bool chaos_plan::on_cache_warm_line() {
    return fire_on_hit(chaos_site::cache_warm) != nullptr;
}

std::optional<chaos_tear> chaos_plan::on_timeline_append(std::uint64_t size) {
    const chaos_trigger* trigger = fire_on_hit(chaos_site::timeline_append);
    if (trigger == nullptr) {
        return std::nullopt;
    }
    return chaos_tear{chaos_site::timeline_append,
                      derive_keep(trigger->at, size, trigger->keep)};
}

void chaos_plan::kill(chaos_site site) const {
    if (config_.mode == chaos_plan_config::kill_mode::exit_process) {
        // No unwinding, no flushes: the closest userspace gets to yanking
        // the power cord mid-write.
        ::_exit(config_.exit_code);
    }
    throw chaos_crash(site);
}

std::uint64_t chaos_plan::fired() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return fired_count_;
}

bool parse_chaos_spec(std::string_view spec, chaos_plan_config& config,
                      std::string& error) {
    const trigger_grammar grammar{"chaos", site_names, "keep",
                                  "torn length"};
    return parse_trigger_spec(
        spec, grammar, error,
        [&](std::size_t site, std::uint64_t at,
            std::optional<std::uint64_t> keep) {
            chaos_trigger trigger;
            trigger.site = static_cast<chaos_site>(site);
            trigger.at = at;
            trigger.keep = keep.value_or(chaos_trigger::keep_auto);
            config.triggers.push_back(trigger);
        });
}

double replan_backoff_s(double base_s, int round) {
    GB_EXPECTS(base_s >= 0.0);
    GB_EXPECTS(round >= 1);
    double backoff = base_s;
    for (int r = 1; r < round; ++r) {
        backoff *= 2.0;
    }
    return backoff;
}

} // namespace gb
