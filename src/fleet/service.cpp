#include "fleet/service.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include "harness/chaos/chaos.hpp"
#include "harness/fault_injection.hpp"
#include "harness/schedule.hpp"
#include "harness/status.hpp"
#include "harness/trace/metrics.hpp"
#include "harness/trace/trace.hpp"
#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace gb::fleet {

namespace {

/// Virtual cost of one probe for the shard planner; matches the engine's
/// task quantum so `gbreport utilization` on a fleet trace reproduces the
/// plan.
constexpr std::uint64_t probe_cost_ticks = 100;

using wire::field_value;
using wire::tokenize;

bool corner_from_string(std::string_view text, process_corner& corner) {
    if (text == to_string(process_corner::ttt)) {
        corner = process_corner::ttt;
    } else if (text == to_string(process_corner::tff)) {
        corner = process_corner::tff;
    } else if (text == to_string(process_corner::tss)) {
        corner = process_corner::tss;
    } else {
        return false;
    }
    return true;
}

/// Fault-draw key for re-plan round `round` of a probe: round 0 draws
/// exactly where a single-round plan would, later rounds re-key so the
/// retry sees fresh draws.  A pure function of content, never of engine
/// task indices -- what keeps faulty campaigns shard-invariant and makes
/// a probe's ledger a property of the probe itself.
std::uint64_t replan_key(std::uint64_t content, int round) {
    return round == 0 ? content
                      : derive_task_seed(content,
                                         static_cast<std::uint64_t>(round));
}

void fold_ledger(execution_stats& stats, const probe_ledger& ledger) {
    stats.retries += ledger.retries;
    stats.watchdog_timeouts += ledger.watchdog_timeouts;
    stats.board_crashes += ledger.board_crashes;
    stats.power_switch_failures += ledger.power_switch_failures;
    stats.aborted_rig += ledger.exhausted_rounds;
    stats.rig_downtime_s += ledger.downtime_s;
}

bool same_result(const probe_result& a, const probe_result& b) {
    return a.requirement_mv == b.requirement_mv &&
           a.power_nominal_w == b.power_nominal_w &&
           a.power_point_w == b.power_point_w && a.bucket == b.bucket;
}

/// Majority vote over replica results (harness/integrity).
quorum_tally tally_votes(const std::vector<probe_result>& votes) {
    return vote(votes.size(), [&](std::size_t a, std::size_t b) {
        return same_result(votes[a], votes[b]);
    });
}

/// Fault-draw domain for replicas beyond the first, so redundant
/// executions see independent rig faults without disturbing replica 0's
/// draws (which must stay byte-identical to the quorum=1 schedule).
constexpr std::uint64_t replica_fault_domain = 0x7265706c2d666c74ULL;

/// What a Byzantine rig's silent corruption does to one probe result.
/// The weak-cell sites land on the outcome bucket (the fleet probe's
/// cell-count-like integer channel); the others on the named scalars.
probe_result apply_sdc(const probe_result& clean,
                       const sdc_corruption& corruption) {
    probe_result result = clean;
    switch (corruption.site) {
    case sdc_site::vmin_flip:
        result.requirement_mv = sdc_plan::corrupt_vmin(
            result.requirement_mv, corruption.param);
        break;
    case sdc_site::weak_drop:
    case sdc_site::weak_phantom:
        result.bucket = static_cast<int>(sdc_plan::corrupt_weak_cells(
            result.bucket, corruption.site, corruption.param));
        break;
    case sdc_site::power_scale:
        result.power_point_w =
            sdc_plan::corrupt_power(result.power_point_w, corruption.param);
        break;
    }
    return result;
}

std::string format_probe_payload(const cohort_key& key,
                                 std::int64_t sweep_mv,
                                 std::uint64_t content,
                                 const probe_result& result,
                                 const probe_ledger& ledger) {
    std::string line = "probe corner=";
    line += to_string(key.corner);
    line += " class=" + std::to_string(key.workload_class);
    line += " op=" + std::to_string(key.operating_point);
    line += " variant=" + std::to_string(key.variant);
    line += " sweep=" + std::to_string(sweep_mv);
    line += " content=" + wire::format_hex64(content);
    line += " req=" + wire::format_double(result.requirement_mv);
    line += " pnom=" + wire::format_double(result.power_nominal_w);
    line += " ppt=" + wire::format_double(result.power_point_w);
    line += " bucket=" + std::to_string(result.bucket);
    line += " retries=" + std::to_string(ledger.retries);
    line += " wdt=" + std::to_string(ledger.watchdog_timeouts);
    line += " crash=" + std::to_string(ledger.board_crashes);
    line += " pwr=" + std::to_string(ledger.power_switch_failures);
    line += " xhst=" + std::to_string(ledger.exhausted_rounds);
    line += " down=" + wire::format_double(ledger.downtime_s);
    return line;
}

std::string format_rigs(const std::vector<std::uint32_t>& rigs) {
    std::string text;
    for (const std::uint32_t rig : rigs) {
        if (!text.empty()) {
            text += ':';
        }
        text += std::to_string(rig);
    }
    return text;
}

/// Defended wire: the vouching rigs, then the chain link LAST so it covers
/// everything before it (including the provenance).  Advances `chain`.
void append_defended_fields(std::string& line,
                            const std::vector<std::uint32_t>& rigs,
                            std::uint64_t& chain) {
    line += " rigs=" + format_rigs(rigs);
    chain = chain_next(chain, line);
    line += " chain=" + format_chain(chain);
}

bool parse_rigs(std::string_view text, std::vector<std::uint32_t>& rigs) {
    rigs.clear();
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t colon = text.find(':', pos);
        const std::size_t end =
            colon == std::string_view::npos ? text.size() : colon;
        std::uint32_t rig = 0;
        if (!wire::parse_int(text.substr(pos, end - pos), rig)) {
            return false;
        }
        rigs.push_back(rig);
        if (colon == std::string_view::npos) {
            return true;
        }
        pos = colon + 1;
    }
    return false;
}

/// A snapshot cohort object's identity fields, left open so the caller
/// can append more before the closing brace.
void write_cohort_fields(std::ostream& out, const cohort_state& cohort) {
    out << "{\"corner\":\"" << to_string(cohort.key.corner)
        << "\",\"class\":" << cohort.key.workload_class
        << ",\"op\":" << cohort.key.operating_point
        << ",\"variant\":" << cohort.key.variant
        << ",\"members\":" << cohort.members;
}

} // namespace

bool parse_probe_line(std::string_view payload, cohort_key& key,
                      std::int64_t& sweep_mv, std::uint64_t& content,
                      probe_result& result, probe_ledger& ledger) {
    const std::vector<std::string_view> tokens = tokenize(payload);
    if (tokens.empty() || tokens.front() != "probe") {
        return false;
    }
    std::string_view value;
    if (!(field_value(tokens, "corner", value) &&
          corner_from_string(value, key.corner) &&
          field_value(tokens, "class", value) &&
          wire::parse_int(value, key.workload_class) &&
          field_value(tokens, "op", value) &&
          wire::parse_int(value, key.operating_point) &&
          field_value(tokens, "variant", value) &&
          wire::parse_int(value, key.variant) &&
          field_value(tokens, "sweep", value) &&
          wire::parse_int(value, sweep_mv) &&
          field_value(tokens, "content", value) &&
          wire::parse_int(value, content, 16) &&
          field_value(tokens, "req", value) &&
          wire::parse_real(value, result.requirement_mv) &&
          field_value(tokens, "pnom", value) &&
          wire::parse_real(value, result.power_nominal_w) &&
          field_value(tokens, "ppt", value) &&
          wire::parse_real(value, result.power_point_w) &&
          field_value(tokens, "bucket", value) &&
          wire::parse_int(value, result.bucket))) {
        return false;
    }
    // The ledger fields are optional on the wire (pre-ledger journals
    // stay readable) but must parse when present.
    ledger = {};
    const auto optional_u64 = [&](std::string_view field,
                                  std::uint64_t& out) {
        std::string_view text;
        return !field_value(tokens, field, text) ||
               wire::parse_int(text, out);
    };
    std::string_view down_text;
    return optional_u64("retries", ledger.retries) &&
           optional_u64("wdt", ledger.watchdog_timeouts) &&
           optional_u64("crash", ledger.board_crashes) &&
           optional_u64("pwr", ledger.power_switch_failures) &&
           optional_u64("xhst", ledger.exhausted_rounds) &&
           (!field_value(tokens, "down", down_text) ||
            wire::parse_real(down_text, ledger.downtime_s));
}

bool parse_probe_line(std::string_view payload, cohort_key& key,
                      std::int64_t& sweep_mv, std::uint64_t& content,
                      probe_result& result) {
    probe_ledger ledger;
    return parse_probe_line(payload, key, sweep_mv, content, result,
                            ledger);
}

fleet_service::fleet_service(fleet_spec spec, fleet_service_config config,
                             probe_fn probe)
    : spec_(std::move(spec)),
      config_(std::move(config)),
      probe_(std::move(probe)) {
    // Cohort census: one pass over the fleet, sorted-key cohort order
    // ever after.  O(nodes) once; campaigns reuse it.
    std::map<cohort_key, std::uint64_t> members;
    const std::uint64_t nodes = spec_.node_count();
    for (std::uint64_t id = 0; id < nodes; ++id) {
        ++members[make_node(spec_, id).cohort];
    }
    cohorts_.reserve(members.size());
    for (const auto& [key, count] : members) {
        cohort_of_.emplace(key, cohorts_.size());
        cohort_state state;
        state.key = key;
        state.members = count;
        cohorts_.push_back(state);
    }
    served_content_.assign(cohorts_.size(), 0);
    GB_EXPECTS(config_.integrity.quorum >= 1);
    effective_rigs_ = config_.integrity.rigs != 0
                          ? std::max<std::uint64_t>(
                                config_.integrity.rigs,
                                static_cast<std::uint64_t>(
                                    config_.integrity.quorum))
                          : std::max<std::uint64_t>(
                                static_cast<std::uint64_t>(
                                    config_.integrity.quorum),
                                8);
    rig_reputation_config reputation;
    reputation.blacklist_threshold =
        std::max<std::uint64_t>(1, config_.integrity.blacklist_threshold);
    reputation_ = rig_reputation(reputation);
    // A crash between a temp write and its rename (snapshot, timeline, or
    // a repair rewrite of the journal) leaves a stale `.tmp` sibling: dead
    // bytes, never to be renamed.
    for (const std::string* path : {&config_.state_path,
                                    &config_.timeline_path,
                                    &config_.journal_path}) {
        if (!path->empty()) {
            std::error_code ec;
            std::filesystem::remove(*path + ".tmp", ec);
        }
    }
    if (config_.timeline != nullptr) {
        // The engine exists even rule-free so the timeline artifact's
        // alert section stays stable; it must exist before the journal
        // warm so replayed `alert` records restore its firing state.
        alerts_ = std::make_unique<alert_engine>(config_.alerts);
    }
    if (!config_.journal_path.empty()) {
        warm_cache_from_journal();
        open_journal();
    }
    if (config_.metrics != nullptr) {
        mh_.registered = true;
        mh_.nodes = config_.metrics->counter("fleet.chips");
        mh_.probes_executed =
            config_.metrics->counter("fleet.probes_executed");
        mh_.cache_hits = config_.metrics->counter("fleet.cache_hits");
        mh_.restored = config_.metrics->counter("fleet.restored");
        mh_.healed_bytes = config_.metrics->counter("fleet.healed_bytes");
        mh_.replan_rounds =
            config_.metrics->counter("fleet.replan_rounds");
        mh_.shard_watchdog_trips =
            config_.metrics->counter("fleet.shard_watchdog_trips");
        // Voltage-class bounds spanning the top of the binning range
        // ({880..980} under the default 10 mV step / 980 mV cap).
        std::vector<std::uint64_t> bounds;
        const auto cap = static_cast<std::int64_t>(spec_.bin_cap_mv);
        const auto step = static_cast<std::int64_t>(spec_.bin_step_mv);
        for (int i = 5; i >= 0; --i) {
            bounds.push_back(static_cast<std::uint64_t>(cap - 2 * step * i));
        }
        mh_.bin_mv =
            config_.metrics->histogram("fleet.bin_mv", std::move(bounds));
        mh_.power_nominal_w =
            config_.metrics->gauge("fleet.power_nominal_w");
        mh_.power_binned_w = config_.metrics->gauge("fleet.power_binned_w");
        mh_.degraded_cohorts =
            config_.metrics->gauge("fleet.degraded_cohorts");
        if (config_.integrity.enabled()) {
            mh_.integrity = true;
            mh_.sdc_injected =
                config_.metrics->gauge("integrity.sdc_injected");
            mh_.sdc_detected =
                config_.metrics->gauge("integrity.sdc_detected");
            mh_.sdc_outvoted =
                config_.metrics->gauge("integrity.sdc_outvoted");
            mh_.sdc_corrected =
                config_.metrics->gauge("integrity.sdc_corrected");
            mh_.sdc_escaped =
                config_.metrics->gauge("integrity.sdc_escaped");
            mh_.audits = config_.metrics->gauge("integrity.audits");
            mh_.audit_mismatches =
                config_.metrics->gauge("integrity.audit_mismatches");
            mh_.dissents = config_.metrics->gauge("integrity.dissents");
            mh_.blacklisted_rigs =
                config_.metrics->gauge("integrity.blacklisted_rigs");
            mh_.quorum_stalemates =
                config_.metrics->gauge("integrity.quorum_stalemates");
            mh_.repaired_entries =
                config_.metrics->gauge("integrity.repaired_entries");
            mh_.replica_executions =
                config_.metrics->gauge("integrity.replica_executions");
        }
        if (restored_ > 0) {
            config_.metrics->add(0, mh_.restored, restored_);
        }
        if (healed_bytes_ > 0) {
            config_.metrics->add(0, mh_.healed_bytes, healed_bytes_);
        }
    }
}

void fleet_service::open_journal() {
    journal_ = std::make_unique<campaign_journal>(config_.journal_path);
    if (config_.chaos != nullptr) {
        journal_->set_chaos(config_.chaos);
    }
}

std::size_t fleet_service::cohort_index(const cohort_key& key) const {
    const auto it = cohort_of_.find(key);
    GB_EXPECTS(it != cohort_of_.end());
    return it->second;
}

std::uint64_t fleet_service::degraded_cohorts() const {
    std::uint64_t count = 0;
    for (const cohort_state& cohort : cohorts_) {
        count += cohort.degraded ? 1 : 0;
    }
    return count;
}

void fleet_service::warm_cache_from_journal() {
    std::ifstream in(config_.journal_path, std::ios::binary);
    if (!in.is_open()) {
        return; // first boot: nothing to restore
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    in.close();

    const auto reject = [this](std::size_t lineno,
                               const std::string& reason) {
        throw fleet_journal_error("fleet journal " + config_.journal_path +
                                  ":" + std::to_string(lineno) + ": " +
                                  reason);
    };

    // The writer appends whole '\n'-terminated lines under a mutex and
    // commits serially in sorted cohort order, so a healthy journal obeys
    // invariants this loop enforces strictly: serials are 0,1,2,...;
    // cohort keys strictly increase within each run of equal sweep; no
    // content appears twice.  The ONLY damage this writer's own crash can
    // cause is a torn final line with no trailing newline -- that tail is
    // self-healed (truncated, counted in `healed_bytes_`); everything
    // else is a foreign edit or a bug and raises `fleet_journal_error`
    // rather than silently re-executing probes against bad state.
    std::size_t pos = 0;
    std::size_t lineno = 0;
    bool have_prev = false;
    std::int64_t prev_sweep = 0;
    cohort_key prev_key{};
    std::map<std::uint64_t, probe_result> seen;
    while (pos < bytes.size()) {
        const std::size_t newline = bytes.find('\n', pos);
        if (newline == std::string::npos) {
            healed_bytes_ += bytes.size() - pos;
            std::error_code ec;
            std::filesystem::resize_file(config_.journal_path, pos, ec);
            if (ec) {
                reject(lineno + 1,
                       "could not truncate torn tail: " + ec.message());
            }
            break;
        }
        const std::string_view line(bytes.data() + pos, newline - pos);
        pos = newline + 1;
        ++lineno;
        if (config_.chaos != nullptr &&
            config_.chaos->on_cache_warm_line()) {
            config_.chaos->kill(chaos_site::cache_warm);
        }
        std::size_t task_index = 0;
        std::string_view payload;
        if (!parse_journal_prefix(line, task_index, payload)) {
            reject(lineno, "not a journal record");
        }
        if (task_index != journal_serial_) {
            reject(lineno, "task serial " + std::to_string(task_index) +
                               " out of sequence (expected " +
                               std::to_string(journal_serial_) + ")");
        }
        // Observatory records (`tline` samples, `alert` transitions and
        // the `tseal` closing an epoch's block) consume journal serials
        // like probe records but carry no chain link and never fold into
        // the probe chain.  They are parsed strictly, tracked per epoch
        // (so a restarted daemon appends only the missing suffix of a
        // partial block) and replayed into the configured recorder and
        // alert engine.
        const std::size_t first_space = payload.find(' ');
        const std::string_view kind = payload.substr(
            0, first_space == std::string_view::npos ? payload.size()
                                                     : first_space);
        if (kind == "tline" || kind == "alert" || kind == "tseal") {
            const std::vector<std::string_view> tokens = tokenize(payload);
            std::string_view value;
            std::uint64_t record_epoch = 0;
            if (!field_value(tokens, "epoch", value) ||
                !wire::parse_int(value, record_epoch)) {
                reject(lineno, "unparseable observatory record");
            }
            if (sealed_epochs_.contains(record_epoch)) {
                reject(lineno, "observatory record after its epoch seal");
            }
            if (kind == "tline") {
                std::string_view series;
                std::uint64_t tick = 0;
                double sample = 0.0;
                if (!field_value(tokens, "series", series) ||
                    series.empty() || !field_value(tokens, "tick", value) ||
                    !wire::parse_int(value, tick) ||
                    !field_value(tokens, "value", value) ||
                    !wire::parse_real(value, sample)) {
                    reject(lineno, "unparseable timeline record");
                }
                ++warm_tline_counts_[record_epoch];
                warm_epoch_ticks_[record_epoch] = tick;
                if (config_.timeline != nullptr) {
                    config_.timeline->append(series, tick, sample);
                }
            } else if (kind == "alert") {
                alert_event event;
                std::string_view rule;
                std::string_view series;
                std::string_view state;
                if (!field_value(tokens, "rule", rule) || rule.empty() ||
                    !field_value(tokens, "series", series) ||
                    series.empty() ||
                    !field_value(tokens, "state", state) ||
                    (state != "firing" && state != "resolved") ||
                    !field_value(tokens, "tick", value) ||
                    !wire::parse_int(value, event.tick) ||
                    !field_value(tokens, "value", value) ||
                    !wire::parse_real(value, event.value)) {
                    reject(lineno, "unparseable alert record");
                }
                event.rule = std::string(rule);
                event.series = std::string(series);
                event.firing = state == "firing";
                ++warm_alert_counts_[record_epoch];
                if (config_.timeline != nullptr) {
                    config_.timeline->observe_tick(event.tick);
                }
                if (alerts_ != nullptr) {
                    alerts_->replay(event);
                }
            } else {
                std::uint64_t sealed_samples = 0;
                std::uint64_t sealed_events = 0;
                if (!field_value(tokens, "samples", value) ||
                    !wire::parse_int(value, sealed_samples) ||
                    !field_value(tokens, "events", value) ||
                    !wire::parse_int(value, sealed_events)) {
                    reject(lineno, "unparseable epoch seal");
                }
                if (sealed_samples != warm_tline_counts_[record_epoch] ||
                    sealed_events != warm_alert_counts_[record_epoch]) {
                    reject(lineno,
                           "epoch seal counts disagree with the records "
                           "before it");
                }
                sealed_epochs_.insert(record_epoch);
            }
            ++journal_serial_;
            // The block separates campaigns; the cohort-order invariant
            // restarts with the next probe run.
            have_prev = false;
            if (config_.integrity.enabled()) {
                record_layout_.push_back({false, std::string(payload)});
            }
            continue;
        }
        // With the integrity defenses on, every probe record must close
        // with a ` chain=` link folding the previous record's chain value
        // over this record's bytes -- an in-place edit anywhere breaks
        // every later link, which a torn-tail heal can never excuse.  With
        // them off the chain (and rigs provenance) is ignored like any
        // unknown field, so defended journals stay readable by undefended
        // services.
        if (config_.integrity.enabled()) {
            const std::size_t chain_at = payload.rfind(" chain=");
            if (chain_at == std::string_view::npos) {
                reject(lineno, "missing chain hash");
            }
            const std::string_view base = payload.substr(0, chain_at);
            std::uint64_t recorded = 0;
            if (!wire::parse_int(payload.substr(chain_at + 7), recorded,
                               16)) {
                reject(lineno, "unparseable chain hash");
            }
            const std::uint64_t expected = chain_next(chain_, base);
            if (recorded != expected) {
                reject(lineno, "chain hash mismatch (in-place corruption "
                               "upstream or on this record)");
            }
            chain_ = expected;
        }
        cohort_key key;
        std::int64_t sweep_mv = 0;
        std::uint64_t content = 0;
        probe_result result;
        probe_ledger ledger;
        if (!parse_probe_line(payload, key, sweep_mv, content, result,
                              ledger)) {
            reject(lineno, "unparseable probe record");
        }
        std::vector<std::uint32_t> rigs;
        if (config_.integrity.enabled()) {
            const std::vector<std::string_view> tokens = tokenize(payload);
            std::string_view rigs_text;
            if (field_value(tokens, "rigs", rigs_text) &&
                !parse_rigs(rigs_text, rigs)) {
                reject(lineno, "unparseable rigs provenance");
            }
        }
        if (cohort_of_.find(key) == cohort_of_.end()) {
            reject(lineno, "probe for a cohort outside this fleet");
        }
        const auto duplicate = seen.find(content);
        if (duplicate != seen.end()) {
            reject(lineno,
                   same_result(duplicate->second, result)
                       ? "duplicate entry for content " +
                             wire::format_hex64(content)
                       : "contradictory re-execution of content " +
                             wire::format_hex64(content));
        }
        if (have_prev && sweep_mv == prev_sweep && !(prev_key < key)) {
            reject(lineno, "cohort order regressed within sweep " +
                               std::to_string(sweep_mv));
        }
        seen.emplace(content, result);
        prev_sweep = sweep_mv;
        prev_key = key;
        have_prev = true;
        ++journal_serial_;
        cache_.insert(content, result, rigs);
        if (config_.integrity.enabled()) {
            journal_entries_.push_back(
                {key, sweep_mv, content, result, ledger, std::move(rigs)});
            record_layout_.push_back({true, {}});
        }
        // Restored ledgers fold in journal order -- the exact order the
        // unfaulted run folds them at commit -- so the double-summed
        // downtime converges bitwise across a crash/restart.
        fold_ledger(ledger_stats_, ledger);
        ++restored_;
    }
}

void fleet_service::append_probe_line(journal_entry entry) {
    if (!journal_) {
        return;
    }
    std::string line = format_probe_payload(entry.key, entry.sweep_mv,
                                            entry.content, entry.result,
                                            entry.ledger);
    const bool defended = config_.integrity.enabled();
    if (defended) {
        append_defended_fields(line, entry.rigs, chain_);
    }
    journal_->append(journal_serial_++, line);
    if (defended) {
        record_layout_.push_back({true, {}});
        journal_entries_.push_back(std::move(entry));
    }
}

void fleet_service::append_observatory_line(const std::string& payload) {
    if (!journal_) {
        return; // memory-only observatory: nothing to replay on restart
    }
    if (config_.chaos != nullptr) {
        // The observatory's own kill-point: tear the in-flight record the
        // way the journal seam tears probe lines -- a prefix of the full
        // `task=N <payload>\n` line reaches disk, the newline never does,
        // and the next warm self-heals the tail.
        const std::string full = "task=" + std::to_string(journal_serial_) +
                                 " " + payload + "\n";
        if (const auto tear =
                config_.chaos->on_timeline_append(full.size())) {
            std::ofstream out(config_.journal_path,
                              std::ios::binary | std::ios::app);
            out << std::string_view(full).substr(
                0, static_cast<std::size_t>(tear->keep));
            out.flush();
            config_.chaos->kill(tear->site);
        }
    }
    journal_->append(journal_serial_++, payload);
    if (config_.integrity.enabled()) {
        record_layout_.push_back({false, payload});
    }
}

std::uint64_t fleet_service::sdc_injected() const {
    return config_.integrity.sdc != nullptr
               ? config_.integrity.sdc->injected()
               : 0;
}

std::uint64_t fleet_service::sdc_escaped() const {
    const std::uint64_t injected = sdc_injected();
    return injected > sdc_detected_ ? injected - sdc_detected_ : 0;
}

probe_request fleet_service::request_for(std::size_t cohort,
                                         std::int64_t sweep_mv,
                                         std::uint64_t content) const {
    probe_request request;
    request.cohort = cohorts_[cohort].key;
    request.sweep_mv = sweep_mv;
    request.content = content;
    request.seed = derive_task_seed(spec_.seed, content);
    request.members = cohorts_[cohort].members;
    return request;
}

probe_result fleet_service::execute_replica(const probe_request& request) {
    // Serial re-execution for audits, arbitration and repair.  No rig
    // faults here: the loud failure modes already ran their course when
    // the probe first resolved, and a re-execution's value is what the
    // defense needs -- only the silent corruption stream still applies.
    probe_result value = probe_(request);
    if (config_.integrity.sdc != nullptr) {
        if (const auto decision = config_.integrity.sdc->on_execution()) {
            value = apply_sdc(value, *decision);
        }
    }
    ++replica_executions_;
    return value;
}

void fleet_service::charge_dissent(
    std::uint64_t rig, std::set<std::uint64_t>& newly_blacklisted) {
    if (reputation_.record_dissent(rig)) {
        newly_blacklisted.insert(rig);
    }
}

std::vector<std::uint32_t> fleet_service::assigned_rigs(
    std::uint64_t content) const {
    // The configured quorum's rig assignment, sorted and uniqued.  A pure
    // function of the content (rig_for is round-free), so the journal's
    // provenance field -- and through it the chain hash -- is bitwise
    // identical whether the admission was unanimous, outvoted a dissenting
    // rig, or was repaired after the fact.  Dissent itself is recorded in
    // the reputation ledger and the integrity metrics, never in the
    // journal bytes.
    const int quorum = std::max(1, config_.integrity.quorum);
    std::vector<std::uint32_t> rigs;
    rigs.reserve(static_cast<std::size_t>(quorum));
    for (int r = 0; r < quorum; ++r) {
        rigs.push_back(static_cast<std::uint32_t>(
            rig_for(spec_.seed, content, r, effective_rigs_)));
    }
    std::sort(rigs.begin(), rigs.end());
    rigs.erase(std::unique(rigs.begin(), rigs.end()), rigs.end());
    return rigs;
}

bool fleet_service::arbitrate(const probe_request& request, int replicas,
                              probe_result& truth,
                              std::vector<std::uint32_t>& rigs) {
    GB_EXPECTS(replicas >= 1);
    std::vector<probe_result> votes;
    votes.reserve(static_cast<std::size_t>(replicas));
    for (int r = 0; r < replicas; ++r) {
        votes.push_back(execute_replica(request));
    }
    const quorum_tally tally = tally_votes(votes);
    if (!tally.decided) {
        ++quorum_stalemates_;
        return false;
    }
    truth = votes[tally.winner];
    // Provenance is the configured quorum's content-pure rig assignment
    // (not the agreeing subset), so a repaired record carries exactly the
    // rigs a never-corrupted run would have recorded -- the
    // bitwise-convergence contract.
    rigs = assigned_rigs(request.content);
    return true;
}

void fleet_service::rewrite_journal() {
    if (!journal_) {
        return;
    }
    // Rebuild every line with a recomputed chain, then swap atomically.
    // Not a chaos seam: repair rewrites are driven by the deterministic
    // audit/blacklist schedule, and the stale `.tmp` a crash could leave
    // is removed at construction.  (The fresh campaign_journal restarts
    // the chaos byte counter -- documented in docs/ROBUSTNESS.md.)
    std::string bytes;
    std::uint64_t chain = chain_basis;
    std::size_t serial = 0;
    std::size_t probe_cursor = 0;
    for (const journal_record_ref& ref : record_layout_) {
        std::string line;
        if (ref.probe) {
            // Probe records are re-rendered from the (possibly repaired)
            // retained entries with a recomputed chain; observatory
            // records ride along verbatim, outside the chain.
            const journal_entry& entry = journal_entries_[probe_cursor++];
            line = format_probe_payload(entry.key, entry.sweep_mv,
                                        entry.content, entry.result,
                                        entry.ledger);
            append_defended_fields(line, entry.rigs, chain);
        } else {
            line = ref.payload;
        }
        bytes += "task=" + std::to_string(serial++) + " " + line + "\n";
    }
    GB_ENSURES(probe_cursor == journal_entries_.size());
    if (!publish_file(config_.journal_path, bytes)) {
        return; // keep appending to the old (still-linked) journal
    }
    chain_ = chain;
    journal_serial_ = serial;
    open_journal();
}

campaign_status fleet_service::ledger_status() const {
    campaign_status status;
    status.campaign = config_.campaign;
    status.retries = ledger_stats_.retries;
    status.injected_faults = ledger_stats_.injected_faults();
    status.aborted_rig = ledger_stats_.aborted_rig;
    status.replayed = scheduled_hits_;
    status.rig_downtime_ms = static_cast<std::uint64_t>(
        std::llround(ledger_stats_.rig_downtime_s * 1000.0));
    return status;
}

void fleet_service::publish_live(std::uint64_t pending) const {
    if (config_.state_path.empty()) {
        return;
    }
    campaign_status live = ledger_status();
    live.running = true;
    live.tasks_total = pending;
    live.workers = resolve_worker_count(config_.workers);
    live.worker_task.assign(static_cast<std::size_t>(live.workers), -1);
    publish_status(config_.state_path, live);
}

// --- the campaign loop ---------------------------------------------------

struct fleet_service::probe_task {
    std::size_t cohort = 0;
    probe_request request;
    probe_ledger ledger;
    /// This round's replica results; replica r runs on rig_for(.., r).
    std::vector<probe_result> replicas;
    /// Per-replica silent corruption, drawn at plan time (empty: no plan).
    std::vector<std::optional<sdc_corruption>> poison;
    bool resolved = false;
};

struct fleet_service::campaign_run {
    std::int64_t sweep_mv = 0;
    campaign_outcome outcome;
    std::vector<probe_task> pending; ///< cache misses, sorted cohort order
    /// Scheduled hits sampled for audit, as (cohort, content).
    std::vector<std::pair<std::size_t, std::uint64_t>> audit_candidates;
    std::set<std::uint64_t> newly_blacklisted;
    bool journal_dirty = false; ///< a repair touched a journaled entry
};

campaign_outcome fleet_service::run_campaign(std::int64_t sweep_mv) {
    campaign_run run = plan_campaign(sweep_mv);
    execute_pending(run);
    admit_results(run);
    audit_and_repair(run);
    fan_out();
    seal_epoch(run.outcome);
    return run.outcome;
}

fleet_service::campaign_run fleet_service::plan_campaign(
    std::int64_t sweep_mv) {
    ++epoch_;
    campaign_run run;
    run.sweep_mv = sweep_mv;
    const int quorum = std::max(1, config_.integrity.quorum);
    // Cache consultation, serial, in sorted cohort order -- the hit and
    // miss counters are exact.
    for (std::size_t c = 0; c < cohorts_.size(); ++c) {
        ++cohorts_[c].probes;
        const std::uint64_t content = probe_content(cohorts_[c].key, sweep_mv);
        if (const probe_result* cached = cache_.lookup(content)) {
            serve(c, content, *cached);
            ++run.outcome.cache_hits;
            // A hit on a content already requested this lifetime is a
            // *scheduled* hit -- the only hit notion identical before and
            // after a crash/restart.  A hit on journal-restored content
            // is lifetime-local and stays out of the snapshot counters.
            // Every `audit_stride`-th scheduled hit is re-verified after
            // admission, so a restarted daemon audits the same hits a
            // never-crashed one does.
            if (requested_contents_.contains(content)) {
                ++scheduled_hits_;
                if (config_.integrity.audit_stride > 0 &&
                    scheduled_hits_ % config_.integrity.audit_stride == 0) {
                    run.audit_candidates.emplace_back(c, content);
                }
            } else {
                requested_contents_.insert(content);
            }
            continue;
        }
        probe_task& task = run.pending.emplace_back();
        task.cohort = c;
        task.request = request_for(c, sweep_mv, content);
        // Corruption decisions are drawn HERE, serially in pending
        // (sorted cohort) order, one opportunity per (probe, replica) --
        // never inside engine workers -- so a corrupted campaign stays
        // bitwise invariant under GB_JOBS and the shard count.  A decision
        // persists across re-plan rounds: the Byzantine rig corrupts the
        // replica whenever it finally resolves.
        if (config_.integrity.sdc != nullptr) {
            task.poison.resize(static_cast<std::size_t>(quorum));
            for (auto& decision : task.poison) {
                decision = config_.integrity.sdc->on_execution();
            }
        }
    }
    run.outcome.probes = cohorts_.size();
    probes_requested_ += cohorts_.size();
    return run;
}

void fleet_service::execute_pending(campaign_run& run) {
    // Shard plan + engine runs, in bounded-retry rounds.  Sharding only
    // batches the engine submissions; each probe's seed and fault draws
    // come from its content id, so the results -- and everything
    // downstream -- are invariant under the shard count.  A probe that
    // exhausts its attempts in one round is deferred to the next with an
    // exponential backoff charge; after the last round it degrades its
    // cohort instead of failing the campaign.
    std::vector<probe_task>& pending = run.pending;
    if (pending.empty()) {
        return;
    }
    GB_EXPECTS(static_cast<bool>(probe_));
    publish_live(pending.size());
    execution_options engine_options;
    engine_options.workers = config_.workers;
    engine_options.base_seed = spec_.seed;
    engine_options.campaign = config_.campaign;
    engine_options.trace = config_.trace;
    engine_options.metrics = config_.metrics;
    // No engine status_path: per-shard engine totals depend on the shard
    // count, and the service's own snapshot must not.  No engine fault
    // plan either -- rig faults are simulated inside the task body, keyed
    // by content, for the same reason.
    const execution_engine engine(engine_options);
    const int quorum = std::max(1, config_.integrity.quorum);
    const int shards = std::max(1, config_.shards);
    const int last_round = std::max(0, config_.replan_rounds);

    std::vector<std::size_t> open(pending.size());
    std::iota(open.begin(), open.end(), std::size_t{0});
    for (int round = 0; round <= last_round && !open.empty(); ++round) {
        if (round > 0) {
            // Deferred probes sit out an exponentially growing backoff,
            // charged into their journaled downtime (virtual seconds; no
            // real sleeping).
            const double backoff =
                replan_backoff_s(config_.replan_backoff_base_s, round);
            for (const std::size_t j : open) {
                pending[j].ledger.downtime_s += backoff;
            }
            if (round == 1) {
                run.outcome.replanned = open.size();
            }
            if (mh_.registered) {
                config_.metrics->add(0, mh_.replan_rounds, 1);
            }
        }
        const schedule_result plan = list_schedule(
            std::vector<std::uint64_t>(open.size(), probe_cost_ticks),
            shards);
        std::vector<std::vector<std::size_t>> batches(
            static_cast<std::size_t>(plan.workers));
        for (std::size_t k = 0; k < open.size(); ++k) {
            batches[static_cast<std::size_t>(plan.assignment[k].worker)]
                .push_back(open[k]);
        }
        for (const std::vector<std::size_t>& batch : batches) {
            if (batch.empty()) {
                continue;
            }
            const auto batch_downtime = [&] {
                double downtime = 0.0;
                for (const std::size_t j : batch) {
                    downtime += pending[j].ledger.downtime_s;
                }
                return downtime;
            };
            const double downtime_before = batch_downtime();
            const std::size_t first = trace_index_base_;
            const execution_stats stats = engine.run(
                batch.size(),
                [&](const task_context& context) {
                    probe_task& task = pending[batch[context.index - first]];
                    // A probe resolves only when EVERY replica does -- one
                    // exhausted rig defers the whole vote to the next
                    // round.
                    task.replicas.assign(static_cast<std::size_t>(quorum),
                                         {});
                    for (int r = 0; r < quorum; ++r) {
                        if (!run_replica(task, round, r)) {
                            ++task.ledger.exhausted_rounds;
                            return -1;
                        }
                    }
                    task.resolved = true;
                    return task.replicas.front().bucket;
                },
                first);
            trace_index_base_ += batch.size();
            run.outcome.stats.merge(stats);
            // Shard watchdog: virtual rig downtime this batch accumulated
            // beyond the deadline.  Observability only -- batch
            // composition depends on the shard count, so this never
            // reaches the snapshot.
            if (config_.shard_deadline_s > 0.0 &&
                batch_downtime() - downtime_before >
                    config_.shard_deadline_s) {
                ++shard_watchdog_trips_;
                if (mh_.registered) {
                    config_.metrics->add(0, mh_.shard_watchdog_trips, 1);
                }
            }
        }
        std::erase_if(open, [&](std::size_t j) {
            return pending[j].resolved;
        });
    }
}

bool fleet_service::run_replica(probe_task& task, int round,
                                int replica) const {
    // Replica 0's fault draws are keyed exactly as a quorum=1 plan's, so
    // the defense-off schedule is byte-identical; redundant replicas
    // re-key into their own fault streams.
    const std::uint64_t round_key = replan_key(task.request.content, round);
    const std::uint64_t fault_key =
        replica == 0 ? round_key
                     : derive_task_seed(round_key,
                                        replica_fault_domain +
                                            static_cast<std::uint64_t>(
                                                replica));
    const auto r = static_cast<std::size_t>(replica);
    probe_ledger& ledger = task.ledger;
    const int attempts = std::max(1, config_.retry_budget + 1);
    for (int attempt = 0; attempt < attempts; ++attempt) {
        const rig_fault fault = config_.faults == nullptr
                                    ? rig_fault::none
                                    : config_.faults->draw(fault_key, attempt);
        switch (fault) {
        case rig_fault::none:
            task.replicas[r] = probe_(task.request);
            if (!task.poison.empty() && task.poison[r]) {
                task.replicas[r] = apply_sdc(task.replicas[r], *task.poison[r]);
            }
            return true;
        case rig_fault::hang_until_watchdog:
            ++ledger.watchdog_timeouts;
            break;
        case rig_fault::board_crash:
            ++ledger.board_crashes;
            break;
        case rig_fault::power_switch_failure:
            ++ledger.power_switch_failures;
            break;
        }
        ledger.downtime_s += config_.faults->downtime_for(fault);
        if (attempt + 1 < attempts) {
            ++ledger.retries;
        }
    }
    return false;
}

void fleet_service::admit_results(campaign_run& run) {
    // Commit serially in sorted cohort order: cache inserts, the
    // deterministic probe journal, and quarantine for probes that never
    // resolved.
    const bool integrity_on = config_.integrity.enabled();
    for (const probe_task& task : run.pending) {
        if (!task.resolved) {
            degrade(run, task);
            continue;
        }
        const std::uint64_t content = task.request.content;
        probe_result result = task.replicas.front();
        std::vector<std::uint32_t> rigs;
        if (integrity_on) {
            // Majority-of-N admission.  Replica r executed on the
            // content-pure rig `rig_for(seed, content, r)`; the winning
            // value is admitted with the assigned quorum's rigs as
            // provenance, dissenters are charged in the reputation
            // ledger, and a stalemate (possible only for even quorums or
            // multi-rig corruption) degrades the cohort conservatively --
            // with no majority, nobody can be blamed and nothing can be
            // admitted.
            const quorum_tally tally = tally_votes(task.replicas);
            replica_executions_ += task.replicas.size();
            if (!tally.decided) {
                ++quorum_stalemates_;
                ++sdc_detected_;
                degrade(run, task);
                continue;
            }
            for (const std::size_t d : tally.dissenters) {
                ++sdc_outvoted_;
                ++sdc_detected_;
                charge_dissent(rig_for(spec_.seed, content,
                                       static_cast<int>(d), effective_rigs_),
                               run.newly_blacklisted);
            }
            rigs = assigned_rigs(content);
            result = task.replicas[tally.winner];
        }
        cache_.insert(content, result, rigs);
        requested_contents_.insert(content);
        serve(task.cohort, content, result);
        fold_ledger(ledger_stats_, task.ledger);
        fold_ledger(run.outcome.stats, task.ledger);
        append_probe_line({task.request.cohort, run.sweep_mv, content, result,
                           task.ledger, std::move(rigs)});
        ++run.outcome.executed;
    }
}

void fleet_service::audit_and_repair(campaign_run& run) {
    // Integrity sweeps, still serial: re-verify the audit sample of this
    // campaign's scheduled hits, then re-execute whatever a freshly
    // blacklisted rig sole-sourced.  Both run before the node fan-out so
    // a repaired value reaches this campaign's bins and snapshot.
    if (!config_.integrity.enabled()) {
        return;
    }
    const int quorum = std::max(1, config_.integrity.quorum);
    for (const auto& [cohort, content] : run.audit_candidates) {
        ++audits_;
        const probe_result* cached = cache_.peek(content);
        if (cached == nullptr) {
            continue; // unreachable: an audited hit was just served
        }
        const probe_request request =
            request_for(cohort, run.sweep_mv, content);
        if (same_result(execute_replica(request), *cached)) {
            continue;
        }
        // The audit replica and the cache disagree; neither is trusted.
        // Arbitrate with a fresh odd quorum on the standard assignment.
        ++audit_mismatches_;
        ++sdc_detected_;
        probe_result truth;
        std::vector<std::uint32_t> rigs;
        if (!arbitrate(request, std::max(3, quorum | 1), truth, rigs)) {
            continue; // stalemate: leave the cache alone, counted above
        }
        if (same_result(truth, *cached)) {
            // The cache was right; the audit replica itself lied.
            charge_dissent(
                rig_for(spec_.seed, content, quorum, effective_rigs_),
                run.newly_blacklisted);
            continue;
        }
        // The cache was poisoned: repair it, and charge every rig that
        // vouched for the bad value.
        ++sdc_corrected_;
        const std::vector<std::uint32_t> charged =
            *cache_.provenance(content);
        repair_content(run, cohort, content, truth, rigs);
        for (const std::uint32_t rig : charged) {
            charge_dissent(rig, run.newly_blacklisted);
        }
    }
    if (!run.newly_blacklisted.empty()) {
        for (journal_entry& entry : journal_entries_) {
            const auto blacklisted = [&](std::uint32_t rig) {
                return reputation_.blacklisted(rig);
            };
            if (entry.rigs.empty() ||
                !std::all_of(entry.rigs.begin(), entry.rigs.end(),
                             blacklisted)) {
                continue;
            }
            // Every voucher of this record is now blacklisted: nothing
            // about it is trustworthy, so re-execute the full quorum.
            const std::size_t cohort = cohort_index(entry.key);
            probe_result truth;
            std::vector<std::uint32_t> rigs;
            if (!arbitrate(request_for(cohort, entry.sweep_mv, entry.content),
                           quorum, truth, rigs)) {
                continue;
            }
            const bool value_changed = !same_result(truth, entry.result);
            if (value_changed) {
                ++sdc_detected_;
                ++sdc_corrected_;
            }
            if (value_changed || rigs != entry.rigs) {
                repair_content(run, cohort, entry.content, truth, rigs);
            }
        }
    }
    if (run.journal_dirty) {
        rewrite_journal();
    }
}

void fleet_service::fan_out() {
    // Fan cohort results out to the whole fleet in node-id order (a fixed
    // floating-point accumulation order, like every other sum).  Degraded
    // cohorts serve the conservative answer: their nodes bin at the
    // nominal cap -- no exploitation without characterization -- and
    // contribute no measured power.
    bins_.clear();
    double nominal_w = 0.0;
    double binned_w = 0.0;
    const std::uint64_t nodes = spec_.node_count();
    for (std::uint64_t id = 0; id < nodes; ++id) {
        const fleet_node node = make_node(spec_, id);
        const cohort_state& cohort = cohorts_[cohort_of_.at(node.cohort)];
        GB_EXPECTS(cohort.probed || cohort.degraded);
        if (cohort.degraded) {
            const auto cap = static_cast<std::int64_t>(spec_.bin_cap_mv);
            ++bins_[cap];
            if (mh_.registered) {
                config_.metrics->observe(0, mh_.bin_mv,
                                         static_cast<std::uint64_t>(cap));
            }
            continue;
        }
        const double bin = bin_voltage_mv(
            spec_, served_vmin_mv(cohort) + node_jitter_mv(spec_, node));
        ++bins_[std::llround(bin)];
        nominal_w += cohort.last.power_nominal_w;
        binned_w += cohort.last.power_point_w;
        if (mh_.registered) {
            config_.metrics->observe(
                0, mh_.bin_mv, static_cast<std::uint64_t>(std::llround(bin)));
        }
    }
    power_nominal_w_ = nominal_w;
    power_binned_w_ = binned_w;
}

void fleet_service::seal_epoch(const campaign_outcome& outcome) {
    if (mh_.registered) {
        config_.metrics->add(0, mh_.nodes, spec_.node_count());
        config_.metrics->add(0, mh_.probes_executed, outcome.executed);
        config_.metrics->add(0, mh_.cache_hits, outcome.cache_hits);
        config_.metrics->set(0, mh_.power_nominal_w, epoch_,
                             power_nominal_w_);
        config_.metrics->set(0, mh_.power_binned_w, epoch_,
                             power_binned_w_);
        config_.metrics->set(0, mh_.degraded_cohorts, epoch_,
                             static_cast<double>(degraded_cohorts()));
        if (mh_.integrity) {
            const auto set = [&](const gauge_handle& handle,
                                 std::uint64_t value) {
                config_.metrics->set(0, handle, epoch_,
                                     static_cast<double>(value));
            };
            set(mh_.sdc_injected, sdc_injected());
            set(mh_.sdc_detected, sdc_detected_);
            set(mh_.sdc_outvoted, sdc_outvoted_);
            set(mh_.sdc_corrected, sdc_corrected_);
            set(mh_.sdc_escaped, sdc_escaped());
            set(mh_.audits, audits_);
            set(mh_.audit_mismatches, audit_mismatches_);
            set(mh_.dissents, reputation_.dissents());
            set(mh_.blacklisted_rigs, reputation_.blacklisted_count());
            set(mh_.quorum_stalemates, quorum_stalemates_);
            set(mh_.repaired_entries, repaired_entries_);
            set(mh_.replica_executions, replica_executions_);
        }
    }
    if (config_.timeline != nullptr) {
        observe_epoch();
    }
    publish_state();
}

void fleet_service::serve(std::size_t cohort, std::uint64_t content,
                          const probe_result& result) {
    cohort_state& state = cohorts_[cohort];
    state.last = result;
    state.probed = true;
    state.degraded = false;
    served_content_[cohort] = content;
}

void fleet_service::degrade(campaign_run& run, const probe_task& task) {
    // Degraded probes are not cached and not journaled, so the next
    // request for the same content retries them; their ledgers stay out
    // of the snapshot stats (which lifetime ran them would otherwise leak
    // into the fold order) but reach the outcome.
    cohort_state& state = cohorts_[task.cohort];
    state.probed = false;
    state.degraded = true;
    served_content_[task.cohort] = 0;
    ++run.outcome.degraded;
    fold_ledger(run.outcome.stats, task.ledger);
}

void fleet_service::repair_content(campaign_run& run, std::size_t cohort,
                                   std::uint64_t content,
                                   const probe_result& truth,
                                   const std::vector<std::uint32_t>& rigs) {
    cache_.repair(content, truth, rigs);
    if (served_content_[cohort] == content) {
        serve(cohort, content, truth);
    }
    for (journal_entry& entry : journal_entries_) {
        if (entry.content == content) {
            entry.result = truth;
            entry.rigs = rigs;
            ++repaired_entries_;
            run.journal_dirty = true;
        }
    }
}

double fleet_service::served_vmin_mv(const cohort_state& cohort) const {
    // Synthetic aging widens the *served* requirement only -- the
    // cached/journaled characterization stays drift-free, so the
    // timeline's drift-slope rules watch the same signal the binning
    // serves.  (Guarded so the default 0 keeps every byte bit-identical.)
    double vmin = cohort.last.requirement_mv;
    if (config_.aging_mv_per_epoch != 0.0) {
        vmin += config_.aging_mv_per_epoch * static_cast<double>(epoch_ - 1);
    }
    return vmin;
}

std::vector<std::pair<std::string, double>>
fleet_service::observatory_samples() const {
    // The epoch's fixed-order sample list.  Every value here already
    // appears in (or derives from) the content-pure state snapshot, so
    // the block is crash-invariant by construction; per-batch engine
    // observables (shard watchdog trips, physical cache hits) must stay
    // out for the same reason they stay out of the snapshot.
    std::vector<std::pair<std::string, double>> samples;
    samples.reserve(cohorts_.size() + 4);
    for (const cohort_state& cohort : cohorts_) {
        if (!cohort.probed) {
            continue;
        }
        std::string series = "vmin.";
        series += to_string(cohort.key.corner);
        series += '.' + std::to_string(cohort.key.workload_class);
        series += '.' + std::to_string(cohort.key.operating_point);
        series += '.' + std::to_string(cohort.key.variant);
        samples.emplace_back(std::move(series), served_vmin_mv(cohort));
    }
    samples.emplace_back("fleet.cache_hit_rate",
                         probes_requested_ > 0
                             ? static_cast<double>(scheduled_hits_) /
                                   static_cast<double>(probes_requested_)
                             : 0.0);
    samples.emplace_back("fleet.degraded_cohorts",
                         static_cast<double>(degraded_cohorts()));
    samples.emplace_back("fleet.power_binned_w", power_binned_w_);
    samples.emplace_back("fleet.power_nominal_w", power_nominal_w_);
    return samples;
}

void fleet_service::observe_epoch() {
    timeline_recorder& timeline = *config_.timeline;
    if (sealed_epochs_.contains(epoch_)) {
        // A previous lifetime journaled and sealed this epoch's whole
        // block; the warm replay already restored it.
        publish_timeline();
        return;
    }
    const auto samples = observatory_samples();
    const auto partial = warm_tline_counts_.find(epoch_);
    const std::uint64_t already =
        partial != warm_tline_counts_.end() ? partial->second : 0;
    // A partial block's samples are already in the recorder (warm replay)
    // at the tick the crashed lifetime drew; resume at that tick so the
    // suffix -- and everything downstream -- lands on the same bytes.
    const std::uint64_t tick = already > 0 ? warm_epoch_ticks_.at(epoch_)
                                           : timeline.advance();
    for (std::size_t s = static_cast<std::size_t>(already);
         s < samples.size(); ++s) {
        const auto& [series, value] = samples[s];
        timeline.append(series, tick, value);
        append_observatory_line(
            "tline epoch=" + std::to_string(epoch_) + " series=" + series +
            " tick=" + std::to_string(tick) +
            " value=" + wire::format_double(value));
    }
    // Transitions already journaled by a crashed lifetime were replayed
    // into the engine, so re-evaluating emits exactly the not-yet-
    // journaled suffix (in the same rule-order x series-order the golden
    // run journals).
    std::uint64_t events =
        warm_alert_counts_.contains(epoch_) ? warm_alert_counts_[epoch_] : 0;
    if (alerts_ != nullptr) {
        for (const alert_event& event :
             alerts_->evaluate(timeline.snapshot(), tick)) {
            append_observatory_line(
                "alert epoch=" + std::to_string(epoch_) +
                " rule=" + event.rule + " series=" + event.series +
                " state=" + (event.firing ? "firing" : "resolved") +
                " tick=" + std::to_string(event.tick) +
                " value=" + wire::format_double(event.value));
            ++events;
        }
    }
    append_observatory_line("tseal epoch=" + std::to_string(epoch_) +
                            " samples=" + std::to_string(samples.size()) +
                            " events=" + std::to_string(events));
    sealed_epochs_.insert(epoch_);
    publish_timeline();
}

std::string fleet_service::state_snapshot() const {
    // The snapshot *is* a final `--status` document -- load_status
    // ignores the extra "fleet" key -- so existing tooling (`gbreport
    // status`) reads fleet state with no changes.  Every field is
    // *content-pure*: a function of which probes the fleet's request
    // stream resolved, never of which service lifetime executed them, so
    // a crashed-and-recovered daemon's snapshot is bitwise identical to
    // an unfaulted one's (the recovery_check invariant).  Lifetime-local
    // facts -- journal restores, healed bytes, physical cache hits --
    // live in the metrics registry and accessors instead.
    campaign_status status = ledger_status();
    status.tasks_total = probes_requested_;
    status.tasks_done = probes_requested_;
    std::string line = write_status_json(status);
    const std::size_t close = line.find_last_of('}');
    GB_ENSURES(close != std::string::npos);
    line.erase(close);

    std::ostringstream fleet;
    fleet << ",\"fleet\":{\"epoch\":" << epoch_
          << ",\"nodes\":" << spec_.node_count()
          << ",\"cohorts\":" << cohorts_.size()
          << ",\"probes_executed\":" << requested_contents_.size()
          << ",\"cache_hits\":" << scheduled_hits_
          << ",\"cache_entries\":" << cache_.size()
          << ",\"power_nominal_w\":" << wire::format_double(power_nominal_w_)
          << ",\"power_binned_w\":" << wire::format_double(power_binned_w_)
          << ",\"supervised_cohorts\":" << supervised_.size()
          << ",\"supervised_epochs\":" << supervised_epochs_;
    fleet << ",\"bins\":[";
    bool first = true;
    for (const auto& [voltage, count] : bins_) {
        fleet << (first ? "" : ",") << '[' << voltage << ',' << count
              << ']';
        first = false;
    }
    fleet << ']';
    // Quarantine roster: which cohorts are being served degraded (capped
    // like cohorts_top; the counts always carry the truth).
    std::uint64_t degraded_count = 0;
    std::uint64_t degraded_nodes = 0;
    for (const cohort_state& cohort : cohorts_) {
        if (cohort.degraded) {
            ++degraded_count;
            degraded_nodes += cohort.members;
        }
    }
    constexpr std::size_t max_detail = 64;
    fleet << ",\"degraded\":{\"cohorts\":" << degraded_count
          << ",\"nodes\":" << degraded_nodes << ",\"quarantined\":[";
    std::size_t listed = 0;
    for (const cohort_state& cohort : cohorts_) {
        if (!cohort.degraded || listed == max_detail) {
            continue;
        }
        fleet << (listed == 0 ? "" : ",");
        write_cohort_fields(fleet, cohort);
        fleet << '}';
        ++listed;
    }
    fleet << "]}";
    // Cohort detail is capped so variant-unique mega-fleets keep the
    // endpoint small; `cohorts` above always carries the true count.
    fleet << ",\"cohorts_top\":[";
    const std::size_t detail = std::min(cohorts_.size(), max_detail);
    for (std::size_t c = 0; c < detail; ++c) {
        const cohort_state& cohort = cohorts_[c];
        fleet << (c == 0 ? "" : ",");
        write_cohort_fields(fleet, cohort);
        fleet << ",\"probes\":" << cohort.probes << ",\"req_mv\":"
              << wire::format_double(cohort.probed ? cohort.last.requirement_mv
                                             : 0.0)
              << ",\"bucket\":" << (cohort.probed ? cohort.last.bucket : -1)
              << '}';
    }
    fleet << ']';
    // Observatory section, only when the timeline is configured (a
    // disabled observatory keeps the snapshot bytes unchanged; `gbreport
    // status` renders a stable placeholder for its absence).  Every field
    // replays from the journal, so it is crash-invariant like the rest.
    if (config_.timeline != nullptr) {
        fleet << ",\"timeline\":{\"series\":"
              << config_.timeline->series_count()
              << ",\"samples\":" << config_.timeline->sample_count()
              << ",\"rules\":" << alerts_->rules().size() << ",\"firing\":[";
        bool first_label = true;
        for (const std::string& label : alerts_->firing()) {
            fleet << (first_label ? "" : ",") << '"'
                  << wire::json_escape(label) << '"';
            first_label = false;
        }
        fleet << "],\"events\":" << alerts_->events().size() << '}';
    }
    fleet << '}';
    line += fleet.str();
    line += "}\n";
    return line;
}

bool fleet_service::publish_state() const {
    if (config_.state_path.empty()) {
        return false;
    }
    return publish_file(config_.state_path, state_snapshot(),
                         config_.chaos);
}

std::string fleet_service::timeline_snapshot() const {
    if (config_.timeline == nullptr) {
        return {};
    }
    std::ostringstream out;
    write_timeline_json(out, *config_.timeline, alerts_.get());
    return out.str();
}

bool fleet_service::publish_timeline() const {
    if (config_.timeline == nullptr || config_.timeline_path.empty()) {
        return false;
    }
    return publish_file(config_.timeline_path, timeline_snapshot(),
                         config_.chaos);
}

operating_point_supervisor& fleet_service::supervisor_for(
    const cohort_key& key, const supervisor_config& config,
    voltage_governor* governor) {
    auto it = supervised_.find(key);
    if (it == supervised_.end()) {
        supervised_cohort cohort;
        cohort.supervisor =
            std::make_unique<operating_point_supervisor>(config, governor);
        cohort.supervisor->set_trace(config_.trace, config_.metrics);
        it = supervised_.emplace(key, std::move(cohort)).first;
    }
    return *it->second.supervisor;
}

supervised_epoch fleet_service::run_epoch(
    const cohort_key& key, const epoch_request& request,
    const std::function<epoch_result(const epoch_plan&)>& execute) {
    const auto it = supervised_.find(key);
    GB_EXPECTS(it != supervised_.end());
    supervised_epoch epoch =
        run_supervised_epoch(*it->second.supervisor, request, execute);
    ++it->second.epochs;
    ++supervised_epochs_;
    return epoch;
}

} // namespace gb::fleet
