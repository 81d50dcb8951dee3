// Content-addressed probe-result cache.
//
// A characterization probe is expensive (a full Vmin descent on real
// hardware, a chip-model analysis here) and its result depends only on
// its content id (fleet.hpp's probe_content).  The cache maps content id
// -> result so each distinct experiment executes once per service
// lifetime and fans out to every cohort, campaign and epoch that asks
// again -- the fleet-scale analogue of the per-framework profile cache in
// harness/framework.hpp.
//
// Hit/miss counters are exact and deterministic: lookups happen at serial
// points of the campaign loop (between engine runs), in sorted cohort
// order, so tests assert equality, not bounds.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace gb::fleet {

/// One probe's outcome: the revealed safe supply requirement (guard
/// included) and the power picture that prices exploiting it.
struct probe_result {
    double requirement_mv = 0.0; ///< revealed Vmin + guard
    double power_nominal_w = 0.0; ///< at the manufacturer point
    double power_point_w = 0.0;   ///< at the revealed (binned) point
    /// Outcome bucket for the engine histogram / journal (e.g. the probed
    /// corner); negative means unbucketed.
    int bucket = -1;
};

class probe_cache {
public:
    /// Result for a content id, or nullptr.  Counts exactly one hit or
    /// one miss.  The pointer stays valid until the cache is destroyed
    /// (std::map nodes are stable).
    [[nodiscard]] const probe_result* lookup(std::uint64_t content);

    /// Peek without touching the counters (state rendering, tests).
    [[nodiscard]] const probe_result* peek(std::uint64_t content) const;

    /// Insert or overwrite (re-probing the same content is idempotent by
    /// construction, so overwrite == insert), with the rigs that vouched
    /// for the value (the configured quorum's assigned rigs, sorted; empty
    /// with the integrity defenses off).  Provenance drives blacklist
    /// repair: entries sourced only from blacklisted rigs re-execute.
    void insert(std::uint64_t content, const probe_result& result,
                std::vector<std::uint32_t> rigs = {});

    /// The vouching rigs of an entry (empty when unknown / integrity off).
    [[nodiscard]] const std::vector<std::uint32_t>* provenance(
        std::uint64_t content) const;

    /// Overwrite a poisoned entry with the arbitrated truth and its new
    /// provenance.  Counts one repair.
    void repair(std::uint64_t content, const probe_result& result,
                std::vector<std::uint32_t> rigs);

    [[nodiscard]] std::uint64_t hits() const { return hits_; }
    [[nodiscard]] std::uint64_t misses() const { return misses_; }
    [[nodiscard]] std::uint64_t repaired() const { return repaired_; }
    [[nodiscard]] std::uint64_t size() const { return entries_.size(); }

private:
    struct entry {
        probe_result result;
        std::vector<std::uint32_t> rigs; ///< sorted vouching rigs
    };
    std::map<std::uint64_t, entry> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t repaired_ = 0;
};

} // namespace gb::fleet
