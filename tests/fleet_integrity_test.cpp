// SDC-defense acceptance tests: the Byzantine-rig PR's core criteria.
//
// A seeded sdc_plan silently falsifies one probe replica's values; the
// integrity subsystem (quorum-voted cache admission, hash-chained journal,
// rig reputation with blacklist repair, audit sampling of cache hits) must
// catch and correct every injection.  The strongest statements are
// bitwise: a defended run under attack converges to the exact journal and
// snapshot bytes of the same run without the attack, at any shard or
// worker count -- and with the defenses off, the pipeline's bytes are
// untouched by this PR (no rigs/chain fields at all).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet.hpp"
#include "fleet/probe_cache.hpp"
#include "fleet/recovery.hpp"
#include "fleet/service.hpp"
#include "harness/fault_injection.hpp"
#include "harness/integrity/integrity.hpp"
#include "harness/timeseries/alerts.hpp"
#include "harness/timeseries/timeseries.hpp"

namespace gb::fleet {
namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void write_raw(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

std::vector<std::string> split_lines(const std::string& bytes) {
    std::vector<std::string> lines;
    std::istringstream in(bytes);
    std::string line;
    while (std::getline(in, line)) {
        lines.push_back(line);
    }
    return lines;
}

probe_result fake_probe(const probe_request& request) {
    probe_result result;
    result.requirement_mv = 850.0 +
                            static_cast<double>(request.content % 97) +
                            static_cast<double>(request.sweep_mv) / 2.0;
    result.power_nominal_w = 30.0 + static_cast<double>(request.seed % 13);
    result.power_point_w = result.power_nominal_w * 0.8;
    result.bucket = static_cast<int>(request.cohort.corner);
    return result;
}

/// 36 cohorts (3 corners x 3 classes x 4 points), 36 probes per sweep.
fleet_spec small_fleet() {
    fleet_spec spec;
    spec.nodes = 10000;
    return spec;
}

struct run_result {
    std::string journal;
    std::string snapshot;
    std::string timeline; ///< empty unless run_options::timeline
    std::uint64_t injected = 0;
    std::uint64_t detected = 0;
    std::uint64_t outvoted = 0;
    std::uint64_t corrected = 0;
    std::uint64_t escaped = 0;
    std::uint64_t audits = 0;
    std::uint64_t audit_mismatches = 0;
    std::uint64_t repaired = 0;
    std::uint64_t stalemates = 0;
    std::uint64_t blacklisted = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t dissents = 0;
    std::uint64_t cache_repaired = 0;
};

struct run_options {
    std::vector<std::int64_t> sweeps = {0, 0};
    int quorum = 1;
    std::uint64_t audit_stride = 0;
    const char* sdc_spec = nullptr; ///< nullptr: no attack
    std::uint64_t blacklist_threshold = 2;
    int shards = 1;
    int workers = 1;
    bool fresh_journal = true;
    /// Observatory on: a timeline recorder plus one threshold rule, so the
    /// journal also carries tline/alert/tseal records.
    bool timeline = false;
};

run_result run_service(const std::string& journal_path,
                       const run_options& options) {
    if (options.fresh_journal) {
        std::remove(journal_path.c_str());
    }
    const fleet_spec spec = small_fleet();
    std::optional<sdc_plan> sdc;
    if (options.sdc_spec != nullptr) {
        sdc_plan_config sdc_config;
        sdc_config.seed = spec.seed;
        std::string error;
        EXPECT_TRUE(parse_sdc_spec(options.sdc_spec, sdc_config, error))
            << error;
        sdc.emplace(std::move(sdc_config));
    }
    fleet_service_config config;
    config.journal_path = journal_path;
    config.shards = options.shards;
    config.workers = options.workers;
    config.integrity.quorum = options.quorum;
    config.integrity.sdc = sdc ? &*sdc : nullptr;
    config.integrity.audit_stride = options.audit_stride;
    config.integrity.blacklist_threshold = options.blacklist_threshold;
    timeline_recorder recorder;
    if (options.timeline) {
        std::string error;
        const auto rules =
            parse_alert_rules("alert hot vmin.* above 900\n", "rules", error);
        EXPECT_TRUE(rules.has_value()) << error;
        config.timeline = &recorder;
        config.alerts = rules.value_or(std::vector<alert_rule>{});
    }
    fleet_service service(spec, config, fake_probe);
    for (const std::int64_t sweep : options.sweeps) {
        (void)service.run_campaign(sweep);
    }
    run_result result;
    result.journal = slurp(journal_path);
    result.snapshot = service.state_snapshot();
    result.timeline = service.timeline_snapshot();
    result.injected = service.sdc_injected();
    result.detected = service.sdc_detected();
    result.outvoted = service.sdc_outvoted();
    result.corrected = service.sdc_corrected();
    result.escaped = service.sdc_escaped();
    result.audits = service.audits();
    result.audit_mismatches = service.audit_mismatches();
    result.repaired = service.repaired_entries();
    result.stalemates = service.quorum_stalemates();
    result.blacklisted = service.reputation().blacklisted_count();
    result.cache_hits = service.cache().hits();
    result.dissents = service.reputation().dissents();
    result.cache_repaired = service.cache().repaired();
    return result;
}

// --- probe_cache provenance and counters --------------------------------

TEST(ProbeCacheTest, CountersAreExactAndProvenanceRoundTrips) {
    probe_cache cache;
    EXPECT_EQ(cache.lookup(42), nullptr);
    EXPECT_EQ(cache.misses(), 1u);
    probe_result value;
    value.requirement_mv = 900.0;
    cache.insert(42, value, {3, 5});
    ASSERT_NE(cache.lookup(42), nullptr);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    ASSERT_NE(cache.provenance(42), nullptr);
    EXPECT_EQ(*cache.provenance(42), (std::vector<std::uint32_t>{3, 5}));
    // peek never counts.
    ASSERT_NE(cache.peek(42), nullptr);
    EXPECT_EQ(cache.hits(), 1u);
    // Legacy insert leaves provenance empty, never null for present keys.
    cache.insert(7, value);
    ASSERT_NE(cache.provenance(7), nullptr);
    EXPECT_TRUE(cache.provenance(7)->empty());
    EXPECT_EQ(cache.provenance(999), nullptr);

    probe_result truth = value;
    truth.requirement_mv = 901.0;
    cache.repair(42, truth, {6});
    EXPECT_EQ(cache.repaired(), 1u);
    EXPECT_DOUBLE_EQ(cache.peek(42)->requirement_mv, 901.0);
    EXPECT_EQ(*cache.provenance(42), (std::vector<std::uint32_t>{6}));
    EXPECT_EQ(cache.size(), 2u);
}

// --- quorum admission ---------------------------------------------------

TEST(FleetIntegrityTest, QuorumOutvotesEverySingleRigCorruption) {
    // Acceptance sweep: inject one corruption at *every* replica
    // opportunity of the campaign (36 probes x 3 replicas), across all
    // four corruption sites.  A quorum of 3 must outvote 100% of them and
    // reproduce the clean run's journal and snapshot bitwise.
    const std::string journal_path = temp_path("integrity_outvote.journal");
    run_options clean_options;
    clean_options.sweeps = {0};
    clean_options.quorum = 3;
    const run_result clean = run_service(journal_path, clean_options);
    ASSERT_FALSE(clean.journal.empty());
    EXPECT_EQ(clean.detected, 0u);

    const char* const sites[] = {"vmin_flip", "weak_drop", "weak_phantom",
                                 "power_scale"};
    for (std::uint64_t opportunity = 1; opportunity <= 108; ++opportunity) {
        const std::string spec = std::string(sites[opportunity % 4]) + "@" +
                                 std::to_string(opportunity);
        run_options attack = clean_options;
        attack.sdc_spec = spec.c_str();
        const run_result attacked = run_service(journal_path, attack);
        ASSERT_EQ(attacked.injected, 1u) << spec;
        EXPECT_EQ(attacked.outvoted, 1u) << spec;
        EXPECT_EQ(attacked.detected, 1u) << spec;
        EXPECT_EQ(attacked.escaped, 0u) << spec;
        EXPECT_EQ(attacked.stalemates, 0u) << spec;
        ASSERT_EQ(attacked.journal, clean.journal) << spec;
        ASSERT_EQ(attacked.snapshot, clean.snapshot) << spec;
    }
}

TEST(FleetIntegrityTest, UndefendedCorruptionEscapesAndIsCounted) {
    // Negative control: with a lone replica and no audit, the same
    // corruption poisons the pipeline -- and the accounting says so.
    const std::string journal_path = temp_path("integrity_escape.journal");
    run_options clean_options;
    clean_options.sweeps = {0};
    clean_options.quorum = 1;
    clean_options.audit_stride = 0;
    const run_result clean = run_service(journal_path, clean_options);
    run_options attack = clean_options;
    attack.sdc_spec = "vmin_flip@5";
    const run_result attacked = run_service(journal_path, attack);
    EXPECT_EQ(attacked.injected, 1u);
    EXPECT_EQ(attacked.detected, 0u);
    EXPECT_EQ(attacked.escaped, 1u);
    EXPECT_NE(attacked.journal, clean.journal);
    EXPECT_NE(attacked.snapshot, clean.snapshot);
}

// --- audit sampling and repair ------------------------------------------

TEST(FleetIntegrityTest, AuditCatchesAndRepairsAPoisonedCacheBitwise) {
    // Quorum 1 admits the poison; the second campaign's scheduled hits
    // are audited (stride 1 = every hit), the mismatch is arbitrated and
    // the cache, cohort state and journal are repaired in place --
    // converging bitwise to the never-poisoned run.
    const std::string journal_path = temp_path("integrity_audit.journal");
    run_options clean_options;
    clean_options.sweeps = {0, 0};
    clean_options.quorum = 1;
    clean_options.audit_stride = 1;
    const run_result clean = run_service(journal_path, clean_options);
    EXPECT_EQ(clean.audits, 36u);
    EXPECT_EQ(clean.audit_mismatches, 0u);
    EXPECT_EQ(clean.cache_hits, 36u);

    run_options attack = clean_options;
    attack.sdc_spec = "vmin_flip@5";
    const run_result attacked = run_service(journal_path, attack);
    EXPECT_EQ(attacked.injected, 1u);
    EXPECT_EQ(attacked.audit_mismatches, 1u);
    EXPECT_EQ(attacked.detected, 1u);
    EXPECT_EQ(attacked.corrected, 1u);
    EXPECT_EQ(attacked.escaped, 0u);
    EXPECT_GE(attacked.repaired, 1u);
    EXPECT_EQ(attacked.cache_repaired, 1u);
    EXPECT_EQ(attacked.dissents, 1u);
    EXPECT_EQ(attacked.journal, clean.journal);
    EXPECT_EQ(attacked.snapshot, clean.snapshot);
}

TEST(FleetIntegrityTest, EveryCorruptionSiteIsAuditRepairable) {
    const std::string journal_path = temp_path("integrity_sites.journal");
    run_options clean_options;
    clean_options.sweeps = {0, 0};
    clean_options.quorum = 1;
    clean_options.audit_stride = 1;
    const run_result clean = run_service(journal_path, clean_options);
    for (const char* spec : {"weak_drop@3", "weak_phantom@17/2",
                             "power_scale@30"}) {
        run_options attack = clean_options;
        attack.sdc_spec = spec;
        const run_result attacked = run_service(journal_path, attack);
        ASSERT_EQ(attacked.injected, 1u) << spec;
        EXPECT_EQ(attacked.corrected, 1u) << spec;
        EXPECT_EQ(attacked.escaped, 0u) << spec;
        EXPECT_EQ(attacked.journal, clean.journal) << spec;
        EXPECT_EQ(attacked.snapshot, clean.snapshot) << spec;
    }
}

// --- rig reputation and blacklist repair --------------------------------

TEST(FleetIntegrityTest, BlacklistedRigsSoleSourcedHistoryIsReExecuted) {
    // Blacklist threshold 1: the first audit-caught lie quarantines the
    // rig, and the repair sweep re-executes every journal entry that only
    // that rig vouched for.  The end state still converges bitwise.
    const std::string journal_path =
        temp_path("integrity_blacklist.journal");
    run_options clean_options;
    clean_options.sweeps = {0, 0};
    clean_options.quorum = 1;
    clean_options.audit_stride = 1;
    clean_options.blacklist_threshold = 1;
    const run_result clean = run_service(journal_path, clean_options);
    EXPECT_EQ(clean.blacklisted, 0u);

    run_options attack = clean_options;
    attack.sdc_spec = "vmin_flip@5";
    const run_result attacked = run_service(journal_path, attack);
    EXPECT_EQ(attacked.blacklisted, 1u);
    EXPECT_EQ(attacked.corrected, 1u);
    EXPECT_EQ(attacked.escaped, 0u);
    EXPECT_EQ(attacked.journal, clean.journal);
    EXPECT_EQ(attacked.snapshot, clean.snapshot);
}

// --- hash-chained journal ------------------------------------------------

class FleetChainTest : public ::testing::Test {
protected:
    void SetUp() override {
        journal_path_ = temp_path(
            std::string("integrity_chain_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".journal");
        run_options options;
        options.sweeps = {0};
        options.quorum = 3;
        reference_ = run_service(journal_path_, options);
        lines_ = split_lines(reference_.journal);
        ASSERT_GE(lines_.size(), 3u);
    }

    /// Replace `field=<old>` with `field=<value>` in a copied line.
    [[nodiscard]] static std::string with_field(std::string line,
                                                const std::string& field,
                                                const std::string& value) {
        const std::size_t start = line.find(" " + field + "=");
        EXPECT_NE(start, std::string::npos) << field << " in " << line;
        const std::size_t from = start + field.size() + 2;
        std::size_t to = line.find(' ', from);
        if (to == std::string::npos) {
            to = line.size();
        }
        return line.replace(from, to - from, value);
    }

    void expect_reject(const std::string& bytes, const std::string& needle) {
        write_raw(journal_path_, bytes);
        fleet_service_config config;
        config.journal_path = journal_path_;
        config.integrity.quorum = 3;
        try {
            fleet_service service(small_fleet(), config, fake_probe);
            FAIL() << "journal accepted; wanted rejection: " << needle;
        } catch (const fleet_journal_error& error) {
            EXPECT_NE(std::string(error.what()).find(needle),
                      std::string::npos)
                << error.what();
            EXPECT_NE(std::string(error.what()).find(journal_path_),
                      std::string::npos)
                << "diagnostic names the file: " << error.what();
        }
    }

    std::string journal_path_;
    run_result reference_;
    std::vector<std::string> lines_;
};

TEST_F(FleetChainTest, JournalCarriesRigsAndChainFields) {
    for (const std::string& line : lines_) {
        EXPECT_NE(line.find(" rigs="), std::string::npos) << line;
        // The chain is the last field: it covers everything before it.
        const std::size_t chain = line.rfind(" chain=");
        ASSERT_NE(chain, std::string::npos) << line;
        EXPECT_EQ(line.size() - chain, 7u + 16u) << line;
    }
}

TEST_F(FleetChainTest, InPlaceValueEditBreaksTheChainOnWarm) {
    // Tamper with record 1's requirement but keep its (now stale) chain:
    // warm reports the mismatch with file:line.
    std::vector<std::string> tampered = lines_;
    tampered[1] = with_field(tampered[1], "req", "999.5");
    std::string bytes;
    for (const std::string& line : tampered) {
        bytes += line + "\n";
    }
    expect_reject(bytes, ":2: chain hash mismatch");
}

TEST_F(FleetChainTest, ReorderingIntactRecordsBreaksTheChain) {
    // Both lines are individually authentic; swapping them (and their
    // task= serials, so the serial check passes) still breaks the links.
    std::vector<std::string> tampered = lines_;
    std::string a = tampered[1].substr(tampered[1].find(' ') + 1);
    std::string b = tampered[2].substr(tampered[2].find(' ') + 1);
    tampered[1] = "task=1 " + b;
    tampered[2] = "task=2 " + a;
    std::string bytes;
    for (const std::string& line : tampered) {
        bytes += line + "\n";
    }
    expect_reject(bytes, "chain hash mismatch");
}

TEST_F(FleetChainTest, MissingOrGarbageChainIsRejected) {
    const std::size_t chain = lines_[0].rfind(" chain=");
    ASSERT_NE(chain, std::string::npos);
    expect_reject(lines_[0].substr(0, chain) + "\n", "missing chain hash");
    expect_reject(lines_[0].substr(0, chain) + " chain=nothex\n",
                  "unparseable chain hash");
}

TEST_F(FleetChainTest, TornTailStillSelfHealsUnderIntegrity) {
    // The chain defends against in-place edits; the torn-tail heal (this
    // writer's own crash damage) must keep working above it.
    const std::string torn =
        reference_.journal + "task=36 probe corner=TTT cla";
    write_raw(journal_path_, torn);
    fleet_service_config config;
    config.journal_path = journal_path_;
    config.integrity.quorum = 3;
    fleet_service healed(small_fleet(), config, fake_probe);
    EXPECT_EQ(healed.healed_bytes(), torn.size() - reference_.journal.size());
    EXPECT_EQ(healed.restored(), 36u);
    EXPECT_EQ(slurp(journal_path_), reference_.journal);
}

// --- restart-warm convergence -------------------------------------------

TEST(FleetIntegrityTest, CountersAndBytesConvergeAcrossRestartWarm) {
    // The poisoned-then-repaired journal warms a fresh service whose
    // chain verifies end to end; replaying the schedule serves pure hits
    // with exact counters and leaves every byte unchanged.
    const std::string journal_path = temp_path("integrity_restart.journal");
    run_options attack;
    attack.sweeps = {0, 0};
    attack.quorum = 1;
    attack.audit_stride = 1;
    attack.sdc_spec = "vmin_flip@5";
    const run_result first = run_service(journal_path, attack);
    EXPECT_EQ(first.corrected, 1u);

    run_options replay;
    replay.sweeps = {0, 0};
    replay.quorum = 1;
    replay.audit_stride = 1;
    replay.fresh_journal = false; // warm over the repaired journal
    const run_result warmed = run_service(journal_path, replay);
    EXPECT_EQ(warmed.cache_hits, 72u); // both sweeps served from warm
    EXPECT_EQ(warmed.dissents, 0u);
    EXPECT_EQ(warmed.audit_mismatches, 0u);
    EXPECT_EQ(warmed.journal, first.journal);
    EXPECT_EQ(warmed.snapshot, first.snapshot);
}

TEST(FleetIntegrityTest, RepairRewriteKeepsObservatoryRecordsInPlace) {
    // Two agreeing corruptions outvote the honest replica and poison the
    // cache; the audit of the repeated sweep catches it, and the repair
    // rewrites a journal that already holds tline/alert/tseal records.
    // The rewrite re-chains the probe records around them, and a restart
    // replays the result to the same bytes.
    const std::string journal_path =
        temp_path("integrity_observatory.journal");
    run_options attack;
    attack.sweeps = {0, -5, 0, -5};
    attack.quorum = 3;
    attack.audit_stride = 1;
    attack.sdc_spec = "vmin_flip@1/5,vmin_flip@2/5";
    attack.timeline = true;
    const run_result first = run_service(journal_path, attack);
    EXPECT_EQ(first.injected, 2u);
    EXPECT_EQ(first.outvoted, 1u);
    EXPECT_EQ(first.corrected, 1u);
    EXPECT_EQ(first.escaped, 0u);
    EXPECT_EQ(first.repaired, 1u);
    EXPECT_EQ(first.blacklisted, 1u);
    ASSERT_NE(first.journal.find(" alert "), std::string::npos);

    // Serials stay 0, 1, 2, ... and each epoch is sealed exactly once, in
    // epoch order.
    const std::vector<std::string> lines = split_lines(first.journal);
    std::size_t next_seal = 1;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string prefix = "task=" + std::to_string(i) + " ";
        ASSERT_EQ(lines[i].rfind(prefix, 0), 0u) << lines[i];
        const std::string payload = lines[i].substr(prefix.size());
        if (payload.rfind("tseal ", 0) == 0) {
            EXPECT_EQ(payload.rfind("tseal epoch=" +
                                        std::to_string(next_seal) + " ",
                                    0),
                      0u)
                << lines[i];
            ++next_seal;
        }
    }
    EXPECT_EQ(next_seal, attack.sweeps.size() + 1);

    run_options replay = attack;
    replay.sdc_spec = nullptr;
    replay.fresh_journal = false; // warm over the rewritten journal
    const run_result warmed = run_service(journal_path, replay);
    EXPECT_EQ(warmed.audit_mismatches, 0u);
    EXPECT_EQ(warmed.journal, first.journal);
    EXPECT_EQ(warmed.timeline, first.timeline);
    EXPECT_EQ(warmed.snapshot, first.snapshot);
}

TEST(FleetIntegrityTest, UnchainedLegacyJournalIsRejectedWhenDefended) {
    // A journal written with the defenses off has no chain to verify; a
    // defended warm refuses to vouch for it instead of guessing.
    const std::string journal_path = temp_path("integrity_legacy.journal");
    run_options legacy;
    legacy.sweeps = {0};
    const run_result undefended = run_service(journal_path, legacy);
    EXPECT_EQ(undefended.journal.find(" chain="), std::string::npos);
    fleet_service_config config;
    config.journal_path = journal_path;
    config.integrity.quorum = 3;
    EXPECT_THROW(
        { fleet_service service(small_fleet(), config, fake_probe); },
        fleet_journal_error);
}

// --- purity across shards, workers and the recovery checker -------------

TEST(FleetIntegrityTest, DefendedBytesAreShardAndWorkerInvariant) {
    const std::string journal_path =
        temp_path("integrity_invariance.journal");
    const auto bytes_at = [&](int shards, int workers) {
        run_options options;
        options.sweeps = {0, -5, 0};
        options.quorum = 3;
        options.audit_stride = 2;
        options.sdc_spec = "vmin_flip@5,power_scale@40";
        options.shards = shards;
        options.workers = workers;
        const run_result result = run_service(journal_path, options);
        EXPECT_EQ(result.escaped, 0u)
            << "shards=" << shards << " workers=" << workers;
        return result.journal + "\x1f" + result.snapshot;
    };
    const std::string reference = bytes_at(1, 1);
    EXPECT_EQ(bytes_at(4, 1), reference);
    EXPECT_EQ(bytes_at(1, 8), reference);
    EXPECT_EQ(bytes_at(4, 8), reference);
}

TEST(FleetIntegrityTest, CrashRecoveryConvergesWithDefensesOn) {
    // The chaos harness and the integrity subsystem compose: an armed
    // crash mid-campaign recovers to the same defended bytes (chain
    // included) as the never-crashed golden run.
    recovery_check_config config;
    config.spec = small_fleet();
    config.sweeps = {0, -5, 0};
    config.chaos.seed = 1234;
    config.chaos.triggers = {{chaos_site::journal_append, 2000},
                             {chaos_site::snapshot_rename, 1}};
    config.shards = 4;
    config.workers = 8;
    config.work_dir = temp_path("integrity_recovery");
    config.probe = fake_probe;
    config.integrity.quorum = 3;
    config.integrity.audit_stride = 2;
    const recovery_report report = run_recovery_check(config);
    EXPECT_TRUE(report.converged()) << report.failure;
    EXPECT_EQ(report.crashes, 2u);
}

// --- defenses-off byte compatibility ------------------------------------

TEST(FleetIntegrityTest, DefaultConfigWritesNoIntegrityFields) {
    const std::string journal_path = temp_path("integrity_off.journal");
    run_options options;
    options.sweeps = {0};
    const run_result result = run_service(journal_path, options);
    EXPECT_EQ(result.journal.find(" rigs="), std::string::npos);
    EXPECT_EQ(result.journal.find(" chain="), std::string::npos);
    EXPECT_EQ(result.snapshot.find("integrity"), std::string::npos);
    fleet_integrity_config defaults;
    EXPECT_FALSE(defaults.enabled());
}

} // namespace
} // namespace gb::fleet
