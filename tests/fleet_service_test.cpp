// Fleet-service determinism tests: the refactor's core acceptance
// criteria.  A 10^5-node fleet characterized through the service must
// produce bitwise-identical state snapshots and journals at any engine
// worker count and any shard count; cache hit/miss counters are exact
// (lookups happen serially in sorted cohort order); a restarted service
// warms its cache from the journal and re-executes nothing; and the
// journal wire format round-trips through the exposed parser.
#include "fleet/service.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet.hpp"
#include "fleet/probe.hpp"
#include "harness/journal.hpp"
#include "harness/report/artifacts.hpp"
#include "harness/timeseries/alerts.hpp"
#include "harness/timeseries/timeseries.hpp"

namespace gb::fleet {
namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// A cheap stand-in for the X-Gene2 probe: a pure function of the request,
// like any real probe must be.  Depends on content, seed and sweep so the
// tests notice if either stops being derived deterministically.
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

fleet_spec mega_fleet() {
    fleet_spec spec;
    spec.nodes = 100000; // 10^5 nodes, 3 corners x 3 classes x 4 points
    return spec;
}

// --- fleet topology -----------------------------------------------------

TEST(FleetTest, NodesAreAPureFunctionOfSpecAndId) {
    const fleet_spec spec = mega_fleet();
    for (std::uint64_t id : {0ULL, 1ULL, 77777ULL, 99999ULL}) {
        const fleet_node a = make_node(spec, id);
        const fleet_node b = make_node(spec, id);
        EXPECT_EQ(a.id, id);
        EXPECT_EQ(a.cohort, b.cohort);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_LT(a.cohort.workload_class, spec.workload_classes);
        EXPECT_LT(a.cohort.operating_point, spec.operating_points);
        EXPECT_EQ(a.cohort.variant, 0U);
        const double jitter = node_jitter_mv(spec, a);
        EXPECT_GE(jitter, 0.0);
        EXPECT_LT(jitter, spec.node_jitter_mv);
    }
}

TEST(FleetTest, BinningCeilsToTheStepAndCaps) {
    fleet_spec spec;
    spec.bin_step_mv = 10.0;
    spec.bin_cap_mv = 980.0;
    EXPECT_DOUBLE_EQ(bin_voltage_mv(spec, 901.0), 910.0);
    EXPECT_DOUBLE_EQ(bin_voltage_mv(spec, 910.0), 910.0);
    EXPECT_DOUBLE_EQ(bin_voltage_mv(spec, 975.1), 980.0);
    EXPECT_DOUBLE_EQ(bin_voltage_mv(spec, 1200.0), 980.0);
}

TEST(FleetTest, ProbeContentSeparatesEveryKeyField) {
    const cohort_key base{process_corner::ttt, 0, 0, 0};
    const std::uint64_t content = probe_content(base, 0);
    EXPECT_EQ(content, probe_content(base, 0));
    cohort_key other = base;
    other.corner = process_corner::tff;
    EXPECT_NE(probe_content(other, 0), content);
    other = base;
    other.workload_class = 1;
    EXPECT_NE(probe_content(other, 0), content);
    other = base;
    other.operating_point = 1;
    EXPECT_NE(probe_content(other, 0), content);
    other = base;
    other.variant = 1;
    EXPECT_NE(probe_content(other, 0), content);
    EXPECT_NE(probe_content(base, -5), content);
}

// --- cache counters are exact -------------------------------------------

TEST(FleetServiceTest, CacheCountersAreExact) {
    fleet_service service(mega_fleet(), fleet_service_config{}, fake_probe);
    ASSERT_EQ(service.cohorts().size(), 36U); // 3 corners x 3 x 4

    // Epoch 1: every cohort misses and executes.
    const campaign_outcome first = service.run_campaign(0);
    EXPECT_EQ(first.probes, 36U);
    EXPECT_EQ(first.cache_hits, 0U);
    EXPECT_EQ(first.executed, 36U);

    // Epoch 2 at a new sweep: new content, all miss again.
    const campaign_outcome second = service.run_campaign(-5);
    EXPECT_EQ(second.cache_hits, 0U);
    EXPECT_EQ(second.executed, 36U);

    // Epoch 3 revisits the first sweep: all 36 served from the cache.
    const campaign_outcome third = service.run_campaign(0);
    EXPECT_EQ(third.probes, 36U);
    EXPECT_EQ(third.cache_hits, 36U);
    EXPECT_EQ(third.executed, 0U);

    EXPECT_EQ(service.cache().hits(), 36U);
    EXPECT_EQ(service.cache().misses(), 72U);
    EXPECT_EQ(service.cache().size(), 72U);
    EXPECT_EQ(service.epoch(), 3U);
    EXPECT_EQ(service.node_count(), 100000U);
}

// --- the determinism matrix ---------------------------------------------

struct service_run {
    std::string snapshot;
    std::string journal;
};

service_run run_matrix_cell(int workers, int shards,
                            const std::string& journal_path) {
    fleet_service_config config;
    config.workers = workers;
    config.shards = shards;
    config.journal_path = journal_path;
    fleet_service service(mega_fleet(), config, fake_probe);
    service.run_campaign(0);
    service.run_campaign(-5);
    service.run_campaign(0); // pure cache epoch: hits must count equally
    return {service.state_snapshot(), slurp(journal_path)};
}

TEST(FleetServiceTest, SnapshotAndJournalAreInvariantUnderWorkersAndShards) {
    // The acceptance matrix: engine workers 1/2/8 x shards 1/4/16 over a
    // 10^5-node fleet.  Every cell must produce the same snapshot bytes
    // and the same journal bytes -- sharding is batching, not semantics,
    // and probe seeds derive from content, not task indices.
    const service_run reference =
        run_matrix_cell(1, 1, temp_path("fleet_w1_s1.journal"));
    ASSERT_FALSE(reference.snapshot.empty());
    ASSERT_FALSE(reference.journal.empty());
    EXPECT_EQ(reference.journal.back(), '\n');

    for (const int workers : {2, 8}) {
        for (const int shards : {1, 4, 16}) {
            const std::string journal =
                temp_path("fleet_w" + std::to_string(workers) + "_s" +
                          std::to_string(shards) + ".journal");
            const service_run cell =
                run_matrix_cell(workers, shards, journal);
            EXPECT_EQ(cell.snapshot, reference.snapshot)
                << "snapshot diverged at workers=" << workers
                << " shards=" << shards;
            EXPECT_EQ(cell.journal, reference.journal)
                << "journal diverged at workers=" << workers
                << " shards=" << shards;
        }
    }
}

TEST(FleetServiceTest, SnapshotParsesAsAStatusHeartbeat) {
    // The fleet snapshot extends the --status schema; `gbreport status`
    // (via load_status) must keep parsing it, ignoring the fleet object.
    fleet_service_config config;
    config.campaign = "fleet_test";
    fleet_service service(mega_fleet(), config, fake_probe);
    service.run_campaign(0);
    const std::string snapshot = service.state_snapshot();
    EXPECT_NE(snapshot.find("\"fleet\":{"), std::string::npos);

    std::string error;
    const auto parsed = report::load_status(snapshot, error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->campaign, "fleet_test");
    EXPECT_FALSE(parsed->running);
    EXPECT_EQ(parsed->tasks_total, 36U);
    EXPECT_EQ(parsed->tasks_done, 36U);
}

TEST(FleetServiceTest, PublishedStateMatchesTheSnapshotBytes) {
    fleet_service_config config;
    config.state_path = temp_path("fleet_state.json");
    fleet_service service(mega_fleet(), config, fake_probe);
    service.run_campaign(0);
    ASSERT_TRUE(service.publish_state());
    EXPECT_EQ(slurp(config.state_path), service.state_snapshot());
    std::ifstream temp(config.state_path + ".tmp");
    EXPECT_FALSE(temp.good());
}

// --- warm restart from the journal --------------------------------------

TEST(FleetServiceTest, RestartWarmsTheCacheAndReExecutesNothing) {
    const std::string journal_path = temp_path("fleet_restart.journal");
    std::string snapshot_before;
    {
        fleet_service_config config;
        config.journal_path = journal_path;
        fleet_service service(mega_fleet(), config, fake_probe);
        service.run_campaign(0);
        service.run_campaign(-5);
        snapshot_before = service.state_snapshot();
    }
    const std::string journal_before = slurp(journal_path);

    // The restarted daemon carries no probe function at all: everything
    // must come from the journal.
    fleet_service_config config;
    config.journal_path = journal_path;
    fleet_service restarted(mega_fleet(), config);
    EXPECT_EQ(restarted.restored(), 72U);
    EXPECT_EQ(restarted.cache().size(), 72U);

    const campaign_outcome replay = restarted.run_campaign(0);
    EXPECT_EQ(replay.cache_hits, 36U);
    EXPECT_EQ(replay.executed, 0U);
    const campaign_outcome replay_sweep = restarted.run_campaign(-5);
    EXPECT_EQ(replay_sweep.cache_hits, 36U);
    EXPECT_EQ(replay_sweep.executed, 0U);

    // Nothing executed, so nothing was appended: the journal is stable
    // under replay.
    EXPECT_EQ(slurp(journal_path), journal_before);

    // The restored fleet state (bins, power, cohorts) matches the
    // original service after the same campaign sequence, except for the
    // restoration counter itself.
    std::string error;
    const auto before = report::load_status(snapshot_before, error);
    ASSERT_TRUE(before.has_value()) << error;
    const auto after =
        report::load_status(restarted.state_snapshot(), error);
    ASSERT_TRUE(after.has_value()) << error;
    EXPECT_EQ(after->tasks_total, before->tasks_total);
    EXPECT_EQ(after->tasks_done, before->tasks_done);
}

TEST(FleetServiceTest, RestartedFleetStateMatchesAfterReplay) {
    const std::string journal_path = temp_path("fleet_replay_state.journal");
    std::string bins_before;
    {
        fleet_service_config config;
        config.journal_path = journal_path;
        fleet_service service(mega_fleet(), config, fake_probe);
        service.run_campaign(0);
        std::ostringstream bins;
        for (const auto& [mv, count] : service.bins()) {
            bins << mv << ':' << count << ' ';
        }
        bins_before = bins.str();
    }
    fleet_service_config config;
    config.journal_path = journal_path;
    fleet_service restarted(mega_fleet(), config);
    restarted.run_campaign(0);
    std::ostringstream bins;
    for (const auto& [mv, count] : restarted.bins()) {
        bins << mv << ':' << count << ' ';
    }
    EXPECT_EQ(bins.str(), bins_before);
}

// --- journal wire format ------------------------------------------------

TEST(FleetServiceTest, JournalLinesRoundTripThroughTheParser) {
    const std::string journal_path = temp_path("fleet_roundtrip.journal");
    fleet_service_config config;
    config.journal_path = journal_path;
    fleet_service service(mega_fleet(), config, fake_probe);
    service.run_campaign(-15);

    std::ifstream in(journal_path);
    std::string line;
    std::size_t parsed = 0;
    while (std::getline(in, line)) {
        std::size_t task_index = 0;
        std::string_view payload;
        ASSERT_TRUE(parse_journal_prefix(line, task_index, payload)) << line;
        cohort_key key;
        std::int64_t sweep = 0;
        std::uint64_t content = 0;
        probe_result result;
        ASSERT_TRUE(parse_probe_line(payload, key, sweep, content, result))
            << payload;
        EXPECT_EQ(sweep, -15);
        EXPECT_EQ(content, probe_content(key, sweep));
        const probe_result* cached = service.cache().peek(content);
        ASSERT_NE(cached, nullptr);
        // Doubles round-trip exactly (to_chars shortest form).
        EXPECT_EQ(result.requirement_mv, cached->requirement_mv);
        EXPECT_EQ(result.power_nominal_w, cached->power_nominal_w);
        EXPECT_EQ(result.power_point_w, cached->power_point_w);
        EXPECT_EQ(result.bucket, cached->bucket);
        ++parsed;
    }
    EXPECT_EQ(parsed, 36U);
}

TEST(FleetServiceTest, ProbeLineParserRejectsMalformedPayloads) {
    cohort_key key;
    std::int64_t sweep = 0;
    std::uint64_t content = 0;
    probe_result result;
    EXPECT_FALSE(parse_probe_line("", key, sweep, content, result));
    EXPECT_FALSE(parse_probe_line("run=1 core=0", key, sweep, content,
                                  result));
    EXPECT_FALSE(parse_probe_line("probe corner=XXX class=0 op=0 variant=0",
                                  key, sweep, content, result));
    EXPECT_FALSE(parse_probe_line(
        "probe corner=TTT class=0 op=0 variant=0 sweep=0", key, sweep,
        content, result));
}

TEST(FleetServiceTest, ProbeLineParserRejectsNonFiniteReals) {
    // Every real on the probe wire goes through the one finite-only
    // parser: a hostile or corrupted journal cannot plant a NaN Vmin.
    const std::string fields[] = {"req", "pnom", "ppt", "down"};
    for (const std::string& field : fields) {
        for (const std::string bad : {"nan", "inf", "1e400"}) {
            std::string line =
                "probe corner=TTT class=0 op=0 variant=0 sweep=0 "
                "content=0000000000000001 req=900 pnom=30 ppt=24 bucket=0 "
                "down=0";
            const std::size_t at = line.find(" " + field + "=") + 1;
            const std::size_t end = line.find(' ', at);
            line.replace(at, (end == std::string::npos ? line.size() : end) -
                                 at,
                         field + "=" + bad);
            cohort_key key;
            std::int64_t sweep = 0;
            std::uint64_t content = 0;
            probe_result result;
            probe_ledger ledger;
            EXPECT_FALSE(parse_probe_line(line, key, sweep, content, result,
                                          ledger))
                << line;
        }
    }
}

TEST(FleetServiceTest, WarmRejectsANonFiniteRequirementMidJournal) {
    const std::string journal_path = temp_path("fleet_nan.journal");
    std::filesystem::remove(journal_path); // a previous run's corruption
    {
        fleet_service_config config;
        config.journal_path = journal_path;
        fleet_service service(mega_fleet(), config, fake_probe);
        service.run_campaign(0);
    }
    std::vector<std::string> lines;
    {
        std::ifstream in(journal_path);
        for (std::string line; std::getline(in, line);) {
            lines.push_back(line);
        }
    }
    ASSERT_GT(lines.size(), 10U);
    std::string& victim = lines[9];
    const std::size_t req = victim.find(" req=") + 5;
    victim.replace(req, victim.find(' ', req) - req, "nan");
    {
        std::ofstream out(journal_path, std::ios::trunc);
        for (const std::string& line : lines) {
            out << line << '\n';
        }
    }
    fleet_service_config config;
    config.journal_path = journal_path;
    try {
        fleet_service restarted(mega_fleet(), config);
        FAIL() << "warm accepted req=nan";
    } catch (const fleet_journal_error& error) {
        EXPECT_NE(std::string(error.what()).find(journal_path + ":10: "),
                  std::string::npos)
            << error.what();
    }
}

// --- the observatory ----------------------------------------------------

std::vector<alert_rule> drift_rules() {
    // A drift-slope rule over every Vmin series plus a threshold rule the
    // schedule never trips: the artifact must carry both loaded rules but
    // only the drift may fire.
    std::string error;
    const auto rules = parse_alert_rules(
        "# observatory test rules\n"
        "alert vmin-drift vmin.* slope 1.5 window 3\n"
        "alert power-ceiling fleet.power_binned_w above 1e9\n",
        "drift_rules", error);
    EXPECT_TRUE(rules.has_value()) << error;
    return rules.value_or(std::vector<alert_rule>{});
}

struct observatory_run {
    std::string snapshot;
    std::string journal;
    std::string timeline;
    std::vector<std::string> firing;
};

observatory_run run_observatory_cell(int workers, int shards,
                                     const std::string& journal_path) {
    timeline_recorder recorder;
    fleet_service_config config;
    config.workers = workers;
    config.shards = shards;
    config.journal_path = journal_path;
    config.timeline = &recorder;
    config.alerts = drift_rules();
    config.aging_mv_per_epoch = 2.0; // seeded drift: 2 mV per epoch
    fleet_service service(mega_fleet(), config, fake_probe);
    // Four epochs of the same sweep: epochs 2-4 are pure cache serves,
    // but the served Vmin still ages, so the drift slope reaches 2.0
    // mV/epoch >= the 1.5 threshold once the window fills.
    for (int epoch = 0; epoch < 4; ++epoch) {
        service.run_campaign(0);
    }
    return {service.state_snapshot(), slurp(journal_path),
            service.timeline_snapshot(),
            service.alert_state()->firing()};
}

TEST(FleetObservatoryTest, TimelineBytesAreInvariantUnderWorkersAndShards) {
    // The tentpole acceptance matrix: timeline.json bytes (and the
    // journal the observatory records ride in) are a pure function of
    // campaign content at engine workers 1/2/8 x shards 1/4/16.
    const observatory_run reference = run_observatory_cell(
        1, 1, temp_path("fleet_obs_w1_s1.journal"));
    ASSERT_FALSE(reference.timeline.empty());
    EXPECT_NE(reference.journal.find(" tline "), std::string::npos);
    EXPECT_NE(reference.journal.find(" tseal "), std::string::npos);

    for (const int workers : {2, 8}) {
        for (const int shards : {1, 4, 16}) {
            const std::string journal =
                temp_path("fleet_obs_w" + std::to_string(workers) + "_s" +
                          std::to_string(shards) + ".journal");
            const observatory_run cell =
                run_observatory_cell(workers, shards, journal);
            EXPECT_EQ(cell.timeline, reference.timeline)
                << "timeline diverged at workers=" << workers
                << " shards=" << shards;
            EXPECT_EQ(cell.journal, reference.journal)
                << "journal diverged at workers=" << workers
                << " shards=" << shards;
            EXPECT_EQ(cell.snapshot, reference.snapshot)
                << "snapshot diverged at workers=" << workers
                << " shards=" << shards;
        }
    }
}

TEST(FleetObservatoryTest, SeededDriftFiresTheSlopeRuleDeterministically) {
    const observatory_run run = run_observatory_cell(
        1, 1, temp_path("fleet_obs_drift.journal"));
    // Every probed Vmin series ages identically, so every one of the 36
    // cohorts trips the drift rule -- and only the drift rule.
    ASSERT_EQ(run.firing.size(), 36U);
    for (const std::string& label : run.firing) {
        EXPECT_EQ(label.rfind("vmin-drift:vmin.", 0), 0U) << label;
    }
    // The artifact carries the same verdict.
    std::string error;
    const auto timeline = report::load_timeline(run.timeline, error);
    ASSERT_TRUE(timeline.has_value()) << error;
    EXPECT_EQ(timeline->alert_rules, 2U);
    EXPECT_EQ(timeline->firing, run.firing);
    // And the snapshot's fleet.timeline section agrees.
    const auto status = report::load_status(run.snapshot, error);
    ASSERT_TRUE(status.has_value()) << error;
    EXPECT_TRUE(status->timeline_present);
    EXPECT_EQ(status->timeline_rules, 2U);
    EXPECT_EQ(status->timeline_firing, run.firing);
    EXPECT_EQ(status->timeline_series, 40U); // 36 vmin + 4 fleet.*
}

TEST(FleetObservatoryTest, RestartWarmsTheTimelineFromTheJournal) {
    const std::string journal_path = temp_path("fleet_obs_restart.journal");
    const observatory_run before =
        run_observatory_cell(1, 1, journal_path);

    // A restarted daemon starts with an empty recorder and alert engine:
    // in-memory observability died with the process, only the journal
    // survives.  Replaying the same schedule must converge bitwise.
    timeline_recorder recorder;
    fleet_service_config config;
    config.journal_path = journal_path;
    config.timeline = &recorder;
    config.alerts = drift_rules();
    config.aging_mv_per_epoch = 2.0;
    fleet_service restarted(mega_fleet(), config); // no probe: journal only
    for (int epoch = 0; epoch < 4; ++epoch) {
        restarted.run_campaign(0);
    }
    EXPECT_EQ(restarted.timeline_snapshot(), before.timeline);
    EXPECT_EQ(restarted.state_snapshot(), before.snapshot);
    EXPECT_EQ(restarted.alert_state()->firing(), before.firing);
    // Replay appended nothing: the journal is stable.
    EXPECT_EQ(slurp(journal_path), before.journal);
}

TEST(FleetObservatoryTest, DisabledObservatoryKeepsLegacyBytes) {
    // config.timeline == nullptr must leave every artifact byte exactly
    // as the pre-observatory service wrote it: no tline/tseal records,
    // no fleet.timeline section.
    const std::string journal_path = temp_path("fleet_obs_off.journal");
    fleet_service_config config;
    config.journal_path = journal_path;
    fleet_service service(mega_fleet(), config, fake_probe);
    service.run_campaign(0);
    const std::string journal = slurp(journal_path);
    EXPECT_EQ(journal.find(" tline "), std::string::npos);
    EXPECT_EQ(journal.find(" tseal "), std::string::npos);
    EXPECT_EQ(service.state_snapshot().find("\"timeline\""),
              std::string::npos);
    EXPECT_TRUE(service.timeline_snapshot().empty());
}

TEST(FleetObservatoryTest, SnapshotEscapesAlertLabels) {
    // Rule names are free-form tokens, so a firing label can carry a
    // quote or a backslash; the snapshot must escape it like timeline.json
    // does, or the endpoint stops being JSON.
    std::string error;
    const auto rules = parse_alert_rules("alert hot\"x\\y vmin.* above 0\n",
                                         "escape_rules", error);
    ASSERT_TRUE(rules.has_value()) << error;
    timeline_recorder recorder;
    fleet_service_config config;
    config.timeline = &recorder;
    config.alerts = *rules;
    fleet_spec spec;
    spec.nodes = 2000;
    fleet_service service(spec, config, fake_probe);
    service.run_campaign(0);
    const std::vector<std::string> firing = service.alert_state()->firing();
    ASSERT_EQ(firing.size(), 36U);
    EXPECT_EQ(firing.front().rfind("hot\"x\\y:vmin.", 0), 0U)
        << firing.front();
    const auto status = report::load_status(service.state_snapshot(), error);
    ASSERT_TRUE(status.has_value()) << error;
    EXPECT_EQ(status->timeline_firing, firing);
}

// --- X-Gene2 probe droop memo -------------------------------------------

observatory_run xgene2_lifetime(const probe_fn& probe,
                                const std::vector<std::int64_t>& sweeps,
                                const std::string& journal_path) {
    std::filesystem::remove(journal_path);
    timeline_recorder recorder;
    fleet_service_config config;
    config.journal_path = journal_path;
    config.timeline = &recorder;
    fleet_spec spec;
    spec.nodes = 1000;
    fleet_service service(spec, config, probe);
    for (const std::int64_t sweep : sweeps) {
        service.run_campaign(sweep);
    }
    return {service.state_snapshot(), slurp(journal_path),
            service.timeline_snapshot(), {}};
}

TEST(FleetServiceTest, WarmDroopMemoPublishesTheSameBytes) {
    // The chips behind a probe_fn memoize core-local droops across probes
    // and service lifetimes.  A lifetime on a probe warmed by an earlier
    // one must publish exactly what a lifetime on a fresh probe does.
    fleet_spec spec;
    spec.nodes = 1000;
    const probe_fn warmed = make_xgene2_probe(spec);
    (void)xgene2_lifetime(warmed, {-5, 0},
                          temp_path("fleet_memo_warmup.journal"));

    const observatory_run warm =
        xgene2_lifetime(warmed, {0}, temp_path("fleet_memo_warm.journal"));
    const observatory_run fresh =
        xgene2_lifetime(make_xgene2_probe(spec), {0},
                        temp_path("fleet_memo_fresh.journal"));
    ASSERT_FALSE(fresh.journal.empty());
    ASSERT_FALSE(fresh.timeline.empty());
    EXPECT_EQ(warm.snapshot, fresh.snapshot);
    EXPECT_EQ(warm.timeline, fresh.timeline);
    EXPECT_EQ(warm.journal, fresh.journal);
}

// --- explicit-node fleets -----------------------------------------------

TEST(FleetServiceTest, ExplicitVariantsNeverShareAProbe) {
    fleet_spec spec;
    spec.node_jitter_mv = 0.0;
    for (std::uint64_t id = 0; id < 8; ++id) {
        fleet_node node;
        node.id = id;
        node.cohort.corner = process_corner::ttt;
        node.cohort.variant = static_cast<std::uint32_t>(id + 1);
        spec.explicit_nodes.push_back(node);
    }
    fleet_service service(spec, fleet_service_config{}, fake_probe);
    EXPECT_EQ(service.cohorts().size(), 8U);
    const campaign_outcome outcome = service.run_campaign(0);
    EXPECT_EQ(outcome.executed, 8U);
    EXPECT_EQ(outcome.cache_hits, 0U);
    EXPECT_EQ(service.node_count(), 8U);
}

} // namespace
} // namespace gb::fleet
