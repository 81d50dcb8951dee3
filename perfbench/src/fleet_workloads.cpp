// fleet-cold and fleet-warm: a 10^6-node, 192-cohort fleet_service with
// journal, state snapshot and timeline on, as `fleet_service serve` runs it.
//
//   fleet-cold  every epoch probes at a sweep the service has never seen,
//               so all 192 cohorts miss the probe cache and run the PDN
//               droop kernels; the journal is appended.
//   fleet-warm  the service restarts from a journal written before the
//               run, without a probe function, and re-runs the journaled
//               sweeps: no probe executes and the journal is read.
//
// A round is one service lifetime of a fixed number of epochs, so every
// round does the same work (the timeline grows within a lifetime) and
// publishes the same bytes; each lifetime's bytes are checked against the
// first one's.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fleet/probe.hpp"
#include "fleet/service.hpp"
#include "harness/execution_engine.hpp"
#include "harness/timeseries/timeseries.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using gb::fleet::campaign_outcome;
using gb::fleet::fleet_service;

constexpr std::uint64_t fleet_nodes = 1'000'000;
constexpr std::uint64_t fleet_cohorts = 3 * 8 * 8; // corners x classes x ops
constexpr int cold_sweeps = 2; ///< epochs per cold service lifetime
constexpr int warm_sweeps = 3; ///< journaled sweeps each warm restart re-runs

gb::fleet::fleet_spec make_spec(std::uint64_t seed) {
    gb::fleet::fleet_spec spec;
    spec.nodes = fleet_nodes;
    spec.seed = seed;
    spec.workload_classes = 8;
    spec.operating_points = 8;
    return spec;
}

/// `count` distinct supply offsets in [-60, +20] mV drawn from the seed.
std::vector<std::int64_t> draw_sweeps(std::uint64_t seed,
                                      std::uint64_t stream, int count) {
    std::vector<std::int64_t> pool;
    for (std::int64_t mv = -60; mv <= 20; ++mv) {
        pool.push_back(mv);
    }
    gb::rng draw(gb::derive_task_seed(seed, stream));
    for (std::size_t i = pool.size() - 1; i > 0; --i) {
        std::swap(pool[i], pool[draw.uniform_index(i + 1)]);
    }
    pool.resize(static_cast<std::size_t>(count));
    return pool;
}

std::uint64_t file_size_or_zero(const std::string& path) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

/// One service lifetime's files and observatory, plus the digests of the
/// bytes it published.
struct lifetime {
    std::string journal;
    std::string state;
    std::string timeline_path;
    std::optional<gb::timeline_recorder> timeline;
    std::optional<fleet_service> service;
    std::string state_hashes;    ///< per-epoch state snapshot digests
    std::string timeline_hashes; ///< per-epoch timeline digests

    explicit lifetime(const std::string& dir)
        : journal(dir + "/fleet.journal"), state(dir + "/state.json"),
          timeline_path(dir + "/timeline.json") {}

    /// Drop the service and its files, ready for a fresh lifetime.
    void reset() {
        service.reset();
        timeline.reset();
        state_hashes.clear();
        timeline_hashes.clear();
        for (const std::string* path : {&journal, &state, &timeline_path}) {
            std::remove(path->c_str());
        }
    }

    gb::fleet::fleet_service_config config(int jobs) {
        timeline.emplace();
        gb::fleet::fleet_service_config c;
        c.campaign = "fleet";
        c.shards = 4;
        c.workers = jobs;
        c.journal_path = journal;
        c.state_path = state;
        c.timeline = &*timeline;
        c.timeline_path = timeline_path;
        return c;
    }

    void start(bench& b, const gb::fleet::fleet_spec& spec,
               gb::fleet::probe_fn probe) {
        const scoped_span ctor(b.spans(), "fleet.ctor");
        service.emplace(spec, config(b.opt().jobs), std::move(probe));
    }

    /// One epoch: run_campaign plus both publishes.  Times go into `p`,
    /// checks and layer counters into `b`.
    campaign_outcome epoch(bench& b, phase& p, std::int64_t sweep) {
        const std::uint64_t journal_before = file_size_or_zero(journal);
        campaign_outcome outcome;
        bool published = false;
        const double start = now_ms();
        {
            const scoped_span epoch_span(b.spans(), "fleet.epoch");
            {
                const scoped_span s(b.spans(), "fleet.run_campaign");
                outcome = service->run_campaign(sweep);
            }
            {
                const scoped_span s(b.spans(), "fleet.publish_state");
                published = service->publish_state();
            }
            {
                const scoped_span s(b.spans(), "fleet.publish_timeline");
                published = service->publish_timeline() && published;
            }
        }
        const double end = now_ms();
        p.op_ms.push_back(end - start);
        p.work_units += static_cast<double>(service->node_count());

        b.expect(published, "publish_state/publish_timeline failed");
        b.expect(outcome.probes == fleet_cohorts &&
                     service->node_count() == fleet_nodes,
                 "epoch did not cover 10^6 nodes x 192 cohorts");
        b.expect(outcome.degraded == 0, "an epoch degraded a cohort");
        const std::string state_bytes = read_file(state);
        const std::string timeline_bytes = read_file(timeline_path);
        state_hashes += hex(digest_of(state_bytes));
        timeline_hashes += hex(digest_of(timeline_bytes));

        b.sample("fleet.journal_bytes", static_cast<double>(
                                            file_size_or_zero(journal) -
                                            journal_before));
        b.sample("fleet.state_bytes", static_cast<double>(state_bytes.size()));
        b.sample("fleet.timeline_bytes",
                 static_cast<double>(timeline_bytes.size()));
        b.sample("fleet.cache.hits", static_cast<double>(outcome.cache_hits));
        b.sample("fleet.cache.misses",
                 static_cast<double>(outcome.probes - outcome.cache_hits));
        b.sample("engine.tasks", static_cast<double>(outcome.stats.tasks));
        b.sample("engine.worker_utilization",
                 outcome.stats.worker_utilization());
        b.sample("engine.replayed_tasks",
                 static_cast<double>(outcome.stats.replayed_tasks));
        return outcome;
    }

    /// Digests of everything this lifetime published.
    void close(bench& b, const std::string& prefix) {
        service.reset();
        b.digest(prefix + ".state", digest_of(state_hashes));
        b.digest(prefix + ".timeline", digest_of(timeline_hashes));
        b.digest(prefix + ".journal", digest_of(read_file(journal)));
    }
};

/// Probe wrapper recording one `fleet.probe` span per call; probes run on
/// engine workers, so the spans land in per-thread buffers.
gb::fleet::probe_fn traced_probe(const gb::fleet::probe_fn& inner,
                                 span_recorder& spans) {
    return [inner, &spans](const gb::fleet::probe_request& request) {
        const double start = now_ms();
        gb::fleet::probe_result result = inner(request);
        spans.record_leaf("fleet.probe", start, now_ms());
        return result;
    };
}

/// Both fleet workloads: a round is one service lifetime -- a restart
/// (construction plus the first epoch, timed as op2) and the remaining
/// epochs.  Cold lifetimes start from nothing and probe every cohort;
/// warm lifetimes start from the input journal and probe nothing.
class fleet_workload final : public workload {
public:
    fleet_workload(const std::string& dir, bool warm)
        : warm_(warm), life_(dir) {}

    const char* op_name() const override { return "epoch_ms"; }
    const char* op2_name() const override { return "restart_ms"; }
    const char* work_name() const override { return "node_epochs_per_s"; }

    /// fleet-warm only: write the input journal with seeded cold
    /// campaigns at the sweeps the restarts re-run.  Untimed; its bytes
    /// are digested.
    void prepare(bench& b) override {
        spec_ = make_spec(b.opt().seed);
        sweeps_ = draw_sweeps(b.opt().seed, warm_ ? 2 : 1,
                              warm_ ? warm_sweeps : cold_sweeps);
        if (!warm_) {
            return;
        }
        life_.reset();
        b.op("fleet-warm input journal", [&] {
            life_.start(b, spec_, gb::fleet::make_xgene2_probe(spec_));
            phase scratch;
            for (const std::int64_t sweep : sweeps_) {
                const campaign_outcome outcome =
                    life_.epoch(b, scratch, sweep);
                b.expect(outcome.executed == fleet_cohorts,
                         "input journal campaign did not execute every "
                         "cohort");
            }
            life_.service.reset();
            input_journal_ = read_file(life_.journal);
        });
        b.digest("fleet-warm.input_journal", digest_of(input_journal_));
        life_.reset();
    }

    /// Cold: build the probe bank and an empty service.  Warm: bring a
    /// service up from the input journal.
    void setup(bench& b) override {
        reset_files();
        if (!warm_) {
            const scoped_span s(b.spans(), "fleet.probe_bank");
            probe_ = gb::fleet::make_xgene2_probe(spec_);
        }
        life_.start(b, spec_, probe_);
    }

    void round(bench& b, phase& p) override {
        reset_files();
        const std::string name = warm_ ? "fleet-warm" : "fleet-cold";
        b.op((name + " restart").c_str(), [&] {
            const double start = now_ms();
            {
                const scoped_span s(b.spans(), "fleet.restart");
                life_.start(b, spec_,
                            b.tracing() && probe_
                                ? traced_probe(probe_, b.spans())
                                : probe_);
                checked_epoch(b, p, sweeps_.front());
            }
            p.op2_ms.push_back(now_ms() - start);
            b.expect(life_.service->restored() ==
                         (warm_ ? fleet_cohorts * sweeps_.size() : 0),
                     name + " restart restored the wrong probe count");
            b.sample("fleet.restored",
                     static_cast<double>(life_.service->restored()));
        });
        for (std::size_t i = 1; i < sweeps_.size(); ++i) {
            b.op((name + " epoch").c_str(),
                 [&] { checked_epoch(b, p, sweeps_[i]); });
        }
        life_.close(b, name);
    }

private:
    void reset_files() {
        life_.reset();
        if (warm_) {
            write_file(life_.journal, input_journal_);
        }
    }

    void checked_epoch(bench& b, phase& p, std::int64_t sweep) {
        const campaign_outcome outcome = life_.epoch(b, p, sweep);
        if (warm_) {
            b.expect(outcome.executed == 0 &&
                         outcome.cache_hits == fleet_cohorts,
                     "fleet-warm epoch executed a probe");
        } else {
            b.expect(outcome.executed == fleet_cohorts &&
                         outcome.cache_hits == 0,
                     "fleet-cold epoch did not execute every cohort");
        }
    }

    bool warm_;
    gb::fleet::fleet_spec spec_;
    std::vector<std::int64_t> sweeps_;
    gb::fleet::probe_fn probe_; ///< empty for fleet-warm
    std::string input_journal_;
    lifetime life_;
};

} // namespace

std::unique_ptr<workload> make_fleet_cold(const std::string& out_dir) {
    return std::make_unique<fleet_workload>(out_dir, false);
}

std::unique_ptr<workload> make_fleet_warm(const std::string& out_dir) {
    return std::make_unique<fleet_workload>(out_dir, true);
}

} // namespace perfbench
