// undervolt-campaign: the paper's Fig 2 flow on TTT, TFF and TSS over the
// ten SPEC CPU2006 loops.  Per loop: a journaled campaign over a
// descending voltage ladder on all eight cores, its CSV, a resume from its
// own journal (which must reproduce the CSV byte for byte), and the loop's
// Vmin on the chip's most robust core (a Fig 4 cell).
#include <algorithm>
#include <array>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "chip/chip_model.hpp"
#include "core/explorer.hpp"
#include "harness/campaign.hpp"
#include "harness/framework.hpp"
#include "harness/journal.hpp"
#include "workloads/cpu_profiles.hpp"

namespace perfbench {

namespace {

/// The paper's Fig 4 Vmin range per chip (mV).
struct paper_range {
    double lo;
    double hi;
};
constexpr std::array<paper_range, 3> fig4_paper{
    {{860.0, 885.0}, {870.0, 885.0}, {870.0, 900.0}}};

constexpr std::array<gb::process_corner, 3> corners{
    gb::process_corner::ttt, gb::process_corner::tff,
    gb::process_corner::tss};

gb::campaign_spec make_campaign(const gb::cpu_benchmark& benchmark,
                                int jobs) {
    gb::campaign_spec spec;
    spec.benchmark = benchmark.name;
    spec.repetitions = 10;
    spec.workers = jobs;
    for (double mv = 980.0; mv >= 700.0; mv -= 10.0) {
        gb::characterization_setup setup;
        setup.voltage = gb::millivolts{mv};
        setup.cores = {0, 1, 2, 3, 4, 5, 6, 7};
        spec.setups.push_back(setup);
    }
    return spec;
}

std::string csv_of(bench& b, const gb::campaign_result& result) {
    const scoped_span s(b.spans(), "report.csv");
    std::ostringstream out;
    gb::write_campaign_csv(out, result);
    return std::move(out).str();
}

struct chip_rig {
    std::unique_ptr<gb::chip_model> chip;
    std::unique_ptr<gb::characterization_framework> framework;
    int robust_core = 0;
};

class undervolt_campaign final : public workload {
public:
    const char* op_name() const override { return "campaign_ms"; }
    const char* op2_name() const override { return "resume_ms"; }
    const char* work_name() const override { return "runs_per_s"; }

    void setup(bench& b) override {
        rigs_.clear();
        for (std::size_t c = 0; c < corners.size(); ++c) {
            const scoped_span s(b.spans(), "framework.ctor");
            chip_rig rig;
            rig.chip = std::make_unique<gb::chip_model>(
                gb::make_chip(corners[c]), gb::make_xgene2_pdn());
            rig.framework = std::make_unique<gb::characterization_framework>(
                *rig.chip, b.opt().seed + c);
            for (const gb::cpu_benchmark& benchmark : gb::spec2006_suite()) {
                (void)rig.framework->profile_of(benchmark.loop,
                                                gb::nominal_core_frequency);
            }
            gb::guardband_explorer explorer(*rig.framework);
            rig.robust_core =
                explorer.most_robust_core(gb::find_cpu_benchmark("milc"));
            rigs_.push_back(std::move(rig));
        }
    }

    void round(bench& b, phase& p) override {
        std::string csv_hashes;
        vmins_.clear();
        for (chip_rig& rig : rigs_) {
            b.op("undervolt chip campaign",
                 [&] { chip_campaign(b, p, rig, csv_hashes); });
        }
        b.digest("undervolt-campaign.csv", digest_of(csv_hashes));
        std::string vmin_text;
        for (const double v : vmins_) {
            vmin_text += std::to_string(v) + ';';
        }
        b.digest("undervolt-campaign.fig4_vmins", digest_of(vmin_text));
    }

    void finish(bench& b) override {
        const std::size_t loops = gb::spec2006_suite().size();
        if (vmins_.size() != corners.size() * loops) {
            return;
        }
        for (std::size_t c = 0; c < corners.size(); ++c) {
            const auto first = vmins_.begin() +
                               static_cast<std::ptrdiff_t>(c * loops);
            const auto last = first + static_cast<std::ptrdiff_t>(loops);
            const double lo = *std::min_element(first, last);
            const double hi = *std::max_element(first, last);
            const auto outside = std::count_if(first, last, [&](double v) {
                return v < fig4_paper[c].lo || v > fig4_paper[c].hi;
            });
            std::ostringstream text;
            text << "Vmin [" << lo << ", " << hi << "] mV vs paper ["
                 << fig4_paper[c].lo << ", " << fig4_paper[c].hi
                 << "] mV; " << outside << "/" << loops
                 << " loops outside the paper's range";
            b.accuracy("accuracy.fig4." +
                           std::string(gb::to_string(corners[c])),
                       text.str());
        }
    }

private:
    /// One chip's Fig 2 campaign over the benchmark list: every loop's
    /// journaled campaign and CSV (op), then every resume and its CSV
    /// (op2), then every loop's Fig 4 Vmin.  A whole chip is one
    /// operation, so a run's tail sits near p90 rather than p99.5 (one
    /// loop's 10 ms campaign put the tail on scheduler noise).
    void chip_campaign(bench& b, phase& p, chip_rig& rig,
                       std::string& csv_hashes) {
        const std::vector<gb::cpu_benchmark>& suite = gb::spec2006_suite();
        std::vector<gb::campaign_spec> specs;
        std::vector<std::unique_ptr<journal_sink>> sinks;
        for (const gb::cpu_benchmark& benchmark : suite) {
            specs.push_back(make_campaign(benchmark, b.opt().jobs));
            sinks.push_back(std::make_unique<journal_sink>(b.spans()));
        }
        std::vector<gb::campaign_result> results(suite.size());
        std::vector<std::string> csvs(suite.size());
        std::vector<gb::campaign_result> resumed(suite.size());
        std::vector<std::string> resumed_csvs(suite.size());

        const double start = now_ms();
        {
            const scoped_span s(b.spans(), "undervolt.campaign");
            for (std::size_t i = 0; i < suite.size(); ++i) {
                std::ostream journal_stream(sinks[i].get());
                gb::campaign_journal journal(journal_stream);
                gb::campaign_io io;
                io.journal = &journal;
                {
                    const scoped_span c(b.spans(), "framework.run_campaign");
                    results[i] =
                        rig.framework->run_campaign(specs[i], suite[i].loop,
                                                    io);
                }
                csvs[i] = csv_of(b, results[i]);
            }
        }
        const double campaign_end = now_ms();
        {
            const scoped_span s(b.spans(), "undervolt.resume");
            for (std::size_t i = 0; i < suite.size(); ++i) {
                std::istringstream replay(sinks[i]->bytes());
                {
                    const scoped_span c(b.spans(),
                                        "framework.resume_campaign");
                    resumed[i] = rig.framework->resume_campaign(
                        specs[i], suite[i].loop, replay);
                }
                resumed_csvs[i] = csv_of(b, resumed[i]);
            }
        }
        const double resume_end = now_ms();
        {
            const scoped_span s(b.spans(), "undervolt.fig4");
            for (const gb::cpu_benchmark& benchmark : suite) {
                const scoped_span c(b.spans(), "framework.find_vmin");
                vmins_.push_back(
                    rig.framework
                        ->find_vmin(benchmark.loop, {rig.robust_core},
                                    gb::nominal_core_frequency, 10,
                                    gb::millivolts{5.0}, b.opt().jobs)
                        .value);
            }
        }
        p.op_ms.push_back(campaign_end - start);
        p.op2_ms.push_back(resume_end - campaign_end);

        for (std::size_t i = 0; i < suite.size(); ++i) {
            const std::string& name = suite[i].name;
            const std::size_t runs =
                specs[i].setups.size() *
                static_cast<std::size_t>(specs[i].repetitions);
            const gb::campaign_result& result = results[i];
            p.work_units += static_cast<double>(result.summarize().total());
            b.expect(result.records.size() == runs &&
                         result.summarize().total() == runs,
                     name + ": campaign did not classify every run");
            b.expect(sinks[i]->lines() == runs,
                     name + ": journal does not hold one line per run");
            b.expect(resumed_csvs[i] == csvs[i],
                     name + ": resumed CSV differs from the campaign's");
            b.expect(resumed[i].stats.replayed_tasks ==
                             resumed[i].stats.tasks &&
                         resumed[i].stats.tasks == runs,
                     name + ": resume re-ran a journaled task");
            csv_hashes += hex(digest_of(csvs[i]));

            b.sample("engine.tasks", static_cast<double>(result.stats.tasks));
            b.sample("engine.worker_utilization",
                     result.stats.worker_utilization());
            b.sample("engine.replayed_tasks",
                     static_cast<double>(resumed[i].stats.replayed_tasks));
            b.sample("journal.bytes",
                     static_cast<double>(sinks[i]->bytes().size()));
            b.sample("journal.lines", static_cast<double>(sinks[i]->lines()));
            b.sample("report.csv_bytes", static_cast<double>(csvs[i].size()));
        }
    }

    std::vector<chip_rig> rigs_;
    std::vector<double> vmins_; ///< this round's Fig 4 cells, chip-major
};

} // namespace

std::unique_ptr<workload> make_undervolt_campaign() {
    return std::make_unique<undervolt_campaign>();
}

} // namespace perfbench
