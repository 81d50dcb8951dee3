#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <span>

#include "util/stats.hpp"

namespace perfbench {

namespace {

double median_or_zero(const std::vector<double>& values) {
    return values.empty() ? 0.0 : gb::median(std::span(values));
}

double quantile_or_zero(const std::vector<double>& values, double q) {
    return values.empty() ? 0.0 : gb::quantile(std::span(values), q);
}

/// Length of the union of [start, end) intervals.
double covered_ms(std::vector<std::pair<double, double>> intervals) {
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = -1e300;
    for (const auto& [start, end] : intervals) {
        const double from = std::max(start, reach);
        if (end > from) {
            covered += end - from;
        }
        reach = std::max(reach, end);
    }
    return covered;
}

/// Span durations, self times and child aggregates, indexed by name.
class span_index {
public:
    explicit span_index(const std::vector<span>& spans) {
        std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
        for (const span& s : spans) {
            by_name_[s.name].push_back(&s);
            if (s.parent != 0) {
                kids[s.parent].emplace_back(s.start_ms, s.end_ms);
                children_[s.parent].push_back(&s);
            }
        }
        for (const span& s : spans) {
            auto it = kids.find(s.id);
            double self = s.duration_ms();
            if (it != kids.end()) {
                for (auto& [start, end] : it->second) {
                    start = std::max(start, s.start_ms);
                    end = std::min(end, s.end_ms);
                }
                self -= covered_ms(it->second);
            }
            self_[s.id] = self;
        }
    }

    [[nodiscard]] std::vector<double> durations(const char* name) const {
        std::vector<double> out;
        for (const span* s : named(name)) {
            out.push_back(s->duration_ms());
        }
        return out;
    }

    [[nodiscard]] std::vector<double> self_times(const char* name) const {
        std::vector<double> out;
        for (const span* s : named(name)) {
            out.push_back(self_.at(s->id));
        }
        return out;
    }

    /// Per `parent`-named span: the count and summed duration of its
    /// `child`-named children.
    [[nodiscard]] std::vector<double> child_counts(const char* child,
                                                   const char* parent) const {
        return per_parent(child, parent, false);
    }
    [[nodiscard]] std::vector<double> child_busy(const char* child,
                                                 const char* parent) const {
        return per_parent(child, parent, true);
    }

    [[nodiscard]] const std::map<std::string, std::vector<const span*>>&
    all() const {
        return by_name_;
    }
    [[nodiscard]] double self_of(const span& s) const { return self_.at(s.id); }

private:
    [[nodiscard]] const std::vector<const span*>& named(
        const char* name) const {
        static const std::vector<const span*> none;
        const auto it = by_name_.find(name);
        return it == by_name_.end() ? none : it->second;
    }

    [[nodiscard]] std::vector<double> per_parent(const char* child,
                                                 const char* parent,
                                                 bool busy) const {
        std::vector<double> out;
        const std::string child_name(child);
        for (const span* p : named(parent)) {
            double total = 0.0;
            const auto it = children_.find(p->id);
            if (it != children_.end()) {
                for (const span* c : it->second) {
                    if (child_name == c->name) {
                        total += busy ? c->duration_ms() : 1.0;
                    }
                }
            }
            out.push_back(total);
        }
        return out;
    }

    std::map<std::string, std::vector<const span*>> by_name_;
    std::map<std::uint64_t, std::vector<const span*>> children_;
    std::map<std::uint64_t, double> self_;
};

} // namespace

std::vector<layer_metric> layer_metrics(
    const std::vector<span>& spans,
    const std::map<std::string, std::vector<double>>& samples) {
    const span_index index(spans);
    const auto sample = [&](const char* name) {
        const auto it = samples.find(name);
        return it == samples.end() ? 0.0 : median_or_zero(it->second);
    };
    const auto sum = [&](const char* name) {
        const auto it = samples.find(name);
        double total = 0.0;
        if (it != samples.end()) {
            for (const double v : it->second) {
                total += v;
            }
        }
        return total;
    };
    const auto p50 = [&](const char* name) {
        return median_or_zero(index.durations(name));
    };
    const double hits = sum("fleet.cache.hits");
    const double probes = hits + sum("fleet.cache.misses");

    return {
        {"fleet.ctor_ms", "ms", p50("fleet.ctor")},
        {"fleet.restored", "count", sample("fleet.restored")},
        {"fleet.probe.calls", "count",
         median_or_zero(index.child_counts("fleet.probe",
                                           "fleet.run_campaign"))},
        {"fleet.probe_ms.p50", "ms", p50("fleet.probe")},
        {"fleet.probe_ms.p99", "ms",
         quantile_or_zero(index.durations("fleet.probe"), 0.99)},
        {"fleet.probe.busy_ms", "ms",
         median_or_zero(index.child_busy("fleet.probe",
                                         "fleet.run_campaign"))},
        {"fleet.campaign.self_ms", "ms",
         median_or_zero(index.self_times("fleet.run_campaign"))},
        {"fleet.journal_bytes", "bytes", sample("fleet.journal_bytes")},
        {"fleet.publish_state_ms", "ms", p50("fleet.publish_state")},
        {"fleet.publish_timeline_ms", "ms", p50("fleet.publish_timeline")},
        {"fleet.state_bytes", "bytes", sample("fleet.state_bytes")},
        {"fleet.timeline_bytes", "bytes", sample("fleet.timeline_bytes")},
        {"fleet.cache.hits", "count", sample("fleet.cache.hits")},
        {"fleet.cache.misses", "count", sample("fleet.cache.misses")},
        {"fleet.cache.hit_ratio", "ratio", probes > 0.0 ? hits / probes : 0.0},
        {"engine.tasks", "count", sample("engine.tasks")},
        {"engine.worker_utilization", "ratio",
         sample("engine.worker_utilization")},
        {"engine.replayed_tasks", "count", sample("engine.replayed_tasks")},
        {"framework.run_campaign_ms.p50", "ms",
         p50("framework.run_campaign")},
        {"framework.resume_campaign_ms.p50", "ms",
         p50("framework.resume_campaign")},
        {"framework.find_vmin_ms.p50", "ms", p50("framework.find_vmin")},
        {"journal.write_ms", "ms",
         median_or_zero(index.child_busy("journal.write",
                                         "framework.run_campaign"))},
        {"journal.bytes", "bytes", sample("journal.bytes")},
        {"journal.lines", "count", sample("journal.lines")},
        {"report.csv_ms", "ms", p50("report.csv")},
        {"report.csv_bytes", "bytes", sample("report.csv_bytes")},
        {"dram.ctor_ms", "ms", p50("dram.ctor")},
        {"dram.weak_cells", "count", sample("dram.weak_cells")},
        {"dram.census_ms", "ms", p50("dram.census")},
        {"core.explore_refresh_ms.p50", "ms", p50("core.explore_refresh")},
        {"dram.scans", "count", sample("dram.scans")},
        {"dram.scan_failures", "count", sample("dram.scan_failures")},
        {"dram.analyze_scrub_ms.p50", "ms", p50("dram.analyze_scrub")},
        {"dram.scrub.ue_words", "count", sample("dram.scrub.ue_words")},
        {"dram.scrub.corrections", "count",
         sample("dram.scrub.corrections")},
    };
}

void print_self_time_table(std::ostream& out, const std::vector<span>& spans) {
    const span_index index(spans);
    double root_ms = 0.0;
    for (const span& s : spans) {
        if (s.parent == 0) {
            root_ms += s.duration_ms();
        }
    }
    out << "self time by layer (traced phase, host ms):\n"
        << "  " << std::left << std::setw(28) << "span" << std::right
        << std::setw(9) << "count" << std::setw(13) << "total" << std::setw(13)
        << "self" << std::setw(9) << "self%" << '\n';
    for (const auto& [name, members] : index.all()) {
        double total = 0.0;
        double self = 0.0;
        for (const span* s : members) {
            total += s->duration_ms();
            self += index.self_of(*s);
        }
        out << "  " << std::left << std::setw(28) << name << std::right
            << std::setw(9) << members.size() << std::fixed
            << std::setprecision(2) << std::setw(13) << total << std::setw(13)
            << self << std::setw(8)
            << (root_ms > 0.0 ? 100.0 * self / root_ms : 0.0) << "%\n";
        out.unsetf(std::ios::floatfield);
    }
    out << "  (self% is of the " << std::fixed << std::setprecision(2)
        << root_ms << " ms covered by root spans; worker spans overlap)\n";
    out.unsetf(std::ios::floatfield);
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<span>& spans) {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    char buffer[320];
    for (const span& s : spans) {
        std::snprintf(buffer, sizeof buffer,
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"id\":%llu,\"parent\":%llu,\"op\":%llu}}",
                      first ? "" : ",", s.name, s.thread, s.start_ms * 1e3,
                      s.duration_ms() * 1e3,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.op));
        out << buffer;
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
