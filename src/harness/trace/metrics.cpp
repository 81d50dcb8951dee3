#include "harness/trace/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "harness/trace/trace.hpp"
#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace gb {

namespace {

std::uint32_t find_or_append(std::vector<std::string>& names,
                             std::string_view name) {
    for (std::uint32_t i = 0; i < names.size(); ++i) {
        if (names[i] == name) {
            return i;
        }
    }
    names.emplace_back(name);
    return static_cast<std::uint32_t>(names.size() - 1);
}

} // namespace

histogram_snapshot merge(const histogram_snapshot& a,
                         const histogram_snapshot& b) {
    if (a.counts.empty()) {
        return b;
    }
    if (b.counts.empty()) {
        return a;
    }
    GB_EXPECTS(a.bounds == b.bounds);
    histogram_snapshot out = a;
    for (std::size_t i = 0; i < out.counts.size(); ++i) {
        out.counts[i] += b.counts[i];
    }
    out.count += b.count;
    out.sum += b.sum;
    return out;
}

std::uint64_t metrics_snapshot::counter_value(std::string_view name) const {
    for (const auto& [n, v] : counters) {
        if (n == name) {
            return v;
        }
    }
    return 0;
}

double metrics_snapshot::gauge_value(std::string_view name) const {
    for (const auto& [n, v] : gauges) {
        if (n == name) {
            return v;
        }
    }
    return 0.0;
}

const histogram_snapshot* metrics_snapshot::histogram_named(
    std::string_view name) const {
    for (const auto& [n, v] : histograms) {
        if (n == name) {
            return &v;
        }
    }
    return nullptr;
}

metrics_registry::metrics_registry(std::size_t shards) : shards_(shards) {
    GB_EXPECTS(shards >= 1);
}

counter_handle metrics_registry::counter(std::string_view name) {
    return counter_handle{find_or_append(counter_names_, name)};
}

gauge_handle metrics_registry::gauge(std::string_view name) {
    return gauge_handle{find_or_append(gauge_names_, name)};
}

histogram_handle metrics_registry::histogram(
    std::string_view name, std::vector<std::uint64_t> bounds) {
    GB_EXPECTS(!bounds.empty());
    GB_EXPECTS(std::is_sorted(bounds.begin(), bounds.end()));
    GB_EXPECTS(std::adjacent_find(bounds.begin(), bounds.end()) ==
               bounds.end());
    for (std::uint32_t i = 0; i < histogram_defs_.size(); ++i) {
        if (histogram_defs_[i].name == name) {
            GB_EXPECTS(histogram_defs_[i].bounds == bounds);
            return histogram_handle{i};
        }
    }
    histogram_defs_.push_back(histogram_def{std::string(name),
                                            std::move(bounds)});
    return histogram_handle{
        static_cast<std::uint32_t>(histogram_defs_.size() - 1)};
}

void metrics_registry::add(std::size_t shard, counter_handle handle,
                           std::uint64_t delta) {
    GB_EXPECTS(shard < shards_.size());
    auto& counters = shards_[shard].counters;
    if (handle.id >= counters.size()) {
        // Registration is serial, so the global size is stable while
        // workers update; growing the private shard lazily is safe.
        counters.resize(counter_names_.size(), 0);
    }
    counters[handle.id] += delta;
}

void metrics_registry::set(std::size_t shard, gauge_handle handle,
                           std::uint64_t order, double value) {
    GB_EXPECTS(shard < shards_.size());
    auto& gauges = shards_[shard].gauges;
    if (handle.id >= gauges.size()) {
        gauges.resize(gauge_names_.size());
    }
    gauge_cell& cell = gauges[handle.id];
    if (!cell.set || order >= cell.order) {
        cell.set = true;
        cell.order = order;
        cell.value = value;
    }
}

void metrics_registry::observe(std::size_t shard, histogram_handle handle,
                               std::uint64_t value) {
    GB_EXPECTS(shard < shards_.size());
    auto& histograms = shards_[shard].histograms;
    if (handle.id >= histograms.size()) {
        histograms.resize(histogram_defs_.size());
    }
    histogram_cell& cell = histograms[handle.id];
    const std::vector<std::uint64_t>& bounds =
        histogram_defs_[handle.id].bounds;
    if (cell.counts.empty()) {
        cell.counts.assign(bounds.size() + 1, 0);
    }
    // Bounds are inclusive upper limits; values above the last bound land
    // in the overflow bucket.
    const std::size_t index = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), value) -
        bounds.begin());
    ++cell.counts[index];
    ++cell.count;
    cell.sum += value;
}

metrics_snapshot metrics_registry::snapshot() const {
    metrics_snapshot out;
    out.counters.reserve(counter_names_.size());
    for (std::uint32_t id = 0; id < counter_names_.size(); ++id) {
        std::uint64_t total = 0;
        for (const metric_shard& shard : shards_) {
            if (id < shard.counters.size()) {
                total += shard.counters[id];
            }
        }
        out.counters.emplace_back(counter_names_[id], total);
    }
    out.gauges.reserve(gauge_names_.size());
    for (std::uint32_t id = 0; id < gauge_names_.size(); ++id) {
        gauge_cell best;
        for (const metric_shard& shard : shards_) {
            if (id < shard.gauges.size() && shard.gauges[id].set &&
                (!best.set || shard.gauges[id].order >= best.order)) {
                best = shard.gauges[id];
            }
        }
        if (best.set) {
            out.gauges.emplace_back(gauge_names_[id], best.value);
        }
    }
    out.histograms.reserve(histogram_defs_.size());
    for (std::uint32_t id = 0; id < histogram_defs_.size(); ++id) {
        histogram_snapshot merged;
        merged.bounds = histogram_defs_[id].bounds;
        merged.counts.assign(merged.bounds.size() + 1, 0);
        for (const metric_shard& shard : shards_) {
            if (id < shard.histograms.size() &&
                !shard.histograms[id].counts.empty()) {
                const histogram_cell& cell = shard.histograms[id];
                for (std::size_t b = 0; b < merged.counts.size(); ++b) {
                    merged.counts[b] += cell.counts[b];
                }
                merged.count += cell.count;
                merged.sum += cell.sum;
            }
        }
        out.histograms.emplace_back(histogram_defs_[id].name, merged);
    }
    const auto by_name = [](const auto& a, const auto& b) {
        return a.first < b.first;
    };
    std::sort(out.counters.begin(), out.counters.end(), by_name);
    std::sort(out.gauges.begin(), out.gauges.end(), by_name);
    std::sort(out.histograms.begin(), out.histograms.end(), by_name);
    return out;
}

void write_metrics_json(std::ostream& out,
                        const metrics_snapshot& snapshot) {
    out << "{\n  \"counters\": {";
    for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
        out << (i > 0 ? "," : "") << "\n    \""
            << json_escape(snapshot.counters[i].first)
            << "\": " << snapshot.counters[i].second;
    }
    out << (snapshot.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
    for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
        out << (i > 0 ? "," : "") << "\n    \""
            << json_escape(snapshot.gauges[i].first)
            << "\": " << wire::format_double(snapshot.gauges[i].second);
    }
    out << (snapshot.gauges.empty() ? "" : "\n  ")
        << "},\n  \"histograms\": {";
    for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
        const histogram_snapshot& h = snapshot.histograms[i].second;
        out << (i > 0 ? "," : "") << "\n    \""
            << json_escape(snapshot.histograms[i].first)
            << "\": {\"bounds\": [";
        for (std::size_t b = 0; b < h.bounds.size(); ++b) {
            out << (b > 0 ? "," : "") << h.bounds[b];
        }
        out << "], \"counts\": [";
        for (std::size_t b = 0; b < h.counts.size(); ++b) {
            out << (b > 0 ? "," : "") << h.counts[b];
        }
        out << "], \"count\": " << h.count << ", \"sum\": " << h.sum << "}";
    }
    out << (snapshot.histograms.empty() ? "" : "\n  ") << "}\n}\n";
}

void write_metrics_json(std::ostream& out,
                        const metrics_registry& registry) {
    write_metrics_json(out, registry.snapshot());
}

namespace {

/// `gb_` prefix plus the exposition charset: anything outside
/// [a-zA-Z0-9_:] maps to '_' (dots foremost -- `fleet.cache_hits`
/// becomes `gb_fleet_cache_hits`).
std::string prometheus_name(std::string_view name) {
    std::string out = "gb_";
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

} // namespace

void write_prometheus_text(std::ostream& out,
                           const metrics_snapshot& snapshot) {
    for (const auto& [name, value] : snapshot.counters) {
        const std::string exposed = prometheus_name(name);
        out << "# TYPE " << exposed << " counter\n"
            << exposed << ' ' << value << '\n';
    }
    for (const auto& [name, value] : snapshot.gauges) {
        const std::string exposed = prometheus_name(name);
        out << "# TYPE " << exposed << " gauge\n"
            << exposed << ' ' << wire::format_double(value) << '\n';
    }
    for (const auto& [name, histogram] : snapshot.histograms) {
        const std::string exposed = prometheus_name(name);
        out << "# TYPE " << exposed << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < histogram.bounds.size(); ++b) {
            cumulative += histogram.counts[b];
            out << exposed << "_bucket{le=\"" << histogram.bounds[b]
                << "\"} " << cumulative << '\n';
        }
        cumulative += histogram.counts.empty() ? 0 : histogram.counts.back();
        out << exposed << "_bucket{le=\"+Inf\"} " << cumulative << '\n'
            << exposed << "_sum " << histogram.sum << '\n'
            << exposed << "_count " << histogram.count << '\n';
    }
}

void write_prometheus_text(std::ostream& out,
                           const metrics_registry& registry) {
    write_prometheus_text(out, registry.snapshot());
}

} // namespace gb
