// Per-layer metrics of the traced run, derived from its spans and the
// per-operation counters the workloads recorded.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct layer_metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

/// Every per-layer metric, in a fixed order; a layer the workload does not
/// exercise reads 0.  Times are medians over spans, counts medians over
/// operations.
[[nodiscard]] std::vector<layer_metric> layer_metrics(
    const std::vector<span>& spans,
    const std::map<std::string, std::vector<double>>& samples);

/// Count, total and self time (span minus the union of its children) of
/// every span name.
void print_self_time_table(std::ostream& out, const std::vector<span>& spans);

/// All spans as Chrome trace_event JSON.
bool write_chrome_trace(const std::string& path,
                        const std::vector<span>& spans);

} // namespace perfbench
