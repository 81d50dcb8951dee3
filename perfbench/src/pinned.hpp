// Digests of every simulated output at the default seed.  A change to any
// of them is a change to the model's results, not to its speed.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

inline const std::map<std::string, std::uint64_t> pinned_digests = {
    {"dram-retention.results", 0x8e2332f53422e03cULL},
    {"fleet-cold.journal", 0x7496889305dbdeb3ULL},
    {"fleet-cold.state", 0x5310d68150058c77ULL},
    {"fleet-cold.timeline", 0xa0bfb2d66c525cf1ULL},
    {"fleet-warm.input_journal", 0xf0fafd61ab526849ULL},
    {"fleet-warm.journal", 0xf0fafd61ab526849ULL},
    {"fleet-warm.state", 0x02f76599bb74d378ULL},
    {"fleet-warm.timeline", 0x3bb8a2316f4bca47ULL},
    {"undervolt-campaign.csv", 0xf502b5b6889373f8ULL},
    {"undervolt-campaign.fig4_vmins", 0x9a2de3ea2729232fULL},
};

} // namespace perfbench
