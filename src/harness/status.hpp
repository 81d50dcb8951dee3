// Live-status heartbeat for long campaigns: a single-file JSON snapshot a
// dashboard (or `gbreport status`) can poll while the rig grinds through a
// sweep.  Snapshots are published atomically -- written to a sibling temp
// file and renamed over the target -- so a reader never observes a
// half-written document, even mid-crash.
//
// Two snapshot flavours share one schema:
//   * live  (`running: true`)  -- progress counters plus a `live` object
//     with per-worker state and wall time; scheduling-dependent by nature.
//   * final (`running: false`) -- counters only, no `live` object.  The
//     final bytes are a pure function of campaign content and are
//     byte-identical at any GB_JOBS, like every other artifact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gb {

struct campaign_status {
    std::string campaign;
    bool running = false;
    std::uint64_t tasks_total = 0;
    std::uint64_t tasks_done = 0;
    std::uint64_t retries = 0;
    std::uint64_t injected_faults = 0;
    std::uint64_t aborted_rig = 0;
    std::uint64_t replayed = 0;
    std::uint64_t rig_downtime_ms = 0;
    /// Live-only fields, serialized under a `live` object when `running`
    /// and omitted entirely from the final snapshot.
    int workers = 0;
    std::vector<std::int64_t> worker_task; ///< current index, -1 idle
    double wall_elapsed_s = 0.0;
};

/// Serialize a snapshot (single line, trailing newline).  Field order is
/// fixed; the `live` object appears only when `running` is true.
[[nodiscard]] std::string write_status_json(const campaign_status& status);

/// Atomically publish a snapshot to `path` via write-temp-then-rename.
/// Returns false (and leaves any previous snapshot intact) on I/O errors.
bool publish_status(const std::string& path, const campaign_status& status);

class chaos_plan;

/// Atomically replace `path` with `bytes`: write the sibling `path.tmp`,
/// then rename(2) it over `path`, so a reader sees either the previous
/// file or the new one, never a prefix.  Returns false on any I/O error,
/// leaving `path` intact and removing the temp file.  With a `chaos`
/// plan, the snapshot_temp seam may tear the temp write and the
/// snapshot_rename seam may kill before the rename; a kill leaves the torn
/// or finished temp file in place, as a real crash would.
bool publish_file(const std::string& path, std::string_view bytes,
                  chaos_plan* chaos = nullptr);

} // namespace gb
