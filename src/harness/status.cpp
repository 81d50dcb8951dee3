#include "harness/status.hpp"

#include <cstdio>
#include <fstream>

#include "harness/chaos/chaos.hpp"
#include "harness/trace/trace.hpp"
#include "util/wire.hpp"

namespace gb {

std::string write_status_json(const campaign_status& status) {
    std::string out = "{\"campaign\":\"";
    out += json_escape(status.campaign);
    out += "\",\"running\":";
    out += status.running ? "true" : "false";
    const auto field = [&out](const char* name, std::uint64_t value) {
        out += ",\"";
        out += name;
        out += "\":";
        out += std::to_string(value);
    };
    field("tasks_total", status.tasks_total);
    field("tasks_done", status.tasks_done);
    field("retries", status.retries);
    field("injected_faults", status.injected_faults);
    field("aborted_rig", status.aborted_rig);
    field("replayed", status.replayed);
    field("rig_downtime_ms", status.rig_downtime_ms);
    if (status.running) {
        out += ",\"live\":{\"workers\":";
        out += std::to_string(status.workers);
        out += ",\"worker_task\":[";
        for (std::size_t w = 0; w < status.worker_task.size(); ++w) {
            if (w > 0) {
                out += ',';
            }
            out += std::to_string(status.worker_task[w]);
        }
        out += "],\"wall_elapsed_s\":";
        out += wire::format_double(status.wall_elapsed_s);
        out += "}";
    }
    out += "}\n";
    return out;
}

bool publish_status(const std::string& path, const campaign_status& status) {
    // One fixed temp name suffices -- a status file has exactly one writer
    // (the engine publishes under a mutex).
    return publish_file(path, write_status_json(status));
}

bool publish_file(const std::string& path, std::string_view bytes,
                  chaos_plan* chaos) {
    const std::string temp = path + ".tmp";
    bool written = false;
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out) {
            return false;
        }
        if (chaos != nullptr) {
            if (const auto tear = chaos->on_snapshot_temp(bytes.size())) {
                out << bytes.substr(0, static_cast<std::size_t>(tear->keep));
                out.flush();
                chaos->kill(tear->site);
            }
        }
        out << bytes;
        out.close();
        written = !out.fail();
    }
    if (written && chaos != nullptr && chaos->on_snapshot_rename()) {
        chaos->kill(chaos_site::snapshot_rename);
    }
    if (written && std::rename(temp.c_str(), path.c_str()) == 0) {
        return true;
    }
    std::remove(temp.c_str());
    return false;
}

} // namespace gb
