#include "harness/execution_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string_view>
#include <thread>

#include "harness/fault_injection.hpp"
#include "harness/status.hpp"
#include "harness/timeseries/timeseries.hpp"
#include "harness/trace/metrics.hpp"
#include "harness/trace/trace.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace gb {

namespace {

/// Outcome buckets the histogram can hold; covers run_outcome (7) and
/// dram_run_outcome (4) with room to spare.
constexpr int max_buckets = 8;

/// Virtual duration charged to every task attempt that reaches the task
/// function.  Traces use virtual ticks, not wall time, so the rendered
/// widths are a function of content (faults stretch a task by their
/// simulated downtime in milliseconds), never of scheduling.
constexpr std::uint64_t task_quantum_ticks = 100;

/// Metric handles the engine registers once per run (serial point).
struct engine_metric_handles {
    counter_handle tasks_completed;
    counter_handle retries;
    counter_handle aborted_rig;
    counter_handle watchdog_timeouts;
    counter_handle board_crashes;
    counter_handle power_switch_failures;
    counter_handle replayed_tasks;
    histogram_handle task_ticks;
    histogram_handle queue_depth;
    gauge_handle downtime_ms;
};

/// Per-task observability slot for the timeline: written exclusively by
/// the worker that owns the task index, read serially after the pool
/// drains, so no synchronization is needed and the decile walk sees the
/// same values at any worker count.
struct task_record {
    std::uint32_t retries = 0;
    std::uint64_t downtime_ms = 0;
};

const char* fault_name(rig_fault fault) {
    switch (fault) {
    case rig_fault::hang_until_watchdog: return "hang_until_watchdog";
    case rig_fault::board_crash: return "board_crash";
    case rig_fault::power_switch_failure: return "power_switch_failure";
    case rig_fault::none: break;
    }
    return "none";
}

} // namespace

double execution_stats::runs_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(tasks) / wall_seconds
                              : 0.0;
}

double execution_stats::worker_utilization() const {
    if (tasks_per_worker.empty()) {
        return 1.0;
    }
    std::uint64_t max_tasks = 0;
    std::uint64_t total = 0;
    for (const std::uint64_t n : tasks_per_worker) {
        max_tasks = std::max(max_tasks, n);
        total += n;
    }
    if (max_tasks == 0) {
        return 1.0;
    }
    const double mean = static_cast<double>(total) /
                        static_cast<double>(tasks_per_worker.size());
    return mean / static_cast<double>(max_tasks);
}

std::uint64_t execution_stats::injected_faults() const {
    return watchdog_timeouts + board_crashes + power_switch_failures;
}

void execution_stats::merge(const execution_stats& other) {
    tasks += other.tasks;
    workers = std::max(workers, other.workers);
    wall_seconds += other.wall_seconds;
    if (outcome_histogram.size() < other.outcome_histogram.size()) {
        outcome_histogram.resize(other.outcome_histogram.size());
    }
    for (std::size_t i = 0; i < other.outcome_histogram.size(); ++i) {
        outcome_histogram[i] += other.outcome_histogram[i];
    }
    if (tasks_per_worker.size() < other.tasks_per_worker.size()) {
        tasks_per_worker.resize(other.tasks_per_worker.size());
    }
    for (std::size_t i = 0; i < other.tasks_per_worker.size(); ++i) {
        tasks_per_worker[i] += other.tasks_per_worker[i];
    }
    retries += other.retries;
    aborted_rig += other.aborted_rig;
    watchdog_timeouts += other.watchdog_timeouts;
    board_crashes += other.board_crashes;
    power_switch_failures += other.power_switch_failures;
    corrupted_log_lines += other.corrupted_log_lines;
    replayed_tasks += other.replayed_tasks;
    rig_downtime_s += other.rig_downtime_s;
}

std::uint64_t derive_task_seed(std::uint64_t base_seed,
                               std::uint64_t task_index) {
    // Decorrelate base and index with one golden-ratio step each before the
    // final mix, so (base, i) and (base + 1, i - 1) share no structure.
    std::uint64_t s = base_seed;
    std::uint64_t mixed = splitmix64(s);
    s = mixed ^ (task_index + 0x9e3779b97f4a7c15ULL);
    return splitmix64(s);
}

int resolve_worker_count(int requested) {
    if (requested <= 0) {
        if (const char* env = std::getenv("GB_JOBS")) {
            const std::string_view text(env);
            int parsed = 0;
            if (wire::parse_int(text, parsed) && parsed > 0) {
                requested = parsed;
            } else {
                log_warn("ignoring GB_JOBS='", text,
                         "' (want a positive integer); falling back to ",
                         "hardware_concurrency");
            }
        }
    }
    if (requested <= 0) {
        requested = static_cast<int>(std::thread::hardware_concurrency());
    }
    return std::clamp(requested, 1, 256);
}

execution_engine::execution_engine(execution_options options)
    : options_(std::move(options)),
      workers_(resolve_worker_count(options_.workers)) {
    GB_EXPECTS(options_.retry_budget >= 1);
    GB_EXPECTS(options_.backoff_base_s >= 0.0);
}

execution_stats execution_engine::run(std::size_t task_count,
                                      const task_fn& task,
                                      std::size_t first_index) const {
    GB_EXPECTS(task != nullptr);

    execution_stats stats;
    stats.tasks = task_count;
    stats.outcome_histogram.assign(max_buckets, 0);
    if (task_count == 0) {
        stats.workers = 0;
        if (!options_.status_path.empty()) {
            campaign_status status;
            status.campaign = options_.campaign;
            publish_status(options_.status_path, status);
        }
        return stats;
    }
    const int pool = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(workers_), task_count));
    stats.workers = pool;
    stats.tasks_per_worker.assign(static_cast<std::size_t>(pool), 0);

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::array<std::atomic<std::uint64_t>, max_buckets> histogram{};
    std::atomic<bool> cancelled{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    // Fault/retry accounting: atomics keep the totals deterministic (each
    // injected fault is keyed to its (index, attempt), not to scheduling);
    // downtime accumulates in integer microseconds so even the floating
    // total is order-independent.
    const fault_plan* faults = options_.faults;
    const int budget = options_.retry_budget;
    std::atomic<std::uint64_t> n_retries{0};
    std::atomic<std::uint64_t> n_aborted{0};
    std::atomic<std::uint64_t> n_hangs{0};
    std::atomic<std::uint64_t> n_crashes{0};
    std::atomic<std::uint64_t> n_switch{0};
    std::atomic<std::uint64_t> n_replayed{0};
    std::atomic<std::uint64_t> downtime_us{0};

    // Live-status heartbeat: workers publish a snapshot when they cross a
    // progress decile.  The publish itself is serialized by try_lock (a
    // busy writer just skips -- the next decile republishes), and every
    // field a live snapshot carries is either a racy-but-monotonic counter
    // read or explicitly marked scheduling-dependent in the schema.
    const bool heartbeat = !options_.status_path.empty();
    std::vector<std::atomic<std::int64_t>> current_task(
        heartbeat ? static_cast<std::size_t>(pool) : 0);
    for (auto& slot : current_task) {
        slot.store(-1, std::memory_order_relaxed);
    }
    // Timeline slots: one per task, owned by the executing worker, walked
    // serially after the join.
    timeline_recorder* timeline = options_.timeline;
    std::vector<task_record> task_records(
        timeline != nullptr ? task_count : 0);

    std::mutex status_mutex;
    const auto start = std::chrono::steady_clock::now();
    const auto publish_live = [&] {
        campaign_status status;
        status.campaign = options_.campaign;
        status.running = true;
        status.tasks_total = task_count;
        status.tasks_done = done.load(std::memory_order_relaxed);
        status.retries = n_retries.load(std::memory_order_relaxed);
        status.injected_faults =
            n_hangs.load(std::memory_order_relaxed) +
            n_crashes.load(std::memory_order_relaxed) +
            n_switch.load(std::memory_order_relaxed);
        status.aborted_rig = n_aborted.load(std::memory_order_relaxed);
        status.replayed = n_replayed.load(std::memory_order_relaxed);
        status.rig_downtime_ms =
            downtime_us.load(std::memory_order_relaxed) / 1000;
        status.workers = pool;
        status.worker_task.reserve(current_task.size());
        for (const auto& slot : current_task) {
            status.worker_task.push_back(
                slot.load(std::memory_order_relaxed));
        }
        status.wall_elapsed_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        publish_status(options_.status_path, status);
    };
    if (heartbeat) {
        publish_live();
    }

    // Tracing/metrics: one phase per engine run (allocated here, a serial
    // point) keys every event this run emits; worker w records into shard
    // 1 + w so recording stays lock-free.  Nothing recorded may depend on
    // the worker count -- the exported bytes are part of the determinism
    // contract.
    tracer* trace = nullptr;
    metrics_registry* metrics = nullptr;
    std::uint32_t phase = 0;
    engine_metric_handles mh;
    if constexpr (trace_compiled_in) {
        trace = options_.trace;
        metrics = options_.metrics;
        if (trace != nullptr) {
            GB_EXPECTS(trace->shard_count() >
                       static_cast<std::size_t>(pool));
            phase = trace->allocate_phase();
        }
        if (metrics != nullptr) {
            GB_EXPECTS(metrics->shard_count() >
                       static_cast<std::size_t>(pool));
            mh.tasks_completed = metrics->counter("engine.tasks_completed");
            mh.retries = metrics->counter("engine.retries");
            mh.aborted_rig = metrics->counter("engine.aborted_rig");
            mh.watchdog_timeouts =
                metrics->counter("engine.watchdog_timeouts");
            mh.board_crashes = metrics->counter("engine.board_crashes");
            mh.power_switch_failures =
                metrics->counter("engine.power_switch_failures");
            mh.replayed_tasks = metrics->counter("engine.replayed_tasks");
            mh.task_ticks = metrics->histogram(
                "engine.task_ticks",
                {task_quantum_ticks, 2 * task_quantum_ticks, 1000, 10000,
                 100000, 1000000});
            mh.queue_depth = metrics->histogram(
                "engine.queue_depth", {1, 8, 64, 512, 4096, 32768});
            mh.downtime_ms = metrics->gauge("engine.rig_downtime_ms");
        }
    }

    // Progress is logged when a worker crosses a decile of the task count;
    // the lines go through the (thread-safe) log layer at debug level so
    // default-level campaign output stays byte-identical across worker
    // counts.
    const std::size_t progress_stride =
        std::max<std::size_t>(1, task_count / 10);

    const auto worker_loop = [&](int worker) {
        std::uint64_t executed = 0;
        while (!cancelled.load(std::memory_order_relaxed)) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= task_count) {
                break;
            }
            task_context ctx;
            ctx.index = first_index + i;
            ctx.seed = derive_task_seed(options_.base_seed, ctx.index);
            ctx.worker = worker;
            if (heartbeat) {
                current_task[static_cast<std::size_t>(worker)].store(
                    static_cast<std::int64_t>(ctx.index),
                    std::memory_order_relaxed);
            }
            // Shard 0 is reserved for serial code; worker w owns 1 + w.
            const std::size_t shard = static_cast<std::size_t>(worker) + 1;
            // Virtual task duration: the quantum plus any simulated rig
            // downtime (in ms ticks) this task's faulted attempts cost.
            std::uint64_t task_ticks = task_quantum_ticks;
            std::uint64_t task_downtime_ms = 0;
            if (options_.already_complete &&
                options_.already_complete(ctx.index)) {
                ctx.replayed = true;
                n_replayed.fetch_add(1, std::memory_order_relaxed);
                if constexpr (trace_compiled_in) {
                    if (metrics != nullptr) {
                        metrics->add(shard, mh.replayed_tasks);
                    }
                }
            } else if (faults != nullptr) {
                // The rig-fault path: draw per attempt, retry within the
                // budget, give up into an aborted task.  Faulted attempts
                // never reach the task function -- the board died before
                // reporting -- so campaign side effects (journal lines)
                // happen exactly once per task.
                int attempt = 0;
                for (; attempt < budget; ++attempt) {
                    const rig_fault fault = faults->draw(ctx.index, attempt);
                    if (fault == rig_fault::none) {
                        break;
                    }
                    switch (fault) {
                    case rig_fault::hang_until_watchdog:
                        n_hangs.fetch_add(1, std::memory_order_relaxed);
                        break;
                    case rig_fault::board_crash:
                        n_crashes.fetch_add(1, std::memory_order_relaxed);
                        break;
                    case rig_fault::power_switch_failure:
                        n_switch.fetch_add(1, std::memory_order_relaxed);
                        break;
                    case rig_fault::none: break;
                    }
                    const std::uint64_t fault_us =
                        static_cast<std::uint64_t>(
                            std::llround(faults->downtime_for(fault) * 1e6));
                    downtime_us.fetch_add(fault_us,
                                          std::memory_order_relaxed);
                    task_downtime_ms += fault_us / 1000;
                    if constexpr (trace_compiled_in) {
                        task_ticks += fault_us / 1000;
                        if (metrics != nullptr) {
                            metrics->add(
                                shard,
                                fault == rig_fault::hang_until_watchdog
                                    ? mh.watchdog_timeouts
                                : fault == rig_fault::board_crash
                                    ? mh.board_crashes
                                    : mh.power_switch_failures);
                        }
                        if (trace != nullptr) {
                            trace_span event;
                            event.name = "rig_fault";
                            event.category = "fault";
                            event.at = trace_point{
                                track_rig, phase, ctx.index,
                                static_cast<std::uint32_t>(attempt) + 1};
                            event.instant = true;
                            event.args.emplace_back("kind",
                                                    fault_name(fault));
                            event.args.emplace_back(
                                "attempt", std::to_string(attempt));
                            trace->record(shard, std::move(event));
                        }
                    }
                    if (attempt + 1 < budget) {
                        n_retries.fetch_add(1, std::memory_order_relaxed);
                        if constexpr (trace_compiled_in) {
                            if (metrics != nullptr) {
                                metrics->add(shard, mh.retries);
                            }
                        }
                        if (options_.backoff_base_s > 0.0) {
                            std::this_thread::sleep_for(
                                std::chrono::duration<double>(
                                    options_.backoff_base_s *
                                    static_cast<double>(1ULL << attempt)));
                        }
                    } else {
                        n_aborted.fetch_add(1, std::memory_order_relaxed);
                        if constexpr (trace_compiled_in) {
                            if (metrics != nullptr) {
                                metrics->add(shard, mh.aborted_rig);
                            }
                        }
                        log_debug("task ", ctx.index,
                                  ": retry budget exhausted (", budget,
                                  " attempts), recording aborted_rig");
                    }
                }
                ctx.attempt = attempt;
                ctx.aborted = attempt == budget;
            }
            if (timeline != nullptr) {
                task_record& record = task_records[i];
                record.retries = static_cast<std::uint32_t>(
                    ctx.aborted ? budget - 1 : ctx.attempt);
                record.downtime_ms = task_downtime_ms;
            }
            int bucket = -1;
            try {
                bucket = task(ctx);
                if (bucket >= 0) {
                    GB_EXPECTS(bucket < max_buckets);
                    histogram[static_cast<std::size_t>(bucket)].fetch_add(
                        1, std::memory_order_relaxed);
                }
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) {
                    first_error = std::current_exception();
                }
                cancelled.store(true, std::memory_order_relaxed);
                break;
            }
            if constexpr (trace_compiled_in) {
                if (metrics != nullptr) {
                    metrics->add(shard, mh.tasks_completed);
                    metrics->observe(shard, mh.task_ticks, task_ticks);
                    metrics->observe(shard, mh.queue_depth, i);
                }
                if (trace != nullptr) {
                    trace_span span;
                    span.name = "task";
                    span.category = "engine";
                    span.at = trace_point{track_rig, phase, ctx.index, 0};
                    span.duration_ticks = task_ticks;
                    span.args.emplace_back("index",
                                           std::to_string(ctx.index));
                    span.args.emplace_back("bucket",
                                           std::to_string(bucket));
                    if (ctx.attempt > 0 || ctx.aborted) {
                        span.args.emplace_back(
                            "faulted_attempts", std::to_string(ctx.attempt));
                    }
                    if (ctx.aborted) {
                        span.args.emplace_back("aborted", "true");
                    }
                    if (ctx.replayed) {
                        span.args.emplace_back("replayed", "true");
                    }
                    trace->record(shard, std::move(span));
                }
            }
            ++executed;
            const std::size_t completed =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            if (heartbeat && completed % progress_stride == 0 &&
                completed < task_count) {
                // Skip when another worker is mid-publish: heartbeats are
                // best-effort and the next decile refreshes the file.
                if (status_mutex.try_lock()) {
                    publish_live();
                    status_mutex.unlock();
                }
            }
            if (!options_.campaign.empty() &&
                completed % progress_stride == 0 && completed < task_count) {
                std::string buckets;
                for (const auto& b : histogram) {
                    buckets += buckets.empty() ? "" : "/";
                    buckets += std::to_string(
                        b.load(std::memory_order_relaxed));
                }
                log_debug("campaign ", options_.campaign, ": ", completed,
                          "/", task_count, " tasks, outcomes ", buckets);
            }
        }
        if (heartbeat) {
            current_task[static_cast<std::size_t>(worker)].store(
                -1, std::memory_order_relaxed);
        }
        stats.tasks_per_worker[static_cast<std::size_t>(worker)] = executed;
    };

    if (pool == 1) {
        worker_loop(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(pool));
        for (int w = 0; w < pool; ++w) {
            threads.emplace_back(worker_loop, w);
        }
        for (std::thread& t : threads) {
            t.join();
        }
    }
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    for (std::size_t b = 0; b < histogram.size(); ++b) {
        stats.outcome_histogram[b] =
            histogram[b].load(std::memory_order_relaxed);
    }
    stats.retries = n_retries.load(std::memory_order_relaxed);
    stats.aborted_rig = n_aborted.load(std::memory_order_relaxed);
    stats.watchdog_timeouts = n_hangs.load(std::memory_order_relaxed);
    stats.board_crashes = n_crashes.load(std::memory_order_relaxed);
    stats.power_switch_failures = n_switch.load(std::memory_order_relaxed);
    stats.replayed_tasks = n_replayed.load(std::memory_order_relaxed);
    stats.rig_downtime_s =
        static_cast<double>(downtime_us.load(std::memory_order_relaxed)) /
        1e6;

    if (timeline != nullptr) {
        // Serial decile walk over the index-ordered task records: the
        // cumulative values at each boundary depend only on campaign
        // content, never on which worker ran which task.  Boundaries that
        // repeat for tiny task counts are appended once.
        std::uint64_t cumulative_retries = 0;
        std::uint64_t cumulative_downtime_ms = 0;
        std::size_t walked = 0;
        std::size_t previous_boundary = 0;
        for (int decile = 1; decile <= 10; ++decile) {
            const std::size_t boundary =
                task_count * static_cast<std::size_t>(decile) / 10;
            if (boundary == previous_boundary) {
                continue;
            }
            for (; walked < boundary; ++walked) {
                cumulative_retries += task_records[walked].retries;
                cumulative_downtime_ms += task_records[walked].downtime_ms;
            }
            const std::uint64_t tick = timeline->advance();
            timeline->append("engine.progress", tick,
                             static_cast<double>(boundary));
            timeline->append("engine.retries", tick,
                             static_cast<double>(cumulative_retries));
            timeline->append("engine.downtime_ms", tick,
                             static_cast<double>(cumulative_downtime_ms));
            previous_boundary = boundary;
        }
    }

    if constexpr (trace_compiled_in) {
        const std::uint64_t downtime_ms =
            downtime_us.load(std::memory_order_relaxed) / 1000;
        if (trace != nullptr) {
            // One campaign-control span covering the whole run.  Its width
            // is the deterministic virtual total, never wall time, and it
            // deliberately carries no worker-count information.
            trace_span span;
            span.name =
                options_.campaign.empty() ? "engine.run" : options_.campaign;
            span.category = "campaign";
            span.at = trace_point{track_campaign, phase, first_index, 0};
            span.duration_ticks =
                task_count * task_quantum_ticks + downtime_ms;
            span.args.emplace_back("tasks", std::to_string(task_count));
            span.args.emplace_back("first_index",
                                   std::to_string(first_index));
            span.args.emplace_back("faults",
                                   std::to_string(stats.injected_faults()));
            trace->record(0, std::move(span));
        }
        if (metrics != nullptr) {
            metrics->set(0, mh.downtime_ms, phase,
                         static_cast<double>(downtime_ms));
        }
    }

    if (heartbeat) {
        // Final snapshot: deterministic fields only, no `live` object.
        // Every value below is keyed to campaign content, so the file is
        // byte-identical at any worker count.
        campaign_status status;
        status.campaign = options_.campaign;
        status.running = false;
        status.tasks_total = task_count;
        status.tasks_done = done.load(std::memory_order_relaxed);
        status.retries = stats.retries;
        status.injected_faults = stats.injected_faults();
        status.aborted_rig = stats.aborted_rig;
        status.replayed = stats.replayed_tasks;
        status.rig_downtime_ms =
            downtime_us.load(std::memory_order_relaxed) / 1000;
        publish_status(options_.status_path, status);
    }

    if (first_error) {
        std::rethrow_exception(first_error);
    }
    if (!options_.campaign.empty()) {
        log_info("campaign ", options_.campaign, ": ", task_count,
                 " tasks on ", pool, " workers in ", stats.wall_seconds,
                 " s (", stats.runs_per_second(), " runs/s, utilization ",
                 stats.worker_utilization(), ")");
        if (stats.injected_faults() > 0) {
            log_info("campaign ", options_.campaign, ": rig faults ",
                     stats.injected_faults(), " (", stats.watchdog_timeouts,
                     " hang/", stats.board_crashes, " crash/",
                     stats.power_switch_failures, " power-switch), ",
                     stats.retries, " retries, ", stats.aborted_rig,
                     " aborted, ", stats.rig_downtime_s,
                     " s simulated downtime");
        }
    }
    return stats;
}

} // namespace gb
