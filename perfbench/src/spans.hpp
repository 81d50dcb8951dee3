// Host-time span recorder for the benchmark's traced run.
//
// Spans are taken around calls into the library's public API from the
// benchmark's own code; nothing inside the library is instrumented.  The
// main thread opens nested spans with `scoped_span`; engine workers (the
// fleet probe wrapper, the journal sink) record leaf spans with
// `record_leaf`, parented to whatever span the main thread has open.  Each
// thread appends to its own buffer, so recording takes no lock after a
// thread's first span.  All buffers are read only after the engine has
// joined its workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

/// Milliseconds of host steady-clock time since process start.
double now_ms();

struct span {
    const char* name = "";
    double start_ms = 0.0;
    double end_ms = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0: a root span
    std::uint64_t op = 0;     ///< id of the root span (epoch/campaign/study)
    std::uint32_t thread = 0; ///< recording thread, numbered by first span

    [[nodiscard]] double duration_ms() const { return end_ms - start_ms; }
};

class span_recorder {
public:
    void set_enabled(bool on) { enabled_.store(on); }
    [[nodiscard]] bool enabled() const { return enabled_.load(); }

    /// Record a finished leaf span from any thread.  Its parent is the
    /// innermost span the main thread has open.
    void record_leaf(const char* name, double start_ms, double end_ms);

    /// Every span recorded so far, by start time.
    [[nodiscard]] std::vector<span> collect() const;

private:
    friend class scoped_span;
    std::uint64_t open(std::uint64_t& parent, std::uint64_t& op);
    void close(const span& s);
    std::vector<span>& buffer();

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<std::uint64_t> main_top_{0};  ///< innermost open span
    std::atomic<std::uint64_t> main_root_{0}; ///< outermost open span
    mutable std::mutex buffers_mutex_;
    std::vector<std::unique_ptr<std::vector<span>>> buffers_;
};

/// RAII span on the main thread; a no-op while the recorder is disabled.
class scoped_span {
public:
    scoped_span(span_recorder& recorder, const char* name);
    ~scoped_span();
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    span_recorder* recorder_; ///< null when disabled
    span span_;
};

/// Unbuffered in-memory sink for `campaign_journal(std::ostream&)` that
/// records one `journal.write` span per write when the recorder is on.
class journal_sink : public std::streambuf {
public:
    explicit journal_sink(span_recorder& recorder) : recorder_(recorder) {}

    [[nodiscard]] const std::string& bytes() const { return bytes_; }
    [[nodiscard]] std::uint64_t lines() const { return lines_; }

protected:
    std::streamsize xsputn(const char* s, std::streamsize n) override;
    int_type overflow(int_type c) override;

private:
    span_recorder& recorder_;
    std::string bytes_;
    std::uint64_t lines_ = 0;
};

} // namespace perfbench
