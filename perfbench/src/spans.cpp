#include "spans.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {

const auto process_start = std::chrono::steady_clock::now();

thread_local std::vector<span>* tl_buffer = nullptr;
thread_local const span_recorder* tl_owner = nullptr;

} // namespace

double now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - process_start)
        .count();
}

std::vector<span>& span_recorder::buffer() {
    if (tl_owner != this) {
        auto owned = std::make_unique<std::vector<span>>();
        owned->reserve(1024);
        tl_buffer = owned.get();
        tl_owner = this;
        const std::lock_guard<std::mutex> lock(buffers_mutex_);
        buffers_.push_back(std::move(owned));
    }
    return *tl_buffer;
}

void span_recorder::record_leaf(const char* name, double start_ms,
                                double end_ms) {
    if (!enabled()) {
        return;
    }
    span s;
    s.name = name;
    s.start_ms = start_ms;
    s.end_ms = end_ms;
    s.id = next_id_.fetch_add(1);
    s.parent = main_top_.load();
    s.op = main_root_.load();
    buffer().push_back(s);
}

std::uint64_t span_recorder::open(std::uint64_t& parent, std::uint64_t& op) {
    const std::uint64_t id = next_id_.fetch_add(1);
    parent = main_top_.load();
    if (parent == 0) {
        main_root_.store(id);
    }
    op = main_root_.load();
    main_top_.store(id);
    return id;
}

void span_recorder::close(const span& s) {
    main_top_.store(s.parent);
    if (s.parent == 0) {
        main_root_.store(0);
    }
    buffer().push_back(s);
}

std::vector<span> span_recorder::collect() const {
    std::vector<span> all;
    const std::lock_guard<std::mutex> lock(buffers_mutex_);
    for (std::size_t t = 0; t < buffers_.size(); ++t) {
        for (span s : *buffers_[t]) {
            s.thread = static_cast<std::uint32_t>(t);
            all.push_back(s);
        }
    }
    std::sort(all.begin(), all.end(), [](const span& a, const span& b) {
        return a.start_ms < b.start_ms;
    });
    return all;
}

scoped_span::scoped_span(span_recorder& recorder, const char* name)
    : recorder_(recorder.enabled() ? &recorder : nullptr) {
    if (recorder_ == nullptr) {
        return;
    }
    span_.name = name;
    span_.id = recorder_->open(span_.parent, span_.op);
    span_.start_ms = now_ms();
}

scoped_span::~scoped_span() {
    if (recorder_ == nullptr) {
        return;
    }
    span_.end_ms = now_ms();
    recorder_->close(span_);
}

std::streamsize journal_sink::xsputn(const char* s, std::streamsize n) {
    const double start = recorder_.enabled() ? now_ms() : 0.0;
    bytes_.append(s, static_cast<std::size_t>(n));
    lines_ += static_cast<std::uint64_t>(std::count(s, s + n, '\n'));
    if (recorder_.enabled()) {
        recorder_.record_leaf("journal.write", start, now_ms());
    }
    return n;
}

journal_sink::int_type journal_sink::overflow(int_type c) {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
        const char ch = traits_type::to_char_type(c);
        xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
}

} // namespace perfbench
