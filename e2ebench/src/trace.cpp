#include "trace.hpp"

#include <atomic>
#include <fstream>
#include <iomanip>

namespace e2e {
namespace {

/// Small stable per-thread id for the trace's tid column.
unsigned this_thread_tid() {
  static std::atomic<unsigned> next{1};
  thread_local const unsigned tid = next.fetch_add(1);
  return tid;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint64_t id, long parent)
    : tracer_(tracer), start_(std::chrono::steady_clock::now()) {
  if (tracer_.enabled_) index_ = tracer_.open(name, id, parent, start_);
}

void Tracer::Span::arg(const char* key, double value) {
  if (index_ >= 0) tracer_.add_arg(index_, key, value);
}

void Tracer::Span::end() {
  if (!open_) return;
  open_ = false;
  end_ = std::chrono::steady_clock::now();
  if (index_ >= 0) tracer_.close(index_, end_);
}

double Tracer::Span::seconds() const {
  const auto stop = open_ ? std::chrono::steady_clock::now() : end_;
  return std::chrono::duration<double>(stop - start_).count();
}

double Tracer::micros(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

long Tracer::open(const char* name, std::uint64_t id, long parent,
                  std::chrono::steady_clock::time_point start) {
  Record rec;
  rec.name = name;
  rec.id = id;
  rec.parent = parent;
  rec.tid = this_thread_tid();
  rec.start_us = micros(start);
  rec.end_us = rec.start_us;
  std::lock_guard lock(mutex_);
  records_.push_back(std::move(rec));
  return static_cast<long>(records_.size() - 1);
}

void Tracer::close(long index, std::chrono::steady_clock::time_point end) {
  const double end_us = micros(end);
  std::lock_guard lock(mutex_);
  records_[static_cast<std::size_t>(index)].end_us = end_us;
}

void Tracer::add_arg(long index, const char* key, double value) {
  std::lock_guard lock(mutex_);
  records_[static_cast<std::size_t>(index)].args.emplace_back(key, value);
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return records_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(mutex_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << r.tid << std::fixed << std::setprecision(3) << ",\"ts\":" << r.start_us
        << ",\"dur\":" << (r.end_us - r.start_us) << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << r.parent << ",\"id\":" << r.id;
    out << std::defaultfloat << std::setprecision(10);
    for (const auto& [key, value] : r.args) out << ",\"" << key << "\":" << value;
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
