#ifndef E2EBENCH_TRACE_HPP
#define E2EBENCH_TRACE_HPP
// In-memory span recorder for the traced run. The benchmark opens a span
// around each call it makes into a layer of the program; nothing inside the
// program is instrumented. Spans carry a name, start, end, parent span and
// an id shared by every span of one graph or request, and are written at
// exit as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// One timed call. Always measures its own duration; it is recorded in
  /// the tracer only when tracing is enabled. `parent` is the index() of
  /// the enclosing span, or -1 for a top-level span.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t id, long parent = -1);
    ~Span() { end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Attaches a numeric argument (a counter read at this boundary).
    void arg(const char* key, double value);
    /// Closes the span; later calls are no-ops.
    void end();
    /// Duration in seconds (up to now while the span is still open).
    double seconds() const;
    long index() const noexcept { return index_; }

   private:
    Tracer& tracer_;
    long index_ = -1;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point end_{};
    bool open_ = true;
  };

  /// Writes every recorded span as Chrome trace-event JSON. Returns false
  /// when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;
  std::size_t size() const;

 private:
  struct Record {
    const char* name = "";
    std::uint64_t id = 0;
    long parent = -1;
    unsigned tid = 0;
    double start_us = 0.0;
    double end_us = 0.0;
    std::vector<std::pair<const char*, double>> args;
  };
  long open(const char* name, std::uint64_t id, long parent,
            std::chrono::steady_clock::time_point start);
  void close(long index, std::chrono::steady_clock::time_point end);
  void add_arg(long index, const char* key, double value);
  double micros(std::chrono::steady_clock::time_point t) const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

}  // namespace e2e

#endif  // E2EBENCH_TRACE_HPP
