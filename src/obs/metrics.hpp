#pragma once
/// \file metrics.hpp
/// \brief Fleet telemetry: registries of named counters, gauges and
/// fixed-bin histograms with Prometheus text exposition.
///
/// Any layer registers a metric once (name + help + optional labels)
/// and holds the returned reference; increments are single relaxed
/// atomic ops, so instrumenting a hot seam costs nanoseconds and never
/// locks. Metrics of the same name but different label sets form one
/// family and render under one `# HELP`/`# TYPE` header, e.g.
///
///     # HELP phonoc_sched_units_total Work units acquired by path.
///     # TYPE phonoc_sched_units_total counter
///     phonoc_sched_units_total{path="steal"} 4
///     phonoc_sched_units_total{path="own"} 28
///
/// Naming follows Prometheus conventions: `phonoc_<layer>_<what>` with
/// a `_total` suffix for monotonic counters and base-unit names
/// (`_seconds`, `_cells`). Labels are for low-cardinality dimensions —
/// host, backend, task kind, acquire path — never per-request ids.
/// phonocd serves its broker's own registry (the `phonocd_*` families)
/// followed by the global one over the framed `stats prometheus`
/// request and the plain HTTP `--prom-port` listener (see
/// obs/prom_http.hpp).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace phonoc::obs {

/// One `key="value"` pair of a metric instance.
struct MetricLabel {
  std::string key;
  std::string value;
};
using MetricLabels = std::vector<MetricLabel>;

/// Monotonic counter (Prometheus type `counter`).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Settable point-in-time value (Prometheus type `gauge`).
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (Prometheus type `histogram`): cumulative
/// `_bucket{le=...}` counts plus `_sum` and `_count`, and the observed
/// max. Bucket bounds are fixed at registration, so observing is a few
/// relaxed atomic ops and a small linear scan — constant-size state
/// however many observations. Meant for non-negative observations
/// (durations, sizes).
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> upper_bounds);

  void observe(double value) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// sum() / count(); 0 while empty.
  [[nodiscard]] double mean() const noexcept;
  /// Largest observation; 0 while empty.
  [[nodiscard]] double max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  /// The q-quantile (q in [0, 1]): linear interpolation inside the
  /// bucket that holds rank q * count, clamped to max() — so it is off
  /// by at most one bucket and never reports more than was observed.
  /// 0 while empty.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Observations <= bounds()[i] (non-cumulative slot counts are
  /// internal; this is the cumulative Prometheus view). i == size()
  /// is the +Inf bucket == count().
  [[nodiscard]] std::uint64_t cumulative(std::size_t i) const noexcept;

 private:
  std::vector<double> bounds_;  ///< sorted upper bounds, +Inf implicit
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;  ///< per-interval
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// The registry: register-once, increment-forever. Registration takes a
/// mutex (do it at startup or cache the reference); the returned
/// references stay valid for the registry's lifetime. Besides the
/// process-wide global() one, a component may own an instance (each
/// phonocd broker does, so its counts are its own).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every instrumentation seam feeds.
  [[nodiscard]] static MetricsRegistry& global();

  [[nodiscard]] Counter& counter(std::string_view name,
                                 std::string_view help,
                                 MetricLabels labels = {});
  [[nodiscard]] Gauge& gauge(std::string_view name, std::string_view help,
                             MetricLabels labels = {});
  [[nodiscard]] HistogramMetric& histogram(std::string_view name,
                                           std::string_view help,
                                           std::vector<double> upper_bounds,
                                           MetricLabels labels = {});

  /// Prometheus text exposition format (0.0.4): families sorted by
  /// name, one HELP/TYPE header per family, instances in registration
  /// order.
  [[nodiscard]] std::string render_prometheus() const;

  /// (name, value) of every unlabelled counter and gauge, in
  /// registration order — the flat view behind phonocd's `stats` lines.
  [[nodiscard]] std::vector<std::pair<std::string, double>> scalar_values()
      const;

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Instance {
    std::string label_text;  ///< pre-rendered `key="value",...`
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    Kind kind = Kind::Counter;
    std::vector<Instance> instances;
  };

  Family& family_of(std::string_view name, std::string_view help, Kind kind);
  Instance& instance_of(Family& family, const MetricLabels& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_;
};

}  // namespace phonoc::obs
