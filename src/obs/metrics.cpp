#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace phonoc::obs {

namespace {

/// Escape HELP text: backslash and newline only (quotes are legal there).
std::string escape_help(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Escape a label value (backslash, quote, newline) per the exposition
/// format.
std::string prometheus_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Render `key="value",...` (no braces) from a label list.
std::string prometheus_label_text(const MetricLabels& labels) {
  std::string out;
  for (const MetricLabel& label : labels) {
    if (!out.empty()) out += ',';
    out += label.key + "=\"" + prometheus_escape(label.value) + "\"";
  }
  return out;
}

/// Render a double the way Prometheus expects: shortest faithful
/// decimal, `+Inf`/`-Inf`/`NaN` spelled out.
std::string format_value(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  // Prefer the shorter %g rendering when it round-trips exactly.
  char short_buffer[64];
  std::snprintf(short_buffer, sizeof short_buffer, "%g", value);
  double parsed = 0.0;
  if (std::sscanf(short_buffer, "%lf", &parsed) == 1 && parsed == value) {
    return short_buffer;
  }
  return buffer;
}

/// Append `# HELP`/`# TYPE` lines.
void append_prometheus_header(std::string& out, std::string_view name,
                              std::string_view help, const char* type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += escape_help(help);
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

/// Append one `name{labels} value` sample line (labels may be empty).
void append_prometheus_sample(std::string& out, std::string_view name,
                              const std::string& label_text,
                              const std::string& value) {
  out += name;
  if (!label_text.empty()) {
    out += '{';
    out += label_text;
    out += '}';
  }
  out += ' ';
  out += value;
  out += '\n';
}

}  // namespace

// --- HistogramMetric -------------------------------------------------------

HistogramMetric::HistogramMetric(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  slots_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) slots_[i].store(0);
}

void HistogramMetric::observe(double value) noexcept {
  std::size_t slot = bounds_.size();  // +Inf interval by default
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      slot = i;
      break;
    }
  }
  slots_[slot].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
  double top = max_.load(std::memory_order_relaxed);
  while (value > top && !max_.compare_exchange_weak(
                            top, value, std::memory_order_relaxed)) {
  }
}

double HistogramMetric::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double HistogramMetric::quantile(double q) const noexcept {
  // Slot counts only grow, so the rank taken from this first pass is
  // always reached in the second.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    total += slots_[i].load(std::memory_order_relaxed);
  if (total == 0) return 0.0;
  const double top = max();
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  double below = 0.0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const auto in_slot =
        static_cast<double>(slots_[i].load(std::memory_order_relaxed));
    if (in_slot > 0.0 && below + in_slot >= rank) {
      // Slot i spans (bounds_[i - 1], bounds_[i]]; the max caps the top
      // occupied slot, the +Inf one included.
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = i < bounds_.size() ? std::min(bounds_[i], top) : top;
      return std::min(lo + (hi - lo) * (rank - below) / in_slot, top);
    }
    below += in_slot;
  }
  return top;
}

std::uint64_t HistogramMetric::cumulative(std::size_t i) const noexcept {
  std::uint64_t total = 0;
  const std::size_t last = i < bounds_.size() ? i : bounds_.size();
  for (std::size_t s = 0; s <= last; ++s) {
    total += slots_[s].load(std::memory_order_relaxed);
  }
  return total;
}

// --- MetricsRegistry -------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Family& MetricsRegistry::family_of(std::string_view name,
                                                    std::string_view help,
                                                    Kind kind) {
  for (auto& family : families_) {
    if (family->name == name) return *family;
  }
  auto family = std::make_unique<Family>();
  family->name = std::string(name);
  family->help = std::string(help);
  family->kind = kind;
  families_.push_back(std::move(family));
  return *families_.back();
}

MetricsRegistry::Instance& MetricsRegistry::instance_of(
    Family& family, const MetricLabels& labels) {
  const std::string label_text = prometheus_label_text(labels);
  for (auto& instance : family.instances) {
    if (instance.label_text == label_text) return instance;
  }
  family.instances.emplace_back();
  family.instances.back().label_text = label_text;
  return family.instances.back();
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  MetricLabels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = family_of(name, help, Kind::Counter);
  Instance& instance = instance_of(family, labels);
  if (!instance.counter) instance.counter = std::make_unique<Counter>();
  return *instance.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              MetricLabels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = family_of(name, help, Kind::Gauge);
  Instance& instance = instance_of(family, labels);
  if (!instance.gauge) instance.gauge = std::make_unique<Gauge>();
  return *instance.gauge;
}

HistogramMetric& MetricsRegistry::histogram(std::string_view name,
                                            std::string_view help,
                                            std::vector<double> upper_bounds,
                                            MetricLabels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = family_of(name, help, Kind::Histogram);
  Instance& instance = instance_of(family, labels);
  if (!instance.histogram) {
    instance.histogram =
        std::make_unique<HistogramMetric>(std::move(upper_bounds));
  }
  return *instance.histogram;
}

std::string MetricsRegistry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Sort family pointers by name for a stable, diff-friendly exposition.
  std::vector<const Family*> sorted;
  sorted.reserve(families_.size());
  for (const auto& family : families_) sorted.push_back(family.get());
  std::sort(sorted.begin(), sorted.end(),
            [](const Family* a, const Family* b) { return a->name < b->name; });

  std::string out;
  for (const Family* family : sorted) {
    const char* type = family->kind == Kind::Counter   ? "counter"
                       : family->kind == Kind::Gauge   ? "gauge"
                                                       : "histogram";
    append_prometheus_header(out, family->name, family->help, type);
    for (const Instance& instance : family->instances) {
      if (instance.counter) {
        append_prometheus_sample(out, family->name, instance.label_text,
                                 std::to_string(instance.counter->value()));
      } else if (instance.gauge) {
        append_prometheus_sample(out, family->name, instance.label_text,
                                 format_value(instance.gauge->value()));
      } else if (instance.histogram) {
        const HistogramMetric& h = *instance.histogram;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          std::string labels = instance.label_text;
          if (!labels.empty()) labels += ',';
          labels += "le=\"" + format_value(h.bounds()[i]) + "\"";
          append_prometheus_sample(out, std::string(family->name) + "_bucket",
                                   labels, std::to_string(h.cumulative(i)));
        }
        std::string inf_labels = instance.label_text;
        if (!inf_labels.empty()) inf_labels += ',';
        inf_labels += "le=\"+Inf\"";
        append_prometheus_sample(out, std::string(family->name) + "_bucket",
                                 inf_labels, std::to_string(h.count()));
        append_prometheus_sample(out, std::string(family->name) + "_sum",
                                 instance.label_text, format_value(h.sum()));
        append_prometheus_sample(out, std::string(family->name) + "_count",
                                 instance.label_text,
                                 std::to_string(h.count()));
      }
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::scalar_values()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, double>> values;
  for (const auto& family : families_) {
    for (const Instance& instance : family->instances) {
      if (!instance.label_text.empty()) continue;
      if (instance.counter) {
        values.emplace_back(family->name,
                            static_cast<double>(instance.counter->value()));
      } else if (instance.gauge) {
        values.emplace_back(family->name, instance.gauge->value());
      }
    }
  }
  return values;
}

}  // namespace phonoc::obs
