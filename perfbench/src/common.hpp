#pragma once
/// \file common.hpp
/// \brief Shared pieces of the perfbench driver: the result ledger that
/// becomes the driver's JSON output, sample statistics, daemon process
/// management, and the bit-identity comparator every workload's
/// correctness gate uses.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/batch_engine.hpp"

namespace perfbench {

/// Command-line settings of one driver run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Perturb every reference before comparing: the self-test proves the
  /// correctness gate trips.
  bool inject_wrong_reference = false;
  std::string work_dir;  ///< trace files and daemon logs go here
};

/// One reported metric value, with the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Trace files a traced phonocd run left behind, plus the client-side
/// latency of every interactive request (matched to spans by id).
struct ServiceTraceInput {
  std::string trace_path;
  std::vector<std::pair<std::string, double>> request_latency_ms;
};

/// Scheduler-side and worker-side trace files of a traced fleet run.
struct SchedTraceInput {
  std::string scheduler_trace;
  std::vector<std::string> worker_traces;  ///< index = host index
};

/// Everything one driver run reports.
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;     ///< failed, rejected, timed out or wrong
  std::uint64_t incorrect = 0;  ///< subset of failed: wrong results
  std::vector<std::string> notes;
  std::vector<ServiceTraceInput> service_traces;
  std::vector<SchedTraceInput> sched_traces;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  /// Count one checked operation.
  void count(bool ok, bool correct = true);
  void write_json(const std::string& path, const RunConfig& config) const;
};

// --- statistics --------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]) of the samples; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}
[[nodiscard]] double max_of(const std::vector<double>& samples);

/// CPU-bound throughput metrics report this quantile of their per-unit
/// rates (a round, a sweep, a bulk request): on shared hosts the CPU
/// speed drifts by tens of percent over seconds to minutes, and a high
/// quantile tracks the rate the code sustains while neighbours are quiet
/// far more steadily than a mean or median does.
inline constexpr double kRateQuantile = 0.75;

/// SplitMix64: derives independent sub-seeds from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Seconds on the steady clock since an arbitrary epoch.
[[nodiscard]] double now_seconds();

// --- correctness -------------------------------------------------------------

/// Bit-exact comparison of the determinism-contract fields of two
/// Optimize cells (everything except the timing fields).
[[nodiscard]] bool identical_cells(const phonoc::CellResult& got,
                                   const phonoc::CellResult& want);

/// Flip the lowest bit of a reference cell's best fitness (the injected
/// wrong reference of the self-test).
void corrupt(phonoc::CellResult& reference);

// --- processes ---------------------------------------------------------------

/// VmHWM (peak resident set) of a process in MiB, from /proc/<pid>/status;
/// 0 when unreadable.
[[nodiscard]] double peak_rss_mb(pid_t pid);

/// A daemon child process (phonocd or phonoc_workerd). Its stdout goes
/// to a log file that wait_port() polls for the "listening on host:port"
/// line. The child dies with the driver (PR_SET_PDEATHSIG), and the
/// destructor kills and reaps it on every exit path.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The bound port, read back from the daemon's stdout. Throws when the
  /// line does not appear within `timeout_seconds` or the child exits.
  [[nodiscard]] std::uint16_t wait_port(double timeout_seconds);
  [[nodiscard]] std::string endpoint() const;
  [[nodiscard]] double peak_rss_mb() const;
  /// Wait for a voluntary exit; false (child still running) on timeout.
  bool wait_exit(double timeout_seconds);
  /// SIGKILL and reap (no-op once reaped).
  void kill();

 private:
  pid_t pid_ = -1;
  std::string log_path_;
  std::uint16_t port_ = 0;
};

/// Name of a file inside the run's work directory.
[[nodiscard]] std::string work_file(const RunConfig& config,
                                    const std::string& name);

}  // namespace perfbench
