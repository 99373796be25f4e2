#include "common.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

using phonoc::CellResult;
using phonoc::CellStatus;

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics[name] = Metric{value, unit, samples};
}

void Report::count(bool ok, bool correct) {
  ++attempted;
  if (!ok || !correct) ++failed;
  if (!correct) ++incorrect;
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::size_t cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

}  // namespace

void Report::write_json(const std::string& path,
                        const RunConfig& config) const {
  std::ostringstream out;
  out << "{\"correct\": " << (incorrect == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"incorrect\": " << incorrect << ",\n\"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "\n" : ",\n") << "  " << json_string(name)
        << ": {\"value\": " << json_number(metric.value)
        << ", \"unit\": " << json_string(metric.unit)
        << ", \"samples\": " << metric.samples << "}";
    first = false;
  }
  out << "},\n\"host\": {\"nproc\": " << cpus_available()
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"workload\": " << json_string(config.workload)
      << ", \"seed\": " << config.seed
      << ", \"seconds\": " << json_number(config.seconds)
      << ", \"trace\": " << (config.trace ? 1 : 0) << "},\n\"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i)
    out << (i ? ", " : "") << json_string(notes[i]);
  out << "],\n\"service_traces\": [";
  for (std::size_t i = 0; i < service_traces.size(); ++i) {
    const auto& input = service_traces[i];
    out << (i ? ",\n" : "\n") << "  {\"trace\": "
        << json_string(input.trace_path) << ", \"requests\": [";
    for (std::size_t r = 0; r < input.request_latency_ms.size(); ++r)
      out << (r ? ", " : "") << "["
          << json_string(input.request_latency_ms[r].first) << ", "
          << json_number(input.request_latency_ms[r].second) << "]";
    out << "]}";
  }
  out << "],\n\"sched_traces\": [";
  for (std::size_t i = 0; i < sched_traces.size(); ++i) {
    const auto& input = sched_traces[i];
    out << (i ? ",\n" : "\n") << "  {\"scheduler\": "
        << json_string(input.scheduler_trace) << ", \"workers\": [";
    for (std::size_t w = 0; w < input.worker_traces.size(); ++w)
      out << (w ? ", " : "") << json_string(input.worker_traces[w]);
    out << "]}";
  }
  out << "]}\n";
  std::ofstream file(path);
  file << out.str();
  if (!file) throw std::runtime_error("cannot write " + path);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double max_of(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::max_element(samples.begin(), samples.end());
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool identical_cells(const CellResult& got, const CellResult& want) {
  if (got.status != CellStatus::Ok || want.status != CellStatus::Ok ||
      got.seed != want.seed)
    return false;
  const auto& g = got.run;
  const auto& w = want.run;
  return g.algorithm == w.algorithm && g.search.best == w.search.best &&
         g.search.best_fitness == w.search.best_fitness &&
         g.search.evaluations == w.search.evaluations &&
         g.search.iterations == w.search.iterations &&
         g.best_evaluation.worst_loss_db == w.best_evaluation.worst_loss_db &&
         g.best_evaluation.worst_snr_db == w.best_evaluation.worst_snr_db;
}

void corrupt(CellResult& reference) {
  reference.run.search.best_fitness =
      std::nextafter(reference.run.search.best_fitness, 1e300);
}

double peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  return 0.0;
}

// --- Daemon ------------------------------------------------------------------

Daemon::Daemon(const std::string& binary,
               const std::vector<std::string>& args,
               const std::string& log_path)
    : log_path_(log_path) {
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  // Truncated here, before the fork: wait_port must never see the port
  // line of an earlier daemon that logged to the same file.
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot create " + log_path);

  pid_ = fork();
  if (pid_ == 0) {
    // Child: die with the driver, log stdout+stderr, exec the daemon.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(log_fd);
  if (pid_ < 0) throw std::runtime_error("fork failed for " + binary);
}

Daemon::~Daemon() { kill(); }

std::uint16_t Daemon::wait_port(double timeout_seconds) {
  const double deadline = now_seconds() + timeout_seconds;
  const std::string marker = "listening on 127.0.0.1:";
  while (now_seconds() < deadline) {
    std::ifstream log(log_path_);
    std::string line;
    while (std::getline(log, line)) {
      const auto at = line.find(marker);
      if (at == std::string::npos) continue;
      port_ = static_cast<std::uint16_t>(
          std::stoul(line.substr(at + marker.size())));
      return port_;
    }
    int status = 0;
    if (pid_ > 0 && waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon exited before listening (see " +
                               log_path_ + ")");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw std::runtime_error("daemon did not report a port within " +
                           std::to_string(timeout_seconds) + " s");
}

std::string Daemon::endpoint() const {
  return "127.0.0.1:" + std::to_string(port_);
}

double Daemon::peak_rss_mb() const {
  return pid_ > 0 ? perfbench::peak_rss_mb(pid_) : 0.0;
}

bool Daemon::wait_exit(double timeout_seconds) {
  const double deadline = now_seconds() + timeout_seconds;
  while (pid_ > 0) {
    int status = 0;
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || done < 0) {
      pid_ = -1;
      return true;
    }
    if (now_seconds() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

void Daemon::kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
}

std::string work_file(const RunConfig& config, const std::string& name) {
  return config.work_dir + "/" + name;
}

}  // namespace perfbench
