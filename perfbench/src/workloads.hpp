#pragma once
/// \file workloads.hpp
/// \brief The three benchmark workloads and the probes a traced run adds
/// for the layers a workload does not cross.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/problem.hpp"
#include "exec/sweep.hpp"
#include "service/protocol.hpp"

namespace perfbench {

/// svc_interactive (mixed = false) and svc_mixed (mixed = true).
void run_service_workload(const RunConfig& config, bool mixed, Report& report);
/// fleet_sweep.
void run_fleet_workload(const RunConfig& config, Report& report);

/// Traced runs of workloads that do not cross the service layer send
/// `requests` (1-cell requests drawn from the workload's own cells)
/// through a traced phonocd: once to warm it, once measured.
void service_probe(const RunConfig& config,
                   const std::vector<phonoc::ServiceRequest>& requests,
                   Report& report);

/// Traced runs of workloads that do not cross the sched layer run `spec`
/// (the workload's own cells) once through Scheduler::run on two traced
/// TCP phonoc_workerd daemons.
void sched_probe(const RunConfig& config, const phonoc::SweepSpec& spec,
                 Report& report);

/// One optimizer run of the in-process layer probe.
struct ProbeCell {
  std::shared_ptr<const phonoc::MappingProblem> problem;
  std::string optimizer;
  phonoc::TopologyKind topology = phonoc::TopologyKind::Mesh;
  std::uint32_t side = 0;  ///< resolved grid side of the problem's network
  std::uint64_t max_evaluations = 0;
  std::uint64_t seed = 0;
};

/// In-process model/core/mapping probe on the workload's own problems:
/// kernel unit costs, plan and network build times, Evaluator counters,
/// and the optimizer self-time share through a timing FitnessFunction
/// decorator.
void layer_probe(const std::vector<ProbeCell>& cells, Report& report);

/// The 1-cell Optimize request for one cell of `spec`.
[[nodiscard]] phonoc::ServiceRequest single_cell_request(
    const phonoc::SweepSpec& spec, const phonoc::SweepCell& cell,
    const std::string& id);

}  // namespace perfbench
