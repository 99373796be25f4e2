#pragma once
/// \file benchmarks.hpp
/// \brief The eight multimedia benchmark applications of the paper's
/// case studies (§III), as built-in Communication Graphs.
///
/// Task counts match the paper exactly: 263dec_mp3dec (14),
/// 263enc_mp3enc (12), DVOPD (32), MPEG-4 (12 tasks / 26 edges),
/// MWD (12 tasks / 12 edges), PIP (8), VOPD (16), Wavelet (22).
/// Structures follow the standard NoC-mapping literature lineage
/// (Bertozzi / Hu-Marculescu benchmark graphs); where the exact figure
/// is not in the paper the structure is a documented reconstruction
/// (DESIGN.md §6). Bandwidth annotations (MB/s) are best-effort
/// literature values — the paper's IL/SNR objectives are
/// structure-only, so they do not influence the reproduced results.

#include <string>
#include <vector>

#include "graph/comm_graph.hpp"

namespace phonoc {

/// Names of the built-in benchmarks, in the paper's Table II order:
/// "263dec_mp3dec", "263enc_mp3enc", "dvopd", "mpeg4", "mwd", "pip",
/// "vopd", "wavelet".
[[nodiscard]] std::vector<std::string> benchmark_names();

/// Build a benchmark CG by name (case-insensitive); throws
/// InvalidArgument for unknown names.
[[nodiscard]] CommGraph make_benchmark(const std::string& name);

}  // namespace phonoc
