/// \file golden_regen.cpp
/// \brief Rewrites the golden cell set (tests/golden/) from this build.
///
///     golden_regen [DIR]    (default: the source tree's tests/golden)
///
/// Run it only for an intended model change, and say in the change log
/// which cells moved and why (tests/golden/README.md). test_golden then
/// checks every later build against the rewritten files.

#include <fstream>
#include <iostream>
#include <string>

#include "exec/thread_pool.hpp"
#include "golden.hpp"

namespace {

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (out) return true;
  std::cerr << "golden_regen: cannot write " << path << "\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace phonoc;
  const std::string dir = argc > 1 ? argv[1] : golden::directory();
  const auto cells =
      golden::run_cells(ThreadPool::default_worker_count());
  if (!write_file(dir + '/' + golden::kCellsFile, golden::cells_text(cells)) ||
      !write_file(dir + '/' + golden::kTableFile,
                  golden::best_fitness_table(cells)))
    return 1;
  std::cout << "golden_regen: " << cells.size() << " cells written to "
            << dir << std::endl;
  return 0;
}
