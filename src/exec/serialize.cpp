#include "exec/serialize.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "io/cg_io.hpp"
#include "model/network_model.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace phonoc {
namespace {

constexpr const char* kCellMagic = "phonoc-cell v1";

/// Bound on a cell block's mapping tile count, which sizes the mapping's
/// tile table: a 1024 x 1024 grid, far beyond any network the model can
/// build (its path table grows with tiles^2).
constexpr std::size_t kMaxWireTiles = std::size_t{1} << 20;

// --- writing helpers -------------------------------------------------------

void write_doubles(std::ostream& out, std::initializer_list<double> values) {
  for (const double v : values) out << ' ' << format_double(v);
}

std::string fidelity_name(ModelFidelity f) {
  return f == ModelFidelity::Full ? "full" : "simplified";
}

std::string conflict_name(ConflictPolicy p) {
  return p == ConflictPolicy::Ignore ? "ignore" : "exclude";
}

// --- reading helpers -------------------------------------------------------

/// Line reader with position tracking; '#' comments and blank lines are
/// skipped so shard files can be annotated by hand.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  /// Next meaningful line; nullopt at EOF. Blank lines and whole-line
  /// comments are always skipped. By default everything after '#' is
  /// stripped; `keep_inline_comment` returns the line verbatim instead —
  /// required for free-text payloads (`failed` diagnostics, `workload`
  /// names) that may legitimately contain '#'.
  std::optional<std::string> next(bool keep_inline_comment = false) {
    if (pending_) {
      auto line = std::move(*pending_);
      pending_.reset();
      return line;
    }
    std::string line;
    while (std::getline(in_, line)) {
      ++line_no_;
      std::string stripped = line;
      const auto hash = stripped.find('#');
      if (hash != std::string::npos) stripped.erase(hash);
      if (trim(stripped).empty()) continue;  // blank or comment-only
      return keep_inline_comment ? line : stripped;
    }
    return std::nullopt;
  }

  /// Next line, required to exist.
  std::string require_line(const std::string& context,
                           bool keep_inline_comment = false) {
    auto line = next(keep_inline_comment);
    if (!line)
      throw ParseError("unexpected end of stream while reading " + context,
                       line_no_);
    return *line;
  }

  /// Next line split on whitespace, with the first field required to be
  /// `keyword`.
  std::vector<std::string> expect(const std::string& keyword) {
    const auto fields = split_ws(require_line(keyword));
    if (fields.empty() || fields[0] != keyword)
      throw ParseError("expected '" + keyword + "' directive", line_no_);
    return fields;
  }

  /// Give back an already-consumed (stripped) line; the next next()
  /// returns it again. One level deep — enough to peek at an optional
  /// directive and step back when it is something else.
  void push_back(std::string line) { pending_ = std::move(line); }

  [[nodiscard]] int line() const noexcept { return line_no_; }

 private:
  std::istream& in_;
  std::optional<std::string> pending_;
  int line_no_ = 0;
};

void check_arity(const std::vector<std::string>& fields, std::size_t want,
                 int line) {
  if (fields.size() != want)
    throw ParseError("directive '" + fields[0] + "' expects " +
                         std::to_string(want - 1) + " field(s)",
                     line);
}

ModelFidelity parse_fidelity(const std::string& name, int line) {
  if (name == "simplified") return ModelFidelity::Simplified;
  if (name == "full") return ModelFidelity::Full;
  throw ParseError("unknown model fidelity '" + name + "'", line);
}

ConflictPolicy parse_conflict(const std::string& name, int line) {
  if (name == "exclude") return ConflictPolicy::Exclude;
  if (name == "ignore") return ConflictPolicy::Ignore;
  throw ParseError("unknown conflict policy '" + name + "'", line);
}

OptimizationGoal parse_goal(const std::string& name, int line) {
  if (name == to_string(OptimizationGoal::InsertionLoss))
    return OptimizationGoal::InsertionLoss;
  if (name == to_string(OptimizationGoal::Snr)) return OptimizationGoal::Snr;
  throw ParseError("unknown optimization goal '" + name + "'", line);
}

TopologyKind parse_topology_kind(const std::string& name, int line) {
  if (name == to_string(TopologyKind::Mesh)) return TopologyKind::Mesh;
  if (name == to_string(TopologyKind::Torus)) return TopologyKind::Torus;
  throw ParseError("unknown topology kind '" + name + "'", line);
}

/// Rest of `line` after the leading keyword (workload names may contain
/// spaces; everything else on the line is the name).
std::string rest_after_keyword(const std::string& line,
                               const std::string& keyword) {
  const auto pos = line.find(keyword);
  return std::string(trim(line.substr(pos + keyword.size())));
}

}  // namespace

// --- spec ------------------------------------------------------------------

void write_spec(std::ostream& out, const SweepSpec& spec) {
  out << "router " << spec.router << '\n';
  out << "tile_pitch_mm " << format_double(spec.tile_pitch_mm) << '\n';
  const auto& p = spec.parameters;
  out << "parameters";
  write_doubles(out, {p.crossing_loss_db, p.propagation_loss_db_per_cm,
                      p.ppse_off_loss_db, p.ppse_on_loss_db,
                      p.cpse_off_loss_db, p.cpse_on_loss_db,
                      p.crossing_crosstalk_db, p.pse_off_crosstalk_db,
                      p.pse_on_crosstalk_db});
  out << '\n';
  out << "model " << fidelity_name(spec.model_options.fidelity) << ' '
      << conflict_name(spec.model_options.conflict_policy) << ' '
      << format_double(spec.model_options.snr_ceiling_db) << '\n';
  // Emitted only for Sample grids so Optimize shards stay byte-identical
  // to what pre-sampling readers expect (new readers accept both).
  if (spec.task_kind == SweepTaskKind::Sample) {
    out << "task_kind sample\n";
    const auto& s = spec.sampling;
    out << "sampling " << s.samples_per_cell;
    write_doubles(out, {s.snr_lo_db, s.snr_hi_db});
    out << ' ' << s.snr_bins;
    write_doubles(out, {s.loss_lo_db, s.loss_hi_db});
    out << ' ' << s.loss_bins << '\n';
  }

  out << "goals " << spec.goals.size();
  for (const auto goal : spec.goals) out << ' ' << to_string(goal);
  out << '\n';
  out << "optimizers " << spec.optimizers.size();
  for (const auto& name : spec.optimizers) out << ' ' << name;
  out << '\n';
  out << "budgets " << spec.budgets.size() << '\n';
  for (const auto& budget : spec.budgets)
    out << "budget " << budget.max_evaluations << ' '
        << format_double(budget.max_seconds) << '\n';
  out << "seeds " << spec.seeds.size();
  for (const auto seed : spec.seeds) out << ' ' << seed;
  out << '\n';
  out << "topologies " << spec.topologies.size() << '\n';
  for (const auto& topo : spec.topologies)
    out << "topology " << to_string(topo.kind) << ' ' << topo.side << '\n';
  out << "workloads " << spec.workloads.size() << '\n';
  for (const auto& workload : spec.workloads) {
    out << "workload " << workload.name << '\n';
    out << "cg_begin\n";
    write_cg(out, workload.cg);
    out << "cg_end\n";
  }
  out << "end_spec\n";
}

namespace {

SweepSpec read_spec_body(LineReader& reader) {
  SweepSpec spec;

  auto fields = reader.expect("router");
  check_arity(fields, 2, reader.line());
  spec.router = fields[1];

  fields = reader.expect("tile_pitch_mm");
  check_arity(fields, 2, reader.line());
  spec.tile_pitch_mm = parse_double(fields[1], reader.line());

  fields = reader.expect("parameters");
  check_arity(fields, 10, reader.line());
  auto& p = spec.parameters;
  double* slots[] = {&p.crossing_loss_db,     &p.propagation_loss_db_per_cm,
                     &p.ppse_off_loss_db,     &p.ppse_on_loss_db,
                     &p.cpse_off_loss_db,     &p.cpse_on_loss_db,
                     &p.crossing_crosstalk_db, &p.pse_off_crosstalk_db,
                     &p.pse_on_crosstalk_db};
  for (std::size_t i = 0; i < 9; ++i)
    *slots[i] = parse_double(fields[i + 1], reader.line());

  fields = reader.expect("model");
  check_arity(fields, 4, reader.line());
  spec.model_options.fidelity = parse_fidelity(fields[1], reader.line());
  spec.model_options.conflict_policy = parse_conflict(fields[2],
                                                      reader.line());
  spec.model_options.snr_ceiling_db = parse_double(fields[3], reader.line());

  // Optional task-kind block (absent in Optimize shards, so streams
  // written before the Sample kind existed still parse).
  {
    const auto line = reader.require_line("task_kind or goals");
    const auto peek = split_ws(line);
    if (!peek.empty() && peek[0] == "task_kind") {
      check_arity(peek, 2, reader.line());
      if (peek[1] == "sample")
        spec.task_kind = SweepTaskKind::Sample;
      else if (peek[1] == "optimize")
        spec.task_kind = SweepTaskKind::Optimize;
      else
        throw ParseError("unknown task kind '" + peek[1] + "'",
                         reader.line());
      if (spec.task_kind == SweepTaskKind::Sample) {
        fields = reader.expect("sampling");
        check_arity(fields, 8, reader.line());
        auto& s = spec.sampling;
        s.samples_per_cell =
            parse_uint<std::uint64_t>(fields[1], reader.line());
        s.snr_lo_db = parse_double(fields[2], reader.line());
        s.snr_hi_db = parse_double(fields[3], reader.line());
        s.snr_bins = parse_uint<std::size_t>(fields[4], reader.line());
        s.loss_lo_db = parse_double(fields[5], reader.line());
        s.loss_hi_db = parse_double(fields[6], reader.line());
        s.loss_bins = parse_uint<std::size_t>(fields[7], reader.line());
      }
    } else {
      reader.push_back(line);
    }
  }

  fields = reader.expect("goals");
  if (fields.size() < 2)
    throw ParseError("goals directive expects a count", reader.line());
  check_arity(fields, 2 + parse_uint<std::size_t>(fields[1], reader.line()),
              reader.line());
  for (std::size_t i = 2; i < fields.size(); ++i)
    spec.goals.push_back(parse_goal(fields[i], reader.line()));

  fields = reader.expect("optimizers");
  if (fields.size() < 2)
    throw ParseError("optimizers directive expects a count", reader.line());
  check_arity(fields, 2 + parse_uint<std::size_t>(fields[1], reader.line()),
              reader.line());
  for (std::size_t i = 2; i < fields.size(); ++i)
    spec.optimizers.push_back(fields[i]);

  fields = reader.expect("budgets");
  check_arity(fields, 2, reader.line());
  const auto budget_count = parse_uint<std::size_t>(fields[1], reader.line());
  for (std::size_t i = 0; i < budget_count; ++i) {
    fields = reader.expect("budget");
    check_arity(fields, 3, reader.line());
    OptimizerBudget budget;
    budget.max_evaluations =
        parse_uint<std::uint64_t>(fields[1], reader.line());
    budget.max_seconds = parse_double(fields[2], reader.line());
    spec.budgets.push_back(budget);
  }

  fields = reader.expect("seeds");
  if (fields.size() < 2)
    throw ParseError("seeds directive expects a count", reader.line());
  check_arity(fields, 2 + parse_uint<std::size_t>(fields[1], reader.line()),
              reader.line());
  for (std::size_t i = 2; i < fields.size(); ++i)
    spec.seeds.push_back(parse_uint<std::uint64_t>(fields[i], reader.line()));

  fields = reader.expect("topologies");
  check_arity(fields, 2, reader.line());
  const auto topology_count = parse_uint<std::size_t>(fields[1], reader.line());
  for (std::size_t i = 0; i < topology_count; ++i) {
    fields = reader.expect("topology");
    check_arity(fields, 3, reader.line());
    SweepTopology topo;
    topo.kind = parse_topology_kind(fields[1], reader.line());
    // Both kinds are side x side grids; 0 means auto-sized.
    const auto side = parse_uint<std::size_t>(fields[2], reader.line());
    if (side != 0 && side > NetworkModel::kMaxTiles / side)
      throw ParseError("topology side " + fields[2] + " exceeds " +
                           std::to_string(NetworkModel::kMaxTiles) + " tiles",
                       reader.line());
    topo.side = static_cast<std::uint32_t>(side);
    spec.topologies.push_back(topo);
  }

  fields = reader.expect("workloads");
  check_arity(fields, 2, reader.line());
  const auto workload_count = parse_uint<std::size_t>(fields[1], reader.line());
  for (std::size_t i = 0; i < workload_count; ++i) {
    const auto line = reader.require_line("workload", true);
    if (split_ws(line).empty() || split_ws(line)[0] != "workload")
      throw ParseError("expected 'workload' directive", reader.line());
    const auto name = rest_after_keyword(line, "workload");
    if (name.empty())
      throw ParseError("workload directive expects a name", reader.line());
    fields = reader.expect("cg_begin");
    check_arity(fields, 1, reader.line());
    // Collect the embedded CG verbatim up to the fence and hand it to
    // the cg_io parser (which owns the format).
    std::ostringstream cg_text;
    for (;;) {
      const auto cg_line = reader.require_line("embedded CG");
      if (split_ws(cg_line)[0] == "cg_end") break;
      cg_text << cg_line << '\n';
    }
    std::istringstream cg_in(cg_text.str());
    spec.add_workload(name, read_cg(cg_in));
  }

  fields = reader.expect("end_spec");
  check_arity(fields, 1, reader.line());
  return spec;
}

/// Consume the shard magic line; anything else is a ParseError.
void expect_shard_magic(LineReader& reader) {
  if (trim(reader.require_line("shard magic")) != kShardMagic)
    throw ParseError("stream does not start with '" +
                     std::string(kShardMagic) + "'");
}

}  // namespace

SweepSpec read_spec(std::istream& in) {
  LineReader reader(in);
  expect_shard_magic(reader);
  return read_spec_body(reader);
}

// --- shard -----------------------------------------------------------------

std::string shard_prefix(const SweepSpec& spec) {
  std::ostringstream out;
  out << kShardMagic << '\n';
  write_spec(out, spec);
  return out.str();
}

std::string complete_shard(const std::string& prefix, std::size_t begin,
                           std::size_t end) {
  return prefix + "slice " + std::to_string(begin) + ' ' +
         std::to_string(end) + "\nend_shard\n";
}

void write_shard(std::ostream& out, const SweepShard& shard) {
  out << complete_shard(shard_prefix(shard.spec), shard.begin, shard.end);
}

SweepShard read_shard(std::istream& in) {
  LineReader reader(in);
  expect_shard_magic(reader);
  SweepShard shard;
  shard.spec = read_spec_body(reader);

  auto fields = reader.expect("slice");
  check_arity(fields, 3, reader.line());
  shard.begin = parse_uint<std::size_t>(fields[1], reader.line());
  shard.end = parse_uint<std::size_t>(fields[2], reader.line());
  if (shard.begin > shard.end)
    throw ParseError("slice begin exceeds end", reader.line());

  fields = reader.expect("end_shard");
  check_arity(fields, 1, reader.line());
  return shard;
}

// --- spec magic note -------------------------------------------------------
// write_spec intentionally has no magic of its own: it only ever appears
// inside a shard (or a caller-framed stream), and read_spec accepts the
// shard magic so a spec-only file can be produced by hand if needed.

// --- cell results ----------------------------------------------------------

void write_cell_result(std::ostream& out, const CellResult& result) {
  out << kCellMagic << '\n';
  const auto& c = result.cell;
  out << "cell " << c.index << ' ' << c.workload << ' ' << c.topology << ' '
      << c.goal << ' ' << c.optimizer << ' ' << c.budget << ' ' << c.seed
      << '\n';
  out << "seed " << result.seed << '\n';
  out << "seconds " << format_double(result.seconds) << '\n';
  if (result.status == CellStatus::Failed) {
    // The error message is free text: keep it on one line.
    std::string message = result.error;
    for (auto& ch : message)
      if (ch == '\n' || ch == '\r') ch = ' ';
    out << "failed " << message << '\n';
    out << "end_cell\n";
    return;
  }
  if (!result.distribution.metrics.empty()) {
    // Sample-kind payload: constant-size whatever the sample count.
    const auto& d = result.distribution;
    out << "distribution " << d.samples << ' ' << d.metrics.size() << '\n';
    for (const auto& m : d.metrics) {
      const auto& st = m.stats;
      out << "metric " << m.metric << ' ' << st.count();
      write_doubles(out, {st.mean(), st.sum_squared_deviations(), st.min(),
                          st.max()});
      out << '\n';
      const auto& h = m.histogram;
      out << "hist";
      write_doubles(out, {h.lo(), h.hi()});
      out << ' ' << h.bins() << ' ' << h.underflow() << ' ' << h.overflow()
          << '\n';
      out << "counts";
      for (std::size_t b = 0; b < h.bins(); ++b) out << ' ' << h.count(b);
      out << '\n';
    }
    out << "end_cell\n";
    return;
  }
  out << "algorithm " << result.run.algorithm << '\n';
  const auto& s = result.run.search;
  out << "mapping " << s.best.tile_count() << ' ' << s.best.task_count();
  for (const auto tile : s.best.assignment()) out << ' ' << tile;
  out << '\n';
  out << "search " << format_double(s.best_fitness) << ' ' << s.evaluations
      << ' ' << s.iterations << ' ' << format_double(s.seconds) << '\n';
  out << "trace " << s.trace.size() << '\n';
  for (const auto& event : s.trace)
    out << "t " << event.evaluation << ' ' << format_double(event.fitness)
        << '\n';
  const auto& e = result.run.best_evaluation;
  out << "evaluation " << format_double(e.worst_loss_db) << ' '
      << format_double(e.worst_snr_db) << '\n';
  out << "edges " << e.edges.size() << '\n';
  for (const auto& edge : e.edges) {
    out << "e " << edge.edge << ' ' << edge.src_tile << ' ' << edge.dst_tile;
    write_doubles(out, {edge.loss_db, edge.signal_gain, edge.noise_gain,
                        edge.snr_db});
    out << '\n';
  }
  out << "end_cell\n";
}

std::optional<CellResult> read_cell_result(std::istream& in) {
  LineReader reader(in);
  const auto magic = reader.next();
  if (!magic) return std::nullopt;  // clean end of stream
  if (trim(*magic) != kCellMagic)
    throw ParseError("expected '" + std::string(kCellMagic) + "', got '" +
                         std::string(trim(*magic)) + "'",
                     reader.line());

  CellResult result;
  auto fields = reader.expect("cell");
  check_arity(fields, 8, reader.line());
  result.cell.index = parse_uint<std::size_t>(fields[1], reader.line());
  result.cell.workload = parse_uint<std::size_t>(fields[2], reader.line());
  result.cell.topology = parse_uint<std::size_t>(fields[3], reader.line());
  result.cell.goal = parse_uint<std::size_t>(fields[4], reader.line());
  result.cell.optimizer = parse_uint<std::size_t>(fields[5], reader.line());
  result.cell.budget = parse_uint<std::size_t>(fields[6], reader.line());
  result.cell.seed = parse_uint<std::size_t>(fields[7], reader.line());

  fields = reader.expect("seed");
  check_arity(fields, 2, reader.line());
  result.seed = parse_uint<std::uint64_t>(fields[1], reader.line());

  fields = reader.expect("seconds");
  check_arity(fields, 2, reader.line());
  result.seconds = parse_double(fields[1], reader.line());

  const auto status_line = reader.require_line("cell status", true);
  const auto status_fields = split_ws(status_line);
  if (status_fields[0] == "failed") {
    result.status = CellStatus::Failed;
    result.error = rest_after_keyword(status_line, "failed");
    fields = reader.expect("end_cell");
    check_arity(fields, 1, reader.line());
    return result;
  }
  if (status_fields[0] == "distribution") {
    check_arity(status_fields, 3, reader.line());
    auto& d = result.distribution;
    d.samples = parse_uint<std::uint64_t>(status_fields[1], reader.line());
    // Wire counts bound loops, never allocations: a count the block
    // cannot hold runs out of lines and throws ParseError.
    const auto metric_count =
        parse_uint<std::size_t>(status_fields[2], reader.line());
    for (std::size_t m = 0; m < metric_count; ++m) {
      fields = reader.expect("metric");
      check_arity(fields, 7, reader.line());
      MetricDistribution metric;
      metric.metric = fields[1];
      metric.stats = RunningStats::from_parts(
          parse_uint<std::size_t>(fields[2], reader.line()),
          parse_double(fields[3], reader.line()),
          parse_double(fields[4], reader.line()),
          parse_double(fields[5], reader.line()),
          parse_double(fields[6], reader.line()));
      fields = reader.expect("hist");
      check_arity(fields, 6, reader.line());
      const double lo = parse_double(fields[1], reader.line());
      const double hi = parse_double(fields[2], reader.line());
      const auto bins = parse_uint<std::size_t>(fields[3], reader.line());
      const auto underflow = parse_uint<std::size_t>(fields[4], reader.line());
      const auto overflow = parse_uint<std::size_t>(fields[5], reader.line());
      fields = reader.expect("counts");
      check_arity(fields, 1 + bins, reader.line());
      std::vector<std::size_t> counts;
      counts.reserve(bins);
      for (std::size_t b = 0; b < bins; ++b)
        counts.push_back(parse_uint<std::size_t>(fields[1 + b], reader.line()));
      metric.histogram = Histogram::from_parts(lo, hi, std::move(counts),
                                               underflow, overflow);
      d.metrics.push_back(std::move(metric));
    }
    fields = reader.expect("end_cell");
    check_arity(fields, 1, reader.line());
    return result;
  }
  if (status_fields[0] != "algorithm")
    throw ParseError("expected 'algorithm', 'distribution' or 'failed' "
                     "directive",
                     reader.line());
  check_arity(status_fields, 2, reader.line());
  result.run.algorithm = status_fields[1];

  fields = reader.expect("mapping");
  if (fields.size() < 3)
    throw ParseError("mapping directive expects tiles + tasks", reader.line());
  const auto tiles = parse_uint<std::size_t>(fields[1], reader.line());
  if (tiles > kMaxWireTiles)
    throw ParseError("mapping tile count " + fields[1] +
                         " exceeds the wire bound of " +
                         std::to_string(kMaxWireTiles),
                     reader.line());
  const auto tasks = parse_uint<std::size_t>(fields[2], reader.line());
  check_arity(fields, 3 + tasks, reader.line());
  std::vector<TileId> assignment;
  assignment.reserve(tasks);
  for (std::size_t i = 0; i < tasks; ++i)
    assignment.push_back(parse_uint<TileId>(fields[3 + i], reader.line()));
  result.run.search.best = Mapping::from_assignment(std::move(assignment),
                                                    tiles);

  fields = reader.expect("search");
  check_arity(fields, 5, reader.line());
  result.run.search.best_fitness = parse_double(fields[1], reader.line());
  result.run.search.evaluations =
      parse_uint<std::uint64_t>(fields[2], reader.line());
  result.run.search.iterations =
      parse_uint<std::uint64_t>(fields[3], reader.line());
  result.run.search.seconds = parse_double(fields[4], reader.line());

  fields = reader.expect("trace");
  check_arity(fields, 2, reader.line());
  const auto trace_count = parse_uint<std::size_t>(fields[1], reader.line());
  for (std::size_t i = 0; i < trace_count; ++i) {
    fields = reader.expect("t");
    check_arity(fields, 3, reader.line());
    result.run.search.trace.push_back(
        {parse_uint<std::uint64_t>(fields[1], reader.line()),
         parse_double(fields[2], reader.line())});
  }

  fields = reader.expect("evaluation");
  check_arity(fields, 3, reader.line());
  result.run.best_evaluation.worst_loss_db = parse_double(fields[1],
                                                          reader.line());
  result.run.best_evaluation.worst_snr_db = parse_double(fields[2],
                                                         reader.line());

  fields = reader.expect("edges");
  check_arity(fields, 2, reader.line());
  const auto edge_count = parse_uint<std::size_t>(fields[1], reader.line());
  for (std::size_t i = 0; i < edge_count; ++i) {
    fields = reader.expect("e");
    check_arity(fields, 8, reader.line());
    EdgeMetrics edge;
    edge.edge = parse_uint<EdgeId>(fields[1], reader.line());
    edge.src_tile = parse_uint<TileId>(fields[2], reader.line());
    edge.dst_tile = parse_uint<TileId>(fields[3], reader.line());
    edge.loss_db = parse_double(fields[4], reader.line());
    edge.signal_gain = parse_double(fields[5], reader.line());
    edge.noise_gain = parse_double(fields[6], reader.line());
    edge.snr_db = parse_double(fields[7], reader.line());
    result.run.best_evaluation.edges.push_back(edge);
  }

  fields = reader.expect("end_cell");
  check_arity(fields, 1, reader.line());
  return result;
}

// --- framing ---------------------------------------------------------------

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

constexpr const char* kFrameKeyword = "frame";

std::string checksum_hex(std::uint64_t hash) {
  static const char* digits = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<std::size_t>(i)] = digits[hash & 0xf];
    hash >>= 4;
  }
  return hex;
}

struct FrameHeader {
  std::size_t length = 0;
  std::string checksum;
};

/// Upper bound on one frame's payload. Real payloads are a shard (spec
/// + workloads) or one cell block — far below this; anything larger is
/// a corrupt or hostile header, and rejecting it here keeps a garbage
/// length from driving unbounded buffering or a giant allocation.
constexpr std::size_t kMaxFramePayload = std::size_t{1} << 30;  // 1 GiB

FrameHeader parse_frame_header(std::string_view line) {
  const auto fields = split_ws(line);
  if (fields.size() != 3 || fields[0] != kFrameKeyword)
    throw ParseError("expected a 'frame <length> <checksum>' header, got '" +
                     std::string(trim(line)) + "'");
  FrameHeader header;
  header.length = parse_uint<std::size_t>(fields[1]);
  if (header.length > kMaxFramePayload)
    throw ParseError("frame length " + fields[1] +
                     " exceeds the 1 GiB payload bound: corrupt header");
  header.checksum = fields[2];
  return header;
}

void verify_frame(std::string_view payload, const FrameHeader& header) {
  if (checksum_hex(fnv1a64(payload)) != header.checksum)
    throw ParseError("frame checksum mismatch (" +
                     std::to_string(payload.size()) +
                     "-byte payload): the stream is corrupt");
}

}  // namespace

std::string encode_frame(std::string_view payload) {
  std::string frame;
  frame.reserve(payload.size() + 32);
  frame += kFrameKeyword;
  frame += ' ';
  frame += std::to_string(payload.size());
  frame += ' ';
  frame += checksum_hex(fnv1a64(payload));
  frame += '\n';
  frame += payload;
  frame += '\n';
  return frame;
}

void FrameDecoder::feed(std::string_view bytes) {
  // The decoded prefix goes here, once per feed rather than once per
  // frame, so decoding a whole file fed at once stays linear.
  buffer_.erase(0, read_);
  read_ = 0;
  buffer_ += bytes;
}

std::optional<std::string> FrameDecoder::next() {
  const auto rest = std::string_view(buffer_).substr(read_);
  const auto newline = rest.find('\n');
  if (newline == std::string_view::npos) {
    // An impossibly long "header" can only be garbage: fail early
    // instead of buffering an unbounded junk stream.
    if (rest.size() > 64)
      (void)parse_frame_header(rest);  // throws with a diagnostic
    return std::nullopt;
  }
  const auto header = parse_frame_header(rest.substr(0, newline));
  const auto body_begin = newline + 1;
  if (rest.size() < body_begin + header.length + 1) return std::nullopt;
  const auto payload = rest.substr(body_begin, header.length);
  if (rest[body_begin + header.length] != '\n')
    throw ParseError("frame payload is not newline-terminated: "
                     "length header and stream disagree");
  verify_frame(payload, header);
  read_ += body_begin + header.length + 1;
  return std::string(payload);
}

}  // namespace phonoc
