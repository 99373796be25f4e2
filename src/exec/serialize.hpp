#pragma once
/// \file serialize.hpp
/// \brief Wire format for sweep shards and cell results.
///
/// A line-oriented, '#'-commentable text protocol that round-trips the
/// full `SweepSpec -> CellResult` contract across a process (or host)
/// boundary: the spec with its embedded CG workloads (reusing the
/// `io/cg_io` format between `cg_begin`/`cg_end` fences), physical
/// parameters, model options, a contiguous cell-index slice, and the
/// complete per-cell outcome (mapping, fitness, trace, per-edge
/// metrics). Every floating-point field is written with
/// `format_double` (max_digits10) and parsed with `from_chars`, so a
/// round trip is bit-exact — results computed in worker processes are
/// bit-identical to the in-process backend's, as `tests/test_exec.cpp`
/// asserts. Wire counts bound loops, never allocations, so malformed
/// input throws a phonoc::Error rather than std::bad_alloc.
///
/// Versioning: streams start with `phonoc-shard v2` / `phonoc-cell v1`
/// magic; readers reject anything else, so protocol evolution is an
/// explicit version bump rather than a silent drift.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "exec/batch_engine.hpp"
#include "exec/sweep.hpp"

namespace phonoc {

/// First line of every shard, and of the spec a phonocd request embeds.
inline constexpr std::string_view kShardMagic = "phonoc-shard v2";

/// A contiguous slice [begin, end) of one spec's expand() output: the
/// unit of work a worker process (or a remote host) receives.
struct SweepShard {
  SweepSpec spec;
  std::size_t begin = 0;  ///< first grid index of the slice
  std::size_t end = 0;    ///< one past the last grid index
};

/// Serialize a spec (workloads embedded via io/cg_io). Workload and
/// optimizer/router names must be single-line; CG task names must be
/// whitespace-free (the cg_io format already requires this).
void write_spec(std::ostream& out, const SweepSpec& spec);
[[nodiscard]] SweepSpec read_spec(std::istream& in);

void write_shard(std::ostream& out, const SweepShard& shard);
[[nodiscard]] SweepShard read_shard(std::istream& in);

/// The slice-independent prefix of a serialized shard (magic, spec with
/// embedded workloads). A scheduler dispatching many slices of one spec
/// serializes this once and completes each shard with complete_shard()
/// — only the two slice lines differ per unit.
[[nodiscard]] std::string shard_prefix(const SweepSpec& spec);
[[nodiscard]] std::string complete_shard(const std::string& prefix,
                                         std::size_t begin, std::size_t end);

/// One cell outcome as a self-delimited block (`phonoc-cell v1` ...
/// `end_cell`). Failed cells carry only coordinates, seed and the error
/// message; Ok cells carry the task kind's payload — the full RunResult
/// (Optimize) or the `DistributionResult` histogram/stats block
/// (Sample), both round-tripping bit-exactly.
void write_cell_result(std::ostream& out, const CellResult& result);

/// Read the next cell block. Returns nullopt on clean end-of-stream
/// (EOF before a block starts); throws ParseError on a malformed or
/// truncated block (e.g. the producer died mid-write) and
/// InvalidArgument on a mapping that violates its invariants.
[[nodiscard]] std::optional<CellResult> read_cell_result(std::istream& in);

// --- framing ---------------------------------------------------------------
//
// When shard/cell payloads travel over an arbitrary byte stream (TCP, a
// socketpair, a file), each payload is wrapped in a self-checking
// frame:
//
//     frame <payload-bytes> <fnv1a64-hex>\n
//     <payload bytes, verbatim>\n
//
// The length makes the stream self-delimiting (payloads may contain
// anything, including further framing keywords); the FNV-1a checksum
// turns truncation or corruption into an explicit ParseError instead of
// a silently misparsed shard. The remote scheduler (src/sched/) frames
// every message with these helpers.

/// FNV-1a 64-bit hash of `bytes` (the frame checksum).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// One framed message as a string (header + payload + trailing newline).
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Incremental frame decoder for non-blocking byte sources: feed()
/// arbitrary chunks, next() yields complete payloads in order (nullopt
/// while the buffered bytes end mid-frame). Corrupt headers or checksum
/// mismatches throw ParseError — the stream is unusable from there on.
class FrameDecoder {
 public:
  void feed(std::string_view bytes);
  [[nodiscard]] std::optional<std::string> next();
  /// True when buffered bytes form an incomplete frame (a truncation
  /// diagnostic for streams that ended mid-message).
  [[nodiscard]] bool has_partial() const noexcept {
    return buffer_.size() > read_;
  }

 private:
  std::string buffer_;
  std::size_t read_ = 0;  ///< bytes of buffer_ already decoded
};

}  // namespace phonoc
