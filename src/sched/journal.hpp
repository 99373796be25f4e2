#pragma once
/// \file journal.hpp
/// \brief Settled-cell journal of the distributed sweep scheduler.
///
/// An append-only log that makes the *scheduler* process crash-tolerant:
/// every cell answer the scheduler accepts (first-wins) is appended as
/// one checksummed record, and a restarted scheduler replays the file to
/// mark those cells settled before dealing any work — a killed sweep
/// resumes instead of restarting, without re-executing journaled cells.
///
/// Format (reusing the exec/serialize frame helpers — length + FNV-1a
/// checksum per record, so truncation and corruption are explicit
/// errors, never silent partial reuse):
///
///     frame <bytes> <fnv1a64-hex>\n          # record 0: the header
///     phonoc-journal v1 spec <hash-hex>\n
///     frame <bytes> <fnv1a64-hex>\n          # records 1..N: one cell
///     phonoc-cell v1 ... end_cell\n          # block each, verbatim
///
/// The header's spec hash is the FNV-1a of the sweep's slice-independent
/// shard prefix (magic + spec with embedded workloads, the byte-exact
/// text every dispatched unit shares), so a journal can never be
/// replayed against a different sweep, or across a shard version bump:
/// a mismatch is a structured JournalError naming both hashes.
///
/// Crash atomicity: each record is appended with a single O_APPEND
/// write(2) and no userspace buffering, so a SIGKILLed scheduler leaves
/// whole records behind. A torn or corrupt record — however it got
/// there — fails the replay loudly; resuming then requires removing the
/// damaged journal (the error says which record and why).

#include <cstdint>
#include <cstddef>
#include <string>
#include <mutex>
#include <vector>

#include "exec/batch_engine.hpp"
#include "util/error.hpp"

namespace phonoc {

/// A journal could not be replayed or appended: corruption, truncation,
/// a spec-hash mismatch, or an I/O failure. Always names the path.
class JournalError : public ExecError {
 public:
  explicit JournalError(const std::string& what) : ExecError(what) {}
};

/// Outcome of replaying a journal.
struct JournalReplay {
  /// Settled cells in journal order, first-wins on duplicates. Both Ok
  /// and worker-reported Failed cells replay (an uninterrupted run
  /// would not have re-executed either).
  std::vector<CellResult> cells;
};

/// Replay `path` against the sweep identified by `spec_hash` with
/// `cell_count` grid cells. A missing or empty file replays to nothing
/// (the fresh-sweep case). Throws JournalError on a bad header, a spec
/// hash mismatch, a checksum-corrupted record, a truncated final
/// record, an unparseable cell block, or an out-of-range cell index.
[[nodiscard]] JournalReplay replay_journal(const std::string& path,
                                           std::uint64_t spec_hash,
                                           std::size_t cell_count);

/// Appends settled-cell records, thread-safe (the scheduler's host
/// drivers settle cells concurrently). Construction opens `path` for
/// append and writes the header record iff the file is new or empty;
/// callers replay first, so an existing journal has already proven its
/// header matches.
class JournalWriter {
 public:
  JournalWriter(std::string path, std::uint64_t spec_hash);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Append one cell record. `cell_block` is the serialized
  /// `phonoc-cell v1 … end_cell` text exactly as it crossed the wire
  /// (the scheduler journals the accepted frame's payload verbatim —
  /// no re-serialization, so replayed cells are bit-identical to live
  /// ones by construction). Throws JournalError on an I/O failure.
  void append(const std::string& cell_block);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::mutex mutex_;
  int fd_ = -1;
};

}  // namespace phonoc
