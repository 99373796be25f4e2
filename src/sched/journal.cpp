#include "sched/journal.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>
#include <vector>

#include "exec/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PHONOC_JOURNAL_POSIX 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define PHONOC_JOURNAL_POSIX 0
#endif

namespace phonoc {
namespace {

constexpr const char* kJournalMagic = "phonoc-journal v1 spec ";

std::string hash_hex(std::uint64_t hash) {
  std::ostringstream out;
  out << std::hex << std::setfill('0') << std::setw(16) << hash;
  return out.str();
}

std::string header_payload(std::uint64_t spec_hash) {
  return std::string(kJournalMagic) + hash_hex(spec_hash);
}

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw JournalError("journal " + path + ": " + why);
}

}  // namespace

JournalReplay replay_journal(const std::string& path,
                             std::uint64_t spec_hash,
                             std::size_t cell_count) {
  JournalReplay replay;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return replay;  // absent: the fresh-sweep case
  std::ostringstream slurp;
  slurp << in.rdbuf();
  const std::string bytes = slurp.str();
  if (bytes.empty()) return replay;  // empty: created but never written

  FrameDecoder decoder;
  decoder.feed(bytes);
  std::size_t record = 0;
  std::vector<bool> settled(cell_count, false);
  for (;;) {
    std::optional<std::string> payload;
    try {
      payload = decoder.next();
    } catch (const ParseError& e) {
      fail(path, "record " + std::to_string(record) + " is corrupt (" +
                     e.what() + "); remove the journal to start over");
    }
    if (!payload) break;
    if (record == 0) {
      if (*payload != header_payload(spec_hash)) {
        const std::string want = header_payload(spec_hash);
        fail(path, "header mismatch: journal says '" + *payload +
                       "', this sweep is '" + want +
                       "' — the journal belongs to a different sweep");
      }
      ++record;
      continue;
    }
    std::optional<CellResult> cell;
    try {
      std::istringstream block(*payload);
      cell = read_cell_result(block);
    } catch (const std::exception& e) {
      fail(path, "record " + std::to_string(record) +
                     " holds an unreadable cell block (" + e.what() + ")");
    }
    if (!cell)
      fail(path, "record " + std::to_string(record) + " is empty");
    if (cell->cell.index >= cell_count)
      fail(path, "record " + std::to_string(record) + " settles cell " +
                     std::to_string(cell->cell.index) +
                     " outside this sweep's " + std::to_string(cell_count) +
                     "-cell grid");
    // First-wins, same as the live stream: a record of an already
    // settled cell (the tail of a sweep resumed twice) is dropped.
    if (!settled[cell->cell.index]) {
      settled[cell->cell.index] = true;
      replay.cells.push_back(std::move(*cell));
    }
    ++record;
  }
  if (decoder.has_partial())
    fail(path, "truncated final record (after " + std::to_string(record) +
                   " complete record(s)) — the writer died mid-append; "
                   "remove the journal to start over");
  static obs::Counter& replayed = obs::MetricsRegistry::global().counter(
      "phonoc_sched_journal_replayed_total",
      "Settled cells recovered from journal replay.");
  replayed.inc(replay.cells.size());
  return replay;
}

JournalWriter::JournalWriter(std::string path, std::uint64_t spec_hash)
    : path_(std::move(path)) {
#if PHONOC_JOURNAL_POSIX
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0)
    fail(path_, std::string("cannot open for append: ") +
                    std::strerror(errno));
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    fail(path_, std::string("cannot stat: ") + std::strerror(err));
  }
  if (st.st_size == 0) append(header_payload(spec_hash));
#else
  (void)spec_hash;
  fail(path_, "journaling requires POSIX file APIs on this platform");
#endif
}

JournalWriter::~JournalWriter() {
#if PHONOC_JOURNAL_POSIX
  if (fd_ >= 0) ::close(fd_);
#endif
}

void JournalWriter::append(const std::string& cell_block) {
#if PHONOC_JOURNAL_POSIX
  obs::TraceSpan span("sched", "journal_append");
  static obs::Counter& appended = obs::MetricsRegistry::global().counter(
      "phonoc_sched_journal_appends_total",
      "Accepted cell answers appended to the settled-cell journal.");
  appended.inc();
  // One write(2) per record (O_APPEND, no userspace buffer): a SIGKILL
  // between appends leaves only whole records. A short write can still
  // tear a record (e.g. ENOSPC mid-frame) — the replay's checksum turns
  // that into a loud error rather than silent reuse.
  const std::string record = encode_frame(cell_block);
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t written = 0;
  while (written < record.size()) {
    const ssize_t n =
        ::write(fd_, record.data() + written, record.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(path_, std::string("append failed: ") + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
#else
  (void)cell_block;
  fail(path_, "journaling requires POSIX file APIs on this platform");
#endif
}

}  // namespace phonoc
