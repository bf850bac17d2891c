// Append-only journal: length-prefixed, CRC32C-framed records with
// group commit and a configurable fsync policy.
//
// Frame layout (little-endian, matching the wire codec's conventions):
//
//   [u32 len][u32 crc32c][u8 type][payload ...]
//
// `len` counts type + payload bytes; the CRC covers the same span. A
// reader walks frames until the first violation — short header, insane
// length, short body, or CRC mismatch — and treats everything from
// there on as a torn tail: the journal's effective content is the
// longest valid prefix, never garbage, never an exception.
//
// Write failures flip the writer into a sticky non-durable degraded
// mode: subsequent records are counted as dropped and the service keeps
// running. fsync failures are counted but non-sticky (the data reached
// the file; only the durability barrier failed).
//
// Group commit runs with the writer's lock released: the thread that
// writes a group out (file append + fsync) swaps the buffer first, so
// other threads keep appending into the next group instead of waiting
// behind the disk. One thread writes at a time and groups are written in
// the order they were filled, so the file order is the append order.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "persist/sink.h"
#include "persist/vfs.h"
#include "util/bytes.h"
#include "util/result.h"

namespace apna::persist {

/// Largest accepted frame body (type + payload). Anything bigger in a
/// length prefix is treated as corruption.
inline constexpr std::uint32_t kMaxFrameLen = 1u << 20;

enum class FsyncPolicy : std::uint8_t {
  never,            // leave durability to the OS
  every_commit,     // fsync after each group commit
  every_n_commits,  // fsync every cfg.sync_every_n_commits commits
};

struct JournalConfig {
  FsyncPolicy fsync = FsyncPolicy::every_commit;
  /// Auto-commit once this many records are buffered (group commit).
  std::size_t group_commit_records = 64;
  std::size_t sync_every_n_commits = 8;
};

/// Thread-safe journal writer; implements `Sink` so it can be handed
/// straight to the control-plane services.
class JournalWriter final : public Sink {
 public:
  struct Stats {
    std::uint64_t appended = 0;   // records accepted into the buffer
    std::uint64_t dropped = 0;    // records lost to degraded mode
    std::uint64_t commits = 0;
    std::uint64_t sync_failures = 0;
    bool degraded = false;
  };

  /// Opens `path` through `vfs`. `truncate` starts a fresh journal
  /// (new generation); otherwise appends to existing content.
  JournalWriter(Vfs& vfs, std::string path, bool truncate,
                JournalConfig cfg = {});

  /// enqueue() then flush_due(). False once the writer is degraded.
  bool append(std::uint8_t type, ByteSpan payload) override;

  /// Buffers one frame without touching the file. False (the record is
  /// counted as dropped) once the writer is degraded.
  bool enqueue(std::uint8_t type, ByteSpan payload);

  /// Writes the buffer out if a full group is waiting and no other thread
  /// is writing; never waits for another thread's write. Returns
  /// !degraded().
  bool flush_due();

  /// Returns once every record enqueued before the call is written and
  /// its fsync (per policy) succeeded, or with the write / fsync error.
  Result<void> commit();

  bool degraded() const;
  Stats stats() const;

 private:
  /// Writes the whole buffer (or, when it is empty, retries a failed
  /// fsync) with `lk` released. Requires `lk` held and no write running.
  Result<void> write_out(std::unique_lock<std::mutex>& lk);

  mutable std::mutex mu_;
  std::condition_variable written_cv_;
  Vfs& vfs_;
  std::string path_;
  JournalConfig cfg_;
  std::unique_ptr<VfsFile> file_;  // used only by the thread that is writing
  Bytes buf_;                      // the group being filled
  Bytes spare_;                    // the group being written
  std::size_t buffered_records_ = 0;
  bool writing_ = false;
  std::uint64_t enqueued_ = 0;  // records enqueued so far
  std::uint64_t durable_ = 0;   // ... of which written and past their fsync
                                // (per policy)
  Stats stats_{};
};

struct ReplayResult {
  std::uint64_t records = 0;
  std::uint64_t bytes_consumed = 0;
  /// Torn/corrupt tail bytes discarded after the last valid frame.
  std::uint64_t bytes_discarded = 0;
  bool torn() const { return bytes_discarded != 0; }
};

/// Walks frames in `data`, invoking `fn(type, payload)` for each valid
/// one, stopping (without error) at the first torn or corrupt frame.
using ReplayFn = std::function<void(std::uint8_t, ByteSpan)>;
ReplayResult replay_journal(ByteSpan data, const ReplayFn& fn);

/// Reads `path` via `vfs` and replays it. A missing file is an empty
/// journal, not an error.
ReplayResult replay_journal_file(Vfs& vfs, const std::string& path,
                                 const ReplayFn& fn);

}  // namespace apna::persist
