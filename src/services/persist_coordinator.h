// PersistCoordinator — one AS's durability pipeline.
//
// The single `persist::Sink` every control-plane mutation site is wired
// to (RS, MS, AA, DnsZone, resolver domain blocks). It does two things
// with each record:
//
//  * appends it to the current generation's journal (group commit,
//    configurable fsync policy — persist/journal.h), and
//  * folds the above-core metadata (issued EphIDs, domain blocks, DNS
//    records) into in-memory aggregates, because the snapshot image
//    needs them and no single core structure tracks them.
//
// write_snapshot() publishes a full AsState image as generation g+1 and
// rotates the journal to `journal-<g+1>.log`; recovery therefore needs
// snapshot g plus journals g, g+1, ... (see core/as_persist.h). The last
// `keep_generations` snapshot/journal pairs are retained so a corrupt
// newest snapshot can fall back a generation.
//
// Journal-write failure degrades the pipeline explicitly (counted,
// non-durable) — issuance never blocks on a sick disk. The group commit
// runs outside the coordinator's lock: a service thread whose record
// fills a group writes it out while the others keep appending.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/as_persist.h"
#include "core/as_state.h"
#include "persist/journal.h"
#include "persist/sink.h"
#include "persist/vfs.h"

namespace apna::services {

class PersistCoordinator final : public persist::Sink {
 public:
  struct Config {
    persist::JournalConfig journal;
    /// Auto-snapshot after this many journaled records (0 = manual only).
    std::uint64_t snapshot_every_records = 0;
    /// Snapshot/journal generations retained (min 1).
    std::uint32_t keep_generations = 2;
    std::uint64_t seed = 0;   // provenance, recorded in snapshot headers
    std::string git_sha;      // provenance
  };

  struct Stats {
    persist::JournalWriter::Stats journal;
    std::uint64_t snapshots_written = 0;
    std::uint64_t snapshot_failures = 0;
    std::uint64_t generation = 0;
    std::uint64_t issued_tracked = 0;
    std::uint64_t blocked_tracked = 0;
    std::uint64_t dns_tracked = 0;
  };

  PersistCoordinator(persist::Vfs& vfs, std::string dir, core::AsState& as,
                     Config cfg);
  PersistCoordinator(persist::Vfs& vfs, std::string dir, core::AsState& as)
      : PersistCoordinator(vfs, std::move(dir), as, Config()) {}
  ~PersistCoordinator() override;

  /// Creates the directory, writes the initial snapshot (the generation
  /// after the newest on disk, or 1) and opens its journal. Must succeed
  /// before records are emitted.
  Result<void> start();

  /// Re-seeds the metadata aggregates after a recovery, so the next
  /// snapshot still carries what the pre-crash AS vouched for.
  void seed(std::vector<core::IssuedEphIdMeta> issued,
            std::vector<std::string> blocked_domains,
            std::vector<core::DnsRecord> dns_records);

  // persist::Sink
  bool append(std::uint8_t type, ByteSpan payload) override;

  /// Publishes a new snapshot generation and rotates the journal.
  Result<void> write_snapshot();

  /// Flushes the journal's group-commit buffer (fsync per policy).
  Result<void> commit();

  bool degraded() const;
  Stats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  Result<void> write_snapshot_locked();
  /// Folds the record into the snapshot aggregates and enqueues it (no
  /// file I/O unless the snapshot cadence is due). Requires mu_.
  bool fold_and_enqueue(std::uint8_t type, ByteSpan payload);

  persist::Vfs& vfs_;
  std::string dir_;
  core::AsState& as_;
  Config cfg_;

  mutable std::mutex mu_;
  std::uint64_t generation_ = 0;
  std::uint64_t records_since_snapshot_ = 0;
  std::uint64_t snapshots_written_ = 0;
  std::uint64_t snapshot_failures_ = 0;
  std::shared_ptr<persist::JournalWriter> journal_;
  /// Totals carried across journal rotations (stats() = base + current).
  persist::JournalWriter::Stats journal_base_;

  // Above-core state the snapshot image carries (core/as_persist.h
  // AsSnapshotExtras). Ordered containers keep snapshots byte-stable for
  // a given mutation history.
  std::vector<core::IssuedEphIdMeta> issued_;
  std::set<std::string> blocked_;
  std::map<std::string, core::DnsRecord> dns_;
};

}  // namespace apna::services
