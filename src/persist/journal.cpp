#include "persist/journal.h"

#include "persist/crc32c.h"

namespace apna::persist {
namespace {

void put_le32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

JournalWriter::JournalWriter(Vfs& vfs, std::string path, bool truncate,
                             JournalConfig cfg)
    : vfs_(vfs), path_(std::move(path)), cfg_(cfg) {
  auto f = vfs_.open_append(path_, truncate);
  if (f) {
    file_ = f.take();
  } else {
    stats_.degraded = true;
  }
}

bool JournalWriter::append(std::uint8_t type, ByteSpan payload) {
  return enqueue(type, payload) && flush_due();
}

bool JournalWriter::enqueue(std::uint8_t type, ByteSpan payload) {
  std::lock_guard lk(mu_);
  if (stats_.degraded) {
    ++stats_.dropped;
    return false;
  }
  const std::uint32_t len = 1 + static_cast<std::uint32_t>(payload.size());
  put_le32(buf_, len);
  // CRC over type ‖ payload: seed with the type byte, continue over the
  // payload (crc32c is incremental).
  const std::uint8_t t = type;
  put_le32(buf_, crc32c(payload, crc32c(ByteSpan(&t, 1))));
  buf_.push_back(type);
  buf_.insert(buf_.end(), payload.begin(), payload.end());
  ++buffered_records_;
  ++enqueued_;
  ++stats_.appended;
  return true;
}

bool JournalWriter::flush_due() {
  std::unique_lock lk(mu_);
  // The writing thread loops while groups filled up during its own write,
  // so a group that is due never waits for an append that may not come.
  while (!writing_ && !stats_.degraded && buffered_records_ > 0 &&
         buffered_records_ >= cfg_.group_commit_records)
    (void)write_out(lk);
  return !stats_.degraded;
}

Result<void> JournalWriter::commit() {
  std::unique_lock lk(mu_);
  const std::uint64_t target = enqueued_;
  for (;;) {
    if (stats_.degraded)
      return Result<void>(Errc::internal, "journal degraded");
    if (durable_ >= target) return Result<void>::success();
    if (writing_) {
      written_cv_.wait(lk);
      continue;
    }
    if (auto r = write_out(lk); !r) return r;
  }
}

Result<void> JournalWriter::write_out(std::unique_lock<std::mutex>& lk) {
  writing_ = true;
  std::swap(buf_, spare_);  // appends now fill the (empty) other buffer
  const std::size_t records = buffered_records_;
  const std::uint64_t end = enqueued_;
  buffered_records_ = 0;
  // An empty buffer here means every record is written but the last fsync
  // failed: retry only the barrier.
  const bool barrier_only = records == 0;
  const std::uint64_t commit_no = stats_.commits + 1;
  lk.unlock();

  Result<void> wrote = Result<void>::success();
  if (!barrier_only)
    wrote = file_->append(ByteSpan(spare_.data(), spare_.size()));
  const bool want_sync =
      cfg_.fsync == FsyncPolicy::every_commit ||
      (cfg_.fsync == FsyncPolicy::every_n_commits &&
       cfg_.sync_every_n_commits != 0 &&
       (barrier_only || commit_no % cfg_.sync_every_n_commits == 0));
  Result<void> synced = Result<void>::success();
  if (wrote && want_sync) synced = file_->sync();

  lk.lock();
  spare_.clear();
  writing_ = false;
  written_cv_.notify_all();
  if (!wrote) {
    // Sticky degraded mode: this group and the one filled behind it are
    // gone and every future append is counted as dropped — the control
    // plane keeps issuing, explicitly non-durable.
    const std::size_t lost = records + buffered_records_;
    stats_.degraded = true;
    stats_.dropped += lost;
    stats_.appended -= lost;
    buf_.clear();
    buffered_records_ = 0;
    return wrote;
  }
  if (!barrier_only) ++stats_.commits;
  if (!synced) {
    ++stats_.sync_failures;  // counted, non-sticky: bytes reached the file
    return synced;
  }
  durable_ = end;
  return Result<void>::success();
}

bool JournalWriter::degraded() const {
  std::lock_guard lk(mu_);
  return stats_.degraded;
}

JournalWriter::Stats JournalWriter::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

ReplayResult replay_journal(ByteSpan data, const ReplayFn& fn) {
  ReplayResult out;
  std::size_t pos = 0;
  while (data.size() - pos >= 8) {
    const std::uint32_t len = get_le32(data.data() + pos);
    const std::uint32_t want_crc = get_le32(data.data() + pos + 4);
    if (len < 1 || len > kMaxFrameLen) break;          // insane length
    if (data.size() - pos - 8 < len) break;            // torn body
    const ByteSpan body(data.data() + pos + 8, len);
    if (crc32c(body) != want_crc) break;               // bit rot
    fn(body[0], body.subspan(1));
    pos += 8 + len;
    ++out.records;
  }
  out.bytes_consumed = pos;
  out.bytes_discarded = data.size() - pos;
  return out;
}

ReplayResult replay_journal_file(Vfs& vfs, const std::string& path,
                                 const ReplayFn& fn) {
  auto data = vfs.read_all(path);
  if (!data) return ReplayResult{};  // missing journal == empty journal
  return replay_journal(ByteSpan(data->data(), data->size()), fn);
}

}  // namespace apna::persist
