#include "feature_store/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace basm::feature_store {

namespace {

namespace fs = std::filesystem;

/// FNV-1a over the payload — the same checksum the wire protocol and
/// checkpoint codec use, re-rolled here so the feature store does not
/// depend upward on src/net.
uint32_t JournalChecksum(const uint8_t* data, size_t size) {
  uint32_t hash = 2166136261u;
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 16777619u;
  }
  return hash;
}

/// Byte-by-byte little-endian stores/loads: no struct punning, no
/// host-endianness assumptions (mirrors net/wire.cc).
void StoreU32(uint32_t value, uint8_t* out) {
  out[0] = static_cast<uint8_t>(value & 0xFF);
  out[1] = static_cast<uint8_t>((value >> 8) & 0xFF);
  out[2] = static_cast<uint8_t>((value >> 16) & 0xFF);
  out[3] = static_cast<uint8_t>((value >> 24) & 0xFF);
}

uint32_t LoadU32(const uint8_t* data) {
  return static_cast<uint32_t>(data[0]) |
         (static_cast<uint32_t>(data[1]) << 8) |
         (static_cast<uint32_t>(data[2]) << 16) |
         (static_cast<uint32_t>(data[3]) << 24);
}

int32_t LoadI32(const uint8_t* data) {
  return static_cast<int32_t>(LoadU32(data));
}

constexpr char kSealedSuffix[] = ".bjl";
constexpr char kOpenSuffix[] = ".bjl.open";

std::string SegmentName(int64_t index, bool open) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "seg-%08lld%s",
                static_cast<long long>(index),
                open ? kOpenSuffix : kSealedSuffix);
  return buf;
}

/// Parses "seg-NNNNNNNN.bjl" into its index; -1 for anything else.
int64_t SealedIndexOf(const std::string& name) {
  if (!name.starts_with("seg-") || !name.ends_with(kSealedSuffix)) return -1;
  const size_t digits_at = 4;
  const size_t digits_len = name.size() - digits_at - 4;  // strlen(".bjl")
  if (digits_len == 0 || digits_len > 18) return -1;
  int64_t index = 0;
  for (size_t i = 0; i < digits_len; ++i) {
    char c = name[digits_at + i];
    if (c < '0' || c > '9') return -1;
    index = index * 10 + (c - '0');
  }
  return index;
}

/// write() until done, retrying EINTR. False on any hard failure; a
/// partial write followed by failure leaves a torn record that replay's
/// checksum walk truncates.
bool WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

void ClickJournal::EncodeRecord(const ClickRecord& record,
                                std::vector<uint8_t>* out) {
  const EncodedClick bytes = EncodeClick(record);
  out->insert(out->end(), bytes.begin(), bytes.end());
}

ClickJournal::EncodedClick ClickJournal::EncodeClick(
    const ClickRecord& record) {
  EncodedClick bytes;
  uint8_t* payload = bytes.data() + kJournalHeaderBytes;
  const int32_t fields[] = {record.user_id,           record.event.item_id,
                            record.event.category,    record.event.brand,
                            record.event.hour,        record.event.time_period,
                            record.event.city,        record.event.geohash};
  static_assert(sizeof(fields) == kJournalClickPayloadBytes);
  for (size_t i = 0; i < std::size(fields); ++i) {
    StoreU32(static_cast<uint32_t>(fields[i]), payload + 4 * i);
  }

  StoreU32(kJournalMagic, bytes.data());
  bytes[4] = kJournalVersion;
  bytes[5] = kJournalClickRecord;
  bytes[6] = 0;  // flags
  bytes[7] = 0;
  StoreU32(static_cast<uint32_t>(kJournalClickPayloadBytes),
           bytes.data() + 8);
  StoreU32(JournalChecksum(payload, kJournalClickPayloadBytes),
           bytes.data() + 12);
  return bytes;
}

Status ClickJournal::DecodeRecord(const uint8_t* data, size_t size,
                                  ClickRecord* out, size_t* consumed) {
  *consumed = 0;
  if (size < kJournalHeaderBytes) {
    return Status::InvalidArgument("journal record truncated in header");
  }
  if (LoadU32(data) != kJournalMagic) {
    return Status::InvalidArgument("bad journal record magic");
  }
  if (data[4] != kJournalVersion) {
    return Status::InvalidArgument("unsupported journal record version");
  }
  if (data[5] != kJournalClickRecord) {
    return Status::InvalidArgument("unknown journal record type");
  }
  if (data[6] != 0 || data[7] != 0) {
    return Status::InvalidArgument("nonzero journal record flags");
  }
  const uint32_t payload_size = LoadU32(data + 8);
  // The cap check comes before any arithmetic with payload_size so a
  // hostile length field can neither overflow nor trigger a huge read.
  if (payload_size > kJournalMaxPayloadBytes) {
    return Status::InvalidArgument("journal record payload exceeds cap");
  }
  if (payload_size != kJournalClickPayloadBytes) {
    return Status::InvalidArgument("journal click record has wrong payload size");
  }
  if (size - kJournalHeaderBytes < payload_size) {
    return Status::InvalidArgument("journal record truncated in payload");
  }
  const uint8_t* payload = data + kJournalHeaderBytes;
  if (JournalChecksum(payload, payload_size) != LoadU32(data + 12)) {
    return Status::InvalidArgument("journal record checksum mismatch");
  }
  out->user_id = LoadI32(payload);
  out->event.item_id = LoadI32(payload + 4);
  out->event.category = LoadI32(payload + 8);
  out->event.brand = LoadI32(payload + 12);
  out->event.hour = LoadI32(payload + 16);
  out->event.time_period = LoadI32(payload + 20);
  out->event.city = LoadI32(payload + 24);
  out->event.geohash = LoadI32(payload + 28);
  *consumed = kJournalHeaderBytes + payload_size;
  return Status::Ok();
}

ClickJournal::ClickJournal(JournalConfig config)
    : config_(std::move(config)), injector_(FaultInjector::FromEnv()) {
  MutexLock lock(&mu_);
  last_sync_ = Clock::now();
  if (config_.dir.empty()) {
    broken_ = true;
    return;
  }
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    BASM_LOG(Warning) << "click journal: cannot create " << config_.dir
                      << ": " << ec.message() << " — appends will be dropped";
    broken_ = true;
    return;
  }
  // Namespace recovery: a crashed predecessor leaves its active segment
  // with the `.open` suffix. Seal it (atomic rename) so ReplayInto — which
  // only reads sealed segments — replays its intact records; its possibly
  // torn tail is handled by the checksum walk, not here.
  int64_t max_index = -1;
  for (const fs::directory_entry& entry : fs::directory_iterator(config_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(kOpenSuffix)) {
      fs::path sealed = entry.path().parent_path() /
                        name.substr(0, name.size() - 5);  // strip ".open"
      fs::rename(entry.path(), sealed, ec);
      max_index = std::max(
          max_index, SealedIndexOf(sealed.filename().string()));
    } else {
      max_index = std::max(max_index, SealedIndexOf(name));
    }
  }
  next_index_ = max_index + 1;
  OpenActiveLocked();
}

ClickJournal::~ClickJournal() {
  // mu_ is the journal's IO-ordering lock: fsync/write run under it BY
  // DESIGN (group commit serializes appends against segment rotation); it
  // is a leaf in the DESIGN §10 hierarchy, so nothing can deadlock behind
  // it, and callers never hold it across request work.
  MutexLock lock(&mu_);
  if (fd_ >= 0) {
    (void)SyncLocked();  // basm-analyze: allow(blocking-under-lock)
    ::close(fd_);
    fd_ = -1;
  }
}

void ClickJournal::OpenActiveLocked() {
  active_path_ =
      (fs::path(config_.dir) / SegmentName(next_index_, /*open=*/true))
          .string();
  ++next_index_;
  segment_bytes_ = 0;
  fd_ = ::open(active_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    BASM_LOG(Warning) << "click journal: cannot open " << active_path_
                      << " — appends will be dropped";
    broken_ = true;
  }
}

Status ClickJournal::SyncLocked() {
  if (fd_ < 0) return Status::Internal("journal segment is not open");
  if (pending_appends_ == 0) return Status::Ok();
  if (::fsync(fd_) != 0) {
    ++stats_.write_failures;
    return Status::Internal("journal fsync failed");
  }
  ++stats_.fsyncs;
  pending_appends_ = 0;
  last_sync_ = Clock::now();
  return Status::Ok();
}

void ClickJournal::SealActiveLocked() {
  if (fd_ < 0) return;
  (void)SyncLocked();
  ::close(fd_);
  fd_ = -1;
  // Atomic publish of the completed segment: readers (and the next boot's
  // replay) see either the fully-written sealed file or no sealed file,
  // never a half-sealed name — the SaveHead tmp+rename discipline.
  const std::string sealed =
      active_path_.substr(0, active_path_.size() - 5);  // strip ".open"
  std::error_code ec;
  fs::rename(active_path_, sealed, ec);
  if (ec) {
    BASM_LOG(Warning) << "click journal: seal rename failed for "
                      << active_path_ << ": " << ec.message();
  }
  ++stats_.rotations;
}

Status ClickJournal::AppendRecord(int32_t user_id,
                                  const data::BehaviorEvent& event) {
  if (injector_ != nullptr) {
    FaultDecision decision = injector_->Evaluate(kJournalFaultSite);
    if (decision.delay_micros > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(decision.delay_micros));
    }
    if (!decision.status.ok()) {
      MutexLock lock(&mu_);
      ++stats_.write_failures;
      return decision.status;
    }
  }

  const EncodedClick record = EncodeClick(ClickRecord{user_id, event});

  MutexLock lock(&mu_);
  if (broken_ || fd_ < 0) {
    ++stats_.write_failures;
    return Status::Internal("journal is not writable");
  }
  if (!WriteAll(fd_, record.data(), record.size())) {
    // A partial write is a torn tail the next replay truncates; either way
    // this record is not durable, so it is dropped, not retried.
    ++stats_.write_failures;
    return Status::Internal("journal append failed");
  }
  ++stats_.appends;
  stats_.bytes_written += static_cast<int64_t>(record.size());
  segment_bytes_ += static_cast<int64_t>(record.size());
  ++pending_appends_;

  // Group commit: one fsync covers a batch of appends, bounded by count
  // and by wall time since the last sync.
  const bool count_due = pending_appends_ >= config_.group_commit_appends;
  const bool time_due =
      config_.flush_interval_micros <= 0 ||
      Clock::now() - last_sync_ >=
          std::chrono::microseconds(config_.flush_interval_micros);
  Status sync_status = Status::Ok();
  // Group commit IS the design: the fsync runs under mu_ (the journal's
  // leaf IO-ordering lock) so appends admitted during the sync cannot
  // reorder across it. See DESIGN §10/§15.
  if (count_due || time_due) sync_status = SyncLocked();  // basm-analyze: allow(blocking-under-lock)

  if (segment_bytes_ >= config_.max_segment_bytes) {
    SealActiveLocked();  // basm-analyze: allow(blocking-under-lock)
    OpenActiveLocked();
  }
  return sync_status;
}

Status ClickJournal::Sync() {
  MutexLock lock(&mu_);
  if (broken_) return Status::Internal("journal is not writable");
  // Explicit sync takes the same leaf IO-ordering lock as group commit.
  return SyncLocked();  // basm-analyze: allow(blocking-under-lock)
}

Status ClickJournal::ReplayInto(
    const std::function<void(const ClickRecord&)>& apply,
    ReplayReport* report) {
  ReplayReport local;
  if (config_.dir.empty()) {
    if (report != nullptr) *report = local;
    return Status::Ok();
  }
  std::error_code ec;
  std::vector<std::pair<int64_t, fs::path>> segments;
  for (const fs::directory_entry& entry : fs::directory_iterator(config_.dir, ec)) {
    int64_t index = SealedIndexOf(entry.path().filename().string());
    if (index >= 0) segments.emplace_back(index, entry.path());
  }
  if (ec) return Status::Internal("cannot list journal dir " + config_.dir);
  std::sort(segments.begin(), segments.end());

  bool truncated = false;
  for (const auto& [index, path] : segments) {
    ++local.segments;
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::Internal("cannot read segment " + path.string());
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    size_t offset = 0;
    while (offset < bytes.size()) {
      ClickRecord record;
      size_t consumed = 0;
      Status decoded = DecodeRecord(bytes.data() + offset,
                                    bytes.size() - offset, &record, &consumed);
      if (!decoded.ok()) {
        // The torn-tail rule: everything from the first bad record on is
        // assumed to be a crash-torn suffix. Cut it in place so the next
        // replay of this segment is clean, and stop — corruption is never
        // an error, only lost tail records.
        local.truncated_tail_bytes +=
            static_cast<int64_t>(bytes.size() - offset);
        fs::resize_file(path, offset, ec);
        truncated = true;
        break;
      }
      apply(record);
      ++local.recovered;
      offset += consumed;
    }
    if (truncated) break;
  }

  {
    MutexLock lock(&mu_);
    stats_.recovered += local.recovered;
    stats_.truncated_tail_bytes += local.truncated_tail_bytes;
  }
  if (report != nullptr) *report = local;
  return Status::Ok();
}

JournalStats ClickJournal::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

bool ClickJournal::healthy() const {
  MutexLock lock(&mu_);
  return !broken_ && fd_ >= 0;
}

}  // namespace basm::feature_store
