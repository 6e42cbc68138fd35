#ifndef BASM_FEATURE_STORE_JOURNAL_H_
#define BASM_FEATURE_STORE_JOURNAL_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "data/schema.h"

namespace basm::feature_store {

/// Fault site name evaluated before every journal append (see
/// FaultInjector). Like the pipeline's recall site this defaults to
/// FromEnv(), so BASM_FAULT_RATE injects append/fsync failures with no
/// code changes. An injected failure drops the click from the journal
/// (counted in write_failures) and never fails the request — durability
/// degrades, serving does not.
inline constexpr char kJournalFaultSite[] = "feature_store.journal";

/// Record header layout (16 bytes, little-endian, mirroring the wire
/// protocol's discipline in src/net/wire.h):
///
///   offset  size  field
///   0       4     magic 0x4C4A5342 ("BSJL")
///   4       1     format version (kJournalVersion)
///   5       1     record type (kJournalClickRecord)
///   6       2     flags, must be zero
///   8       4     payload size in bytes (<= kJournalMaxPayloadBytes)
///   12      4     FNV-1a checksum of the payload
///
/// followed by the payload. A click payload is 8 little-endian int32s:
/// user_id then the seven BehaviorEvent fields.
inline constexpr uint32_t kJournalMagic = 0x4C4A5342u;
inline constexpr uint8_t kJournalVersion = 1;
inline constexpr uint8_t kJournalClickRecord = 1;
inline constexpr size_t kJournalHeaderBytes = 16;
inline constexpr uint32_t kJournalMaxPayloadBytes = 4096;
inline constexpr size_t kJournalClickPayloadBytes = 32;

struct JournalConfig {
  /// Segment directory. Empty disables journaling entirely (the store
  /// then behaves exactly as before this subsystem existed).
  std::string dir;
  /// Group commit: fsync once per this many appends...
  int64_t group_commit_appends = 32;
  /// ...or when this much time passed since the last fsync, whichever
  /// comes first. <= 0 fsyncs on every append.
  int64_t flush_interval_micros = 2000;
  /// Active segment is sealed (atomic rename) and a new one opened once it
  /// grows past this.
  int64_t max_segment_bytes = 1 << 20;
};

/// Lifetime counters of one journal (folded into FeatureStoreStats).
struct JournalStats {
  int64_t appends = 0;         ///< records durably written to the segment
  int64_t fsyncs = 0;          ///< group-commit fsync calls issued
  int64_t write_failures = 0;  ///< appends dropped (injected or real IO)
  int64_t rotations = 0;       ///< segments sealed at max_segment_bytes
  int64_t bytes_written = 0;   ///< total record bytes appended
  int64_t recovered = 0;       ///< records replayed by ReplayInto
  int64_t truncated_tail_bytes = 0;  ///< torn-tail bytes cut at replay
};

/// One recovered click.
struct ClickRecord {
  int32_t user_id = 0;
  data::BehaviorEvent event;
};

/// What one ReplayInto pass did.
struct ReplayReport {
  int64_t recovered = 0;             ///< intact records replayed
  int64_t truncated_tail_bytes = 0;  ///< bytes cut at the first bad record
  int64_t segments = 0;              ///< sealed segments scanned
};

/// Append-only, checksummed write-ahead click journal — the durability
/// floor under FeatureStore::RecordClick. Records are length-prefixed and
/// individually checksummed (FNV-1a, the same discipline as the wire
/// protocol and checkpoint v3); appends are write()n immediately and
/// fsync'd in batches (group commit); full segments are sealed via an
/// atomic rename (the tmp+rename publish of ModelRegistry::SaveHead:
/// `seg-N.bjl.open` becomes `seg-N.bjl` only once complete). Replay walks
/// the sealed segments in order and, at the first bad checksum, truncates
/// the torn tail in place instead of failing — a crashed process restarts
/// with every intact click and never a failed startup.
///
/// Thread-safe: appends serialize on one internal mutex (the group-commit
/// fsync batches them). ReplayInto is meant for startup, before appends
/// begin; it only touches segments sealed before this journal opened its
/// active segment, so recovered clicks are never double-replayed.
class ClickJournal {
 public:
  /// Opens (creating the directory if needed) and starts a fresh active
  /// segment. Any `.open` segment left by a crashed predecessor is sealed
  /// first, so ReplayInto sees it. An unusable directory never throws: the
  /// journal marks itself broken and every append fails softly into
  /// write_failures.
  explicit ClickJournal(JournalConfig config);
  ~ClickJournal();

  ClickJournal(const ClickJournal&) = delete;
  ClickJournal& operator=(const ClickJournal&) = delete;

  /// Write-ahead append of one click. Evaluates kJournalFaultSite first
  /// (injected delay sleeps, injected error drops the record and counts a
  /// write failure). On success the record bytes are in the kernel page
  /// cache (they survive a SIGKILL); group commit decides when fsync makes
  /// them survive power loss too.
  [[nodiscard]] Status AppendRecord(int32_t user_id,
                                    const data::BehaviorEvent& event)
      BASM_EXCLUDES(mu_);

  /// Flushes + fsyncs whatever appends are pending (the tail of the last
  /// group-commit window). The destructor calls it.
  [[nodiscard]] Status Sync() BASM_EXCLUDES(mu_);

  /// Replays every intact record of every sealed segment, oldest first,
  /// into `apply`. At the first corrupt record the segment is truncated at
  /// that offset (the torn-tail rule) and replay stops; this is an OK
  /// outcome, reported via `report->truncated_tail_bytes`. Only real IO
  /// errors (unreadable directory) return non-OK. `report` may be null.
  [[nodiscard]] Status ReplayInto(
      const std::function<void(const ClickRecord&)>& apply,
      ReplayReport* report = nullptr) BASM_EXCLUDES(mu_);

  /// Routes appends through `injector` (borrowed; nullptr restores the
  /// clean path). Defaults to FaultInjector::FromEnv().
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  JournalStats stats() const BASM_EXCLUDES(mu_);
  const JournalConfig& config() const { return config_; }
  /// False when the directory could not be opened (appends fail softly).
  bool healthy() const BASM_EXCLUDES(mu_);

  /// Codec, exposed for the corruption-corpus tests. EncodeRecord appends
  /// header + payload to `out`; DecodeRecord validates one record at
  /// `data` (magic, version, type, zero flags, payload cap, checksum,
  /// exact click payload size) without ever reading past `size`, and
  /// reports the bytes consumed.
  static void EncodeRecord(const ClickRecord& record,
                           std::vector<uint8_t>* out);
  /// One click record, header + payload, as a fixed-size value: the
  /// append path encodes into it without touching the heap.
  using EncodedClick =
      std::array<uint8_t, kJournalHeaderBytes + kJournalClickPayloadBytes>;
  static EncodedClick EncodeClick(const ClickRecord& record);
  [[nodiscard]] static Status DecodeRecord(const uint8_t* data, size_t size,
                                           ClickRecord* out,
                                           size_t* consumed);

 private:
  using Clock = std::chrono::steady_clock;

  /// Opens a fresh `seg-<next_index_>.bjl.open` for appending.
  void OpenActiveLocked() BASM_REQUIRES(mu_);
  /// fsync + close + atomic-rename the active segment to its sealed name.
  void SealActiveLocked() BASM_REQUIRES(mu_);
  [[nodiscard]] Status SyncLocked() BASM_REQUIRES(mu_);

  JournalConfig config_;
  FaultInjector* injector_;

  mutable Mutex mu_;
  int fd_ BASM_GUARDED_BY(mu_) = -1;
  std::string active_path_ BASM_GUARDED_BY(mu_);
  int64_t next_index_ BASM_GUARDED_BY(mu_) = 0;
  int64_t segment_bytes_ BASM_GUARDED_BY(mu_) = 0;
  int64_t pending_appends_ BASM_GUARDED_BY(mu_) = 0;
  Clock::time_point last_sync_ BASM_GUARDED_BY(mu_);
  bool broken_ BASM_GUARDED_BY(mu_) = false;
  JournalStats stats_ BASM_GUARDED_BY(mu_);
};

}  // namespace basm::feature_store

#endif  // BASM_FEATURE_STORE_JOURNAL_H_
