#ifndef GPAR_GRAPH_DELTA_JOURNAL_H_
#define GPAR_GRAPH_DELTA_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "graph/graph_delta.h"

namespace gpar {

/// Options for `DeltaJournal`.
struct DeltaJournalOptions {
  /// fsync(2) after every append: the delta is durable when `Append`
  /// returns, at the cost of one disk flush per batch. Off (default), the
  /// write still reaches the file immediately (unbuffered), but a machine
  /// crash may lose OS-buffered frames — a torn tail recovery truncates.
  bool fsync_on_append = false;
};

/// What a journal scan (open or replay) found on disk.
struct JournalReplayStats {
  size_t frames = 0;           ///< intact frames in the valid prefix
  uint64_t valid_bytes = 0;    ///< length of that prefix
  uint64_t dropped_bytes = 0;  ///< torn/corrupt tail bytes cut behind it
  uint64_t last_sequence = 0;  ///< sequence of the last intact frame
  bool tail_truncated = false;
};

/// A checksummed write-ahead journal of `GraphDelta` frames — the
/// durability half of the serving tier. Each record is one self-delimiting
/// frame in the "GPARDLTA" wire format (`GraphDelta::Serialize`: magic,
/// version, payload size, FNV-1a checksum, payload), appended in strictly
/// increasing `sequence` order. A server in attach-journal mode appends
/// the applied mutations of every `ApplyDelta` BEFORE publishing them, so
/// recovery = load the snapshot + replay the journal reproduces exactly
/// the mutations queries ever observed.
///
/// Torn-tail handling: a crash mid-append leaves a truncated or
/// checksum-broken final frame. `Open` scans the file, keeps the longest
/// prefix of intact frames, and truncates the tail in place — every
/// complete frame survives, the torn one is dropped. A checksum-valid
/// frame with a NON-monotone sequence is different: that is not a crash
/// artifact but mixed-up data, and it fails the scan with `Corruption`
/// rather than silently discarding valid frames.
///
/// `Compact` (the checkpoint op) truncates the journal after a fresh
/// snapshot has been written, then records a sequence-floor marker (an
/// empty frame carrying the last sequence) so appends stay monotone even
/// across a close/reopen of the compacted journal.
///
/// Thread-safety: all methods are safe to call concurrently, though the
/// servers already serialize appends under their writer lock.
class DeltaJournal {
 public:
  /// Opens `path` for appending, creating it if absent. Scans existing
  /// contents for the valid frame prefix (reported through `scan` when
  /// non-null) and truncates any torn tail in place.
  static Result<std::unique_ptr<DeltaJournal>> Open(
      const std::string& path, const DeltaJournalOptions& options = {},
      JournalReplayStats* scan = nullptr);

  /// Decodes the valid frame prefix of `path` in order — the one read-only
  /// journal reader: server recovery, the router's shard resync and
  /// `gpar_tool maintain` all replay through it. A missing file is an
  /// empty journal, not an error; `stats` reports a torn tail.
  static Result<std::vector<GraphDelta>> ReadAll(
      const std::string& path, JournalReplayStats* stats = nullptr);

  /// Frame-scans an in-memory buffer (the shared core of Open/ReadAll,
  /// exposed for tests that slice journals at arbitrary byte offsets).
  static Status ScanBuffer(std::string_view data,
                           std::vector<GraphDelta>* frames,
                           JournalReplayStats* stats);

  ~DeltaJournal();
  DeltaJournal(const DeltaJournal&) = delete;
  DeltaJournal& operator=(const DeltaJournal&) = delete;

  /// Appends one frame. A zero `delta.sequence` is stamped with
  /// `last_sequence() + 1`; a nonzero one must exceed `last_sequence()`.
  /// On an injected torn write the journal enters a failed state (every
  /// later append reports IoError) — recovery is reopening the path,
  /// which truncates the torn frame.
  Status Append(const GraphDelta& delta);

  /// Checkpoint compaction: drops every frame (the fresh snapshot now
  /// carries their effects) and writes the sequence-floor marker. Always
  /// fsyncs — compaction is a durability point regardless of options.
  Status Compact();

  uint64_t last_sequence() const;
  uint64_t size_bytes() const;
  uint64_t frames_appended() const;  ///< frames on disk (marker included)
  const std::string& path() const { return path_; }

 private:
  DeltaJournal(std::string path, const DeltaJournalOptions& options, int fd);

  Status WriteFully(const char* data, size_t size) GPAR_REQUIRES(mu_);

  const std::string path_;
  const DeltaJournalOptions options_;

  mutable Mutex mu_;
  int fd_ GPAR_GUARDED_BY(mu_);
  bool broken_ GPAR_GUARDED_BY(mu_) = false;
  uint64_t last_sequence_ GPAR_GUARDED_BY(mu_) = 0;
  uint64_t size_bytes_ GPAR_GUARDED_BY(mu_) = 0;
  uint64_t frames_ GPAR_GUARDED_BY(mu_) = 0;
};

}  // namespace gpar

#endif  // GPAR_GRAPH_DELTA_JOURNAL_H_
