#include "graph/delta_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/failpoint.h"

namespace gpar {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

/// Reads the whole file into `out`; a missing file yields an empty buffer.
Status SlurpFile(const std::string& path, std::string* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    out->clear();
    return Status::OK();
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  *out = std::move(buf).str();
  return Status::OK();
}

}  // namespace

Status DeltaJournal::ScanBuffer(std::string_view data,
                                std::vector<GraphDelta>* frames,
                                JournalReplayStats* stats) {
  *stats = JournalReplayStats{};
  if (frames != nullptr) frames->clear();
  size_t pos = 0;
  while (pos < data.size()) {
    const std::string_view rest = data.substr(pos);
    bool torn = rest.size() < GraphDelta::kFrameHeaderBytes;
    size_t frame_size = 0;
    if (!torn) {
      auto fs = GraphDelta::FrameSize(rest);
      torn = !fs.ok() || *fs > rest.size();
      if (fs.ok()) frame_size = *fs;
    }
    GraphDelta delta;
    if (!torn) {
      auto d = GraphDelta::Deserialize(rest.substr(0, frame_size));
      if (d.ok()) {
        delta = std::move(d).value();
      } else {
        torn = true;
      }
    }
    if (torn) {
      // A truncated or checksum-broken frame is the expected signature of
      // a crash mid-append: keep the intact prefix, cut the tail.
      stats->tail_truncated = true;
      stats->dropped_bytes = data.size() - pos;
      return Status::OK();
    }
    // A frame that decodes cleanly but runs the sequence backwards is NOT
    // a torn tail — it is foreign or reordered data, and truncating would
    // silently discard valid history. Fail loudly instead.
    if (delta.sequence <= stats->last_sequence) {
      return Status::Corruption(
          "delta journal: non-monotone sequence " +
          std::to_string(delta.sequence) + " after " +
          std::to_string(stats->last_sequence) + " at byte offset " +
          std::to_string(pos));
    }
    stats->last_sequence = delta.sequence;
    ++stats->frames;
    pos += frame_size;
    stats->valid_bytes = pos;
    if (frames != nullptr) frames->push_back(std::move(delta));
  }
  return Status::OK();
}

Result<std::vector<GraphDelta>> DeltaJournal::ReadAll(
    const std::string& path, JournalReplayStats* stats) {
  GPAR_FAILPOINT("journal.replay");
  std::string data;
  GPAR_RETURN_NOT_OK(SlurpFile(path, &data));
  std::vector<GraphDelta> frames;
  JournalReplayStats local;
  GPAR_RETURN_NOT_OK(ScanBuffer(data, &frames, &local));
  if (stats != nullptr) *stats = local;
  return frames;
}

Result<std::unique_ptr<DeltaJournal>> DeltaJournal::Open(
    const std::string& path, const DeltaJournalOptions& options,
    JournalReplayStats* scan) {
  std::string data;
  GPAR_RETURN_NOT_OK(SlurpFile(path, &data));
  JournalReplayStats local;
  GPAR_RETURN_NOT_OK(ScanBuffer(data, nullptr, &local));

  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return Errno("cannot open journal", path);
  std::unique_ptr<DeltaJournal> journal(new DeltaJournal(path, options, fd));
  journal->last_sequence_ = local.last_sequence;
  journal->size_bytes_ = local.valid_bytes;
  journal->frames_ = local.frames;
  if (local.tail_truncated) {
    // Cut the torn tail in place so the file IS the valid prefix — the
    // journal object and the bytes on disk never disagree about length.
    if (::ftruncate(fd, static_cast<off_t>(local.valid_bytes)) != 0) {
      return Errno("cannot truncate torn journal tail of", path);
    }
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    return Errno("cannot seek to journal end of", path);
  }
  if (scan != nullptr) *scan = local;
  return journal;
}

DeltaJournal::DeltaJournal(std::string path,
                           const DeltaJournalOptions& options, int fd)
    : path_(std::move(path)), options_(options), fd_(fd) {}

DeltaJournal::~DeltaJournal() {
  MutexLock lock(mu_);
  if (fd_ >= 0) ::close(fd_);
}

Status DeltaJournal::WriteFully(const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd_, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("cannot append to journal", path_);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status DeltaJournal::Append(const GraphDelta& delta) {
  GPAR_FAILPOINT("journal.append");
  MutexLock lock(mu_);
  if (broken_) {
    return Status::IoError("journal " + path_ +
                           " is in a failed state after a torn write; "
                           "reopen it to recover the valid prefix");
  }
  GraphDelta frame = delta;
  if (frame.sequence == 0) {
    frame.sequence = last_sequence_ + 1;
  } else if (frame.sequence <= last_sequence_) {
    return Status::InvalidArgument(
        "journal sequence must be monotone: got " +
        std::to_string(frame.sequence) + " after " +
        std::to_string(last_sequence_));
  }
  const std::string bytes = frame.Serialize();
  const size_t budget = GPAR_FAILPOINT_TORN("journal.append_torn",
                                            bytes.size());
  GPAR_RETURN_NOT_OK(WriteFully(bytes.data(), budget));
  if (budget < bytes.size()) {
    // Injected torn write: the partial frame is on disk exactly as a
    // crash would leave it. Fail-stop — recovery reopens and truncates.
    broken_ = true;
    return Status::IoError("journal " + path_ + ": torn write injected (" +
                           std::to_string(budget) + " of " +
                           std::to_string(bytes.size()) + " bytes)");
  }
  if (options_.fsync_on_append && ::fsync(fd_) != 0) {
    return Errno("cannot fsync journal", path_);
  }
  last_sequence_ = frame.sequence;
  size_bytes_ += bytes.size();
  ++frames_;
  return Status::OK();
}

Status DeltaJournal::Compact() {
  MutexLock lock(mu_);
  if (::ftruncate(fd_, 0) != 0) {
    return Errno("cannot compact journal", path_);
  }
  if (::lseek(fd_, 0, SEEK_SET) < 0) {
    return Errno("cannot rewind journal", path_);
  }
  broken_ = false;
  size_bytes_ = 0;
  frames_ = 0;
  if (last_sequence_ > 0) {
    // Sequence-floor marker: an empty frame carrying the last sequence,
    // so a reopened journal keeps counting where the pre-checkpoint one
    // stopped (replaying it is a no-op delta).
    GraphDelta marker;
    marker.sequence = last_sequence_;
    const std::string bytes = marker.Serialize();
    GPAR_RETURN_NOT_OK(WriteFully(bytes.data(), bytes.size()));
    size_bytes_ = bytes.size();
    frames_ = 1;
  }
  if (::fsync(fd_) != 0) {
    return Errno("cannot fsync compacted journal", path_);
  }
  return Status::OK();
}

uint64_t DeltaJournal::last_sequence() const {
  MutexLock lock(mu_);
  return last_sequence_;
}

uint64_t DeltaJournal::size_bytes() const {
  MutexLock lock(mu_);
  return size_bytes_;
}

uint64_t DeltaJournal::frames_appended() const {
  MutexLock lock(mu_);
  return frames_;
}

}  // namespace gpar
