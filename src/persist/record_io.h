// Crash-safe, append-only record streams: the storage layer under the
// campaign store. A store file is an 8-byte magic followed by frames of
//
//   [u32 body_len][u32 crc32(body)][body: u8 type + payload]
//
// with all integers little-endian on disk. A process killed mid-write
// leaves at most one torn frame at the tail; the reader detects it (short
// read or CRC mismatch), reports the stream truncated, and exposes the
// byte offset of the last intact frame so a writer reopening the file can
// chop the garbage off and keep appending. Corruption is never "skipped":
// the first bad frame ends the stream, because in an append-only log
// everything after a bad length prefix is unframed noise.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace msa::persist {

inline constexpr std::array<std::uint8_t, 8> kRecordMagic = {
    'M', 'S', 'A', 'R', 'E', 'C', '0', '1'};

/// Frames larger than this are treated as corruption (a torn length
/// prefix can otherwise claim gigabytes and stall the reader).
inline constexpr std::uint32_t kMaxRecordBody = 1u << 28;

struct Record {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

/// A frame's type and payload, viewed in place in a RecordBuffer.
struct RecordView {
  std::uint8_t type = 0;
  std::span<const std::uint8_t> payload;
};

/// fsync(2) the directory containing `file_path`, making a just-created
/// or just-renamed directory entry durable. Renaming a compacted store
/// (or a fresh segment / levels manifest) into place is only crash-proof
/// once the PARENT directory is synced — without it a power loss can
/// resurrect the pre-rename file even though the rename "succeeded".
/// No-op on Windows (directories have no fsync there); throws
/// std::runtime_error on a genuine I/O failure elsewhere.
void fsync_parent_dir(const std::string& file_path);

/// Size of the file at `path`, 0 when it does not exist.
[[nodiscard]] std::uint64_t file_size_or_zero(const std::string& path);

/// True when `path` exists and is at least magic-sized — i.e. worth
/// opening for append-resume. A shorter file is the debris of a process
/// killed between creating the file and writing the magic; resuming
/// writers treat it as absent (start fresh) rather than throwing
/// bad-magic forever, which would brick the path until manual cleanup.
[[nodiscard]] bool record_file_usable(const std::string& path);

/// Advisory flock(2) on a store log, held on a descriptor of its own
/// for the object's lifetime: writers hold it shared, compaction
/// exclusive, so a store is never compacted under a live writer. A lock
/// won on a log that a compaction renamed a fresh file over meanwhile is
/// taken again on the file the path names now. No-op on Windows.
class FileLock {
 public:
  enum class Kind {
    kShared,     ///< waits for the lock; creates `path` when absent
    kExclusive,  ///< never waits: throws "persist: store is open by a
                 ///< live writer: PATH" while anyone holds the lock
  };

  /// Throws std::runtime_error when `path` cannot be opened or locked.
  FileLock(const std::string& path, Kind kind);
  ~FileLock();

  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_ = -1;
};

/// Sequential reader. Construct, call next() until it returns nullopt,
/// then check truncated() to distinguish a clean EOF from a torn tail.
class RecordReader {
 public:
  /// Throws std::runtime_error if the file cannot be opened or does not
  /// start with the record magic. `resume_offset`, when nonzero, must be
  /// a frame boundary previously obtained from valid_bytes(): reading
  /// continues from there instead of the first frame — the incremental
  /// path for pollers (lease-log scans) that re-read a growing file.
  /// Note a tail that looked torn on the previous pass may have been an
  /// in-flight append that has since completed, so resuming at the LAST
  /// INTACT offset and re-parsing is exactly right: the "tear" heals.
  explicit RecordReader(const std::string& path,
                        std::uint64_t resume_offset = 0);
  ~RecordReader();

  RecordReader(const RecordReader&) = delete;
  RecordReader& operator=(const RecordReader&) = delete;

  /// Next intact record, or nullopt at end of stream (clean or torn).
  /// Throws std::runtime_error on a genuine stream error (EIO etc.) —
  /// an I/O fault is not a torn tail and must not trigger truncation.
  [[nodiscard]] std::optional<Record> next();

  /// True once next() has hit a short or CRC-mismatched frame.
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

  /// Byte offset just past the last intact frame (>= magic size); the
  /// safe truncation point for append recovery.
  [[nodiscard]] std::uint64_t valid_bytes() const noexcept {
    return valid_bytes_;
  }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;  ///< for error messages
  std::uint64_t valid_bytes_ = 0;
  bool truncated_ = false;
  bool done_ = false;
};

/// A whole record file loaded with one read, its frames walked in place
/// with RecordReader's checks: the first short, oversized or
/// CRC-mismatched frame ends the stream as a torn tail. The views next()
/// returns stay valid for the buffer's lifetime, a move included.
class RecordBuffer {
 public:
  RecordBuffer() = default;  ///< an empty stream
  /// Throws std::runtime_error as RecordReader's constructor does.
  explicit RecordBuffer(const std::string& path);

  /// Next intact frame, or nullopt at end of stream (clean or torn).
  [[nodiscard]] std::optional<RecordView> next();

  [[nodiscard]] bool truncated() const noexcept { return truncated_; }
  [[nodiscard]] std::uint64_t valid_bytes() const noexcept { return pos_; }

 private:
  std::unique_ptr<std::uint8_t[]> bytes_;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;  ///< just past the last intact frame
  bool truncated_ = false;
};

/// Random access to single frames of an immutable record file by
/// offset, on one descriptor held for the object's lifetime. Reads use
/// pread(2), so one const reader serves concurrent callers.
class RecordFile {
 public:
  /// Throws std::runtime_error as RecordReader's constructor does.
  explicit RecordFile(std::string path);
  ~RecordFile();

  RecordFile(const RecordFile&) = delete;
  RecordFile& operator=(const RecordFile&) = delete;

  /// The frame starting at `offset`, read straight into its payload;
  /// nullopt when it is short, oversized or fails its CRC. Throws
  /// std::runtime_error on a genuine I/O error.
  [[nodiscard]] std::optional<Record> read_at(std::uint64_t offset) const;

 private:
  /// True when all of `out` was read; false only at end of file.
  bool read_exact_at(std::uint64_t offset, std::span<std::uint8_t> out) const;

  std::string path_;
  int fd_ = -1;  ///< unused on Windows, which reopens per read
};

/// Append-only writer.
class RecordWriter {
 public:
  enum class Mode {
    kTruncate,        ///< start a fresh file (magic + nothing)
    kAppendRecover,   ///< keep existing records, chop any torn tail
    kAppendClean,     ///< append as-is: caller already scanned/truncated
  };

  /// kTruncate creates/overwrites `path`. kAppendRecover scans an
  /// existing file with RecordReader, truncates it to the last intact
  /// frame, and positions for append (a missing file is created fresh).
  /// kAppendClean skips the recovery scan — only the magic is checked —
  /// for callers that just read the file themselves and already chopped
  /// any torn tail (CampaignStore resume, which needs the records anyway
  /// and should not pay a second full pass).
  /// Throws std::runtime_error on I/O failure or bad magic.
  RecordWriter(const std::string& path, Mode mode);
  ~RecordWriter();

  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  /// Appends one frame. Buffered; call flush() to push to the OS.
  void append(std::uint8_t type, std::span<const std::uint8_t> payload) {
    append(type, payload, {});
  }
  /// Appends one frame whose payload is `head` followed by `tail`: a
  /// block whose entry count is known only once its entries are encoded.
  void append(std::uint8_t type, std::span<const std::uint8_t> head,
              std::span<const std::uint8_t> tail);

  /// Flushes stdio buffers so a subsequent process kill cannot tear
  /// already-appended frames.
  void flush();

  /// flush() plus fsync(2): already-appended frames survive power loss,
  /// not just a process kill. Much slower than flush — callers batch it
  /// (CampaignStore's opt-in --fsync-every).
  void sync();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace msa::persist
