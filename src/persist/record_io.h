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
//
// There are two readers, with one set of frame checks: RecordBuffer walks
// a file's frames in order (store opens, resume scans, progress and lease
// tails), and RecordFile reads single frames by offset (segment blocks,
// one-frame sidecars, a lease log's manifest).
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
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

/// The one sequential reader: the frames of a record file from a start
/// offset to its end, loaded with one read and walked in place. The
/// first short, oversized or CRC-mismatched frame ends the stream as a
/// torn tail. Tailing a growing file is a new RecordBuffer at the last
/// valid_bytes(): a tail that looked torn may have been an append still
/// in flight, so re-parsing from the last intact frame heals it. The
/// views next() returns stay valid for the buffer's lifetime, a move
/// included.
class RecordBuffer {
 public:
  RecordBuffer() = default;  ///< an empty stream
  /// Checks the magic, then reads [offset, EOF) — from the first frame
  /// when `offset` is at most the magic size, otherwise from `offset`,
  /// which must be a frame boundary an earlier valid_bytes() returned.
  /// An offset at or past EOF (a log trimmed since) gives an empty,
  /// untorn stream. Throws std::runtime_error if the file cannot be
  /// opened or read, or does not start with the record magic.
  explicit RecordBuffer(const std::string& path, std::uint64_t offset = 0);

  /// Next intact frame, or nullopt at end of stream (clean or torn).
  [[nodiscard]] std::optional<RecordView> next();

  /// True once next() has hit a short, oversized or CRC-mismatched frame.
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }
  /// File offset just past the last intact frame (at least the start
  /// offset): where the next tail read starts, and the truncation point
  /// for a torn tail.
  [[nodiscard]] std::uint64_t valid_bytes() const noexcept {
    return start_ + pos_;
  }

 private:
  std::unique_ptr<std::uint8_t[]> bytes_;  ///< [start_, start_ + size_)
  std::size_t size_ = 0;
  std::size_t pos_ = 0;  ///< just past the last intact frame, from start_
  std::uint64_t start_ = 0;
  bool truncated_ = false;
};

/// Random access to single frames of an immutable record file by
/// offset, on one descriptor held for the object's lifetime. Reads use
/// pread(2), so one const reader serves concurrent callers.
class RecordFile {
 public:
  /// Throws std::runtime_error as RecordBuffer's constructor does.
  explicit RecordFile(std::string path);
  ~RecordFile();

  RecordFile(const RecordFile&) = delete;
  RecordFile& operator=(const RecordFile&) = delete;

  /// The frame starting at `offset`, read straight into its payload;
  /// nullopt when it is short, oversized or fails its CRC. Throws
  /// std::runtime_error on a genuine I/O error.
  [[nodiscard]] std::optional<Record> read_at(std::uint64_t offset) const;
  /// The frame of exactly frame.size() bytes starting at `offset`, read
  /// with one pread into `frame` and viewed there; nullopt under the
  /// same conditions as read_at, or when the frame's length field does
  /// not fill `frame`. Calls into disjoint buffers may run concurrently.
  [[nodiscard]] std::optional<RecordView> read_frame(
      std::uint64_t offset, std::span<std::uint8_t> frame) const;

 private:
  friend class RecordBuffer;  // reads its tail through read_upto

  /// Reads into `out` from `offset`; fewer bytes only at end of file.
  /// A genuine I/O error throws: taken for end of file, it would let a
  /// resume chop intact records as a torn tail.
  std::size_t read_upto(std::uint64_t offset,
                        std::span<std::uint8_t> out) const;

  std::string path_;
  int fd_ = -1;  ///< unused on Windows, which reopens per read
};

/// Append-only writer.
class RecordWriter {
 public:
  /// Creates `path`, or truncates it, and writes the magic.
  explicit RecordWriter(const std::string& path);

  /// Resumes `path`: hands every intact record to `visit`, in order,
  /// then chops the torn tail (if any) and opens for append. A record
  /// the visitor rejects by throwing leaves the file untouched. A file
  /// absent or shorter than the magic — the debris of a kill between
  /// create and the magic write — starts fresh rather than failing on
  /// every restart.
  RecordWriter(const std::string& path,
               const std::function<void(const RecordView&)>& visit);

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
  void create();  ///< a fresh file at path_: the magic, no frames

  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace msa::persist
