#include "persist/record_io.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/monotime.h"

namespace msa::persist {

namespace {

// Registry lookups hashed once; the references stay valid for the
// process (obs/metrics.h).
obs::Counter& records_written_counter() {
  static obs::Counter& c = obs::counter("persist.records_written");
  return c;
}
obs::Counter& bytes_written_counter() {
  static obs::Counter& c = obs::counter("persist.bytes_written");
  return c;
}
obs::Counter& fsync_counter() {
  static obs::Counter& c = obs::counter("persist.fsyncs");
  return c;
}
obs::Histogram& fsync_histogram() {
  static obs::Histogram& h = obs::histogram("persist.fsync_ns");
  return h;
}
obs::Counter& crc_failure_counter() {
  static obs::Counter& c = obs::counter("persist.crc_frame_failures");
  return c;
}

[[noreturn]] void io_error(const std::string& what, const std::string& path) {
  throw std::runtime_error("persist: " + what + ": " + path + ": " +
                           std::strerror(errno));
}

/// The frame checks both readers share: a body holds at least its type
/// byte, and a length prefix beyond the cap is a torn one.
bool body_len_ok(std::uint32_t body_len) {
  return body_len != 0 && body_len <= kMaxRecordBody;
}

/// The frame at the start of `bytes`, checked and viewed in place:
/// nullopt, counted as a CRC frame failure, when it is short, oversized
/// or fails its CRC. Its length is 9 + the view's payload size.
std::optional<RecordView> view_frame(std::span<const std::uint8_t> bytes) {
  const auto torn = [] {
    crc_failure_counter().add();
    return std::nullopt;
  };
  if (bytes.size() < 9) return torn();
  util::ByteReader hr{bytes.first(8)};
  const std::uint32_t body_len = hr.u32();
  const std::uint32_t stored_crc = hr.u32();
  if (!body_len_ok(body_len) || body_len > bytes.size() - 8) return torn();
  const std::span<const std::uint8_t> body = bytes.subspan(8, body_len);
  if (util::crc32(body) != stored_crc) return torn();
  return RecordView{body[0], body.subspan(1)};
}

/// CRC-32 of a frame body: its type byte, then the payload.
std::uint32_t body_crc(std::uint8_t type, std::span<const std::uint8_t> head,
                       std::span<const std::uint8_t> tail = {}) {
  util::Crc32 crc;
  crc.update(std::span<const std::uint8_t>{&type, 1});
  crc.update(head);
  crc.update(tail);
  return crc.value();
}

}  // namespace

void fsync_parent_dir(const std::string& file_path) {
#if defined(_WIN32)
  (void)file_path;  // directory entries cannot be fsynced on Windows
#else
  std::filesystem::path dir = std::filesystem::path(file_path).parent_path();
  if (dir.empty()) dir = ".";
  TRACE_SPAN("persist", "fsync");
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) io_error("cannot open directory for fsync", dir.string());
  const std::uint64_t start_ns = util::monotonic_ns();
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    io_error("directory fsync failed", dir.string());
  }
  ::close(fd);
  fsync_counter().add();
  fsync_histogram().record(util::monotonic_ns() - start_ns);
#endif
}

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

bool record_file_usable(const std::string& path) {
  return file_size_or_zero(path) >= kRecordMagic.size();
}

FileLock::FileLock(const std::string& path, Kind kind) {
#if defined(_WIN32)
  (void)path;
  (void)kind;
#else
  const bool shared = kind == Kind::kShared;
  for (;;) {
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | (shared ? O_CREAT : 0),
                 0666);
    if (fd_ < 0) io_error("cannot open store", path);
    int rc = 0;
    do {
      rc = ::flock(fd_, shared ? LOCK_SH : LOCK_EX | LOCK_NB);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      const int saved = errno;
      ::close(fd_);
      if (saved == EWOULDBLOCK) {
        throw std::runtime_error("persist: store is open by a live writer: " +
                                 path);
      }
      errno = saved;
      io_error("cannot lock store", path);
    }
    struct stat locked {};
    struct stat named {};
    if (::fstat(fd_, &locked) == 0 && ::stat(path.c_str(), &named) == 0 &&
        locked.st_dev == named.st_dev && locked.st_ino == named.st_ino) {
      return;
    }
    ::close(fd_);  // the path was renamed over while we waited
  }
#endif
}

FileLock::~FileLock() {
#if !defined(_WIN32)
  if (fd_ >= 0) ::close(fd_);
#endif
}

RecordBuffer::RecordBuffer(const std::string& path, std::uint64_t offset)
    : start_{std::max<std::uint64_t>(offset, kRecordMagic.size())} {
  const RecordFile file{path};  // checks the magic
  // One read of what the file holds now; a frame still being appended
  // past that is a torn tail until the next read.
  const std::uint64_t size = file_size_or_zero(path);
  if (size <= start_) return;
  bytes_ = std::make_unique_for_overwrite<std::uint8_t[]>(size - start_);
  size_ = file.read_upto(start_, {bytes_.get(), size - start_});
}

std::optional<RecordView> RecordBuffer::next() {
  if (truncated_ || pos_ == size_) return std::nullopt;
  const std::optional<RecordView> rec =
      view_frame({bytes_.get() + pos_, size_ - pos_});
  if (!rec.has_value()) {
    truncated_ = true;
    return std::nullopt;
  }
  pos_ += 9 + rec->payload.size();
  return rec;
}

RecordFile::RecordFile(std::string path) : path_{std::move(path)} {
#if !defined(_WIN32)
  fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) io_error("cannot open store", path_);
#endif
  std::array<std::uint8_t, kRecordMagic.size()> magic{};
  if (read_upto(0, magic) != magic.size() || magic != kRecordMagic) {
#if !defined(_WIN32)
    ::close(fd_);
#endif
    throw std::runtime_error("persist: not a record store (bad magic): " +
                             path_);
  }
}

RecordFile::~RecordFile() {
#if !defined(_WIN32)
  ::close(fd_);
#endif
}

std::size_t RecordFile::read_upto(std::uint64_t offset,
                                  std::span<std::uint8_t> out) const {
#if defined(_WIN32)
  std::FILE* file = std::fopen(path_.c_str(), "rb");
  if (file == nullptr) io_error("cannot open store", path_);
  std::size_t got = 0;
  if (_fseeki64(file, static_cast<long long>(offset), SEEK_SET) == 0) {
    got = std::fread(out.data(), 1, out.size(), file);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) io_error("read failed", path_);
  return got;
#else
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + got, out.size() - got,
                              static_cast<off_t>(offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) io_error("read failed", path_);
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got;
#endif
}

std::optional<Record> RecordFile::read_at(std::uint64_t offset) const {
  const auto torn = [] {
    crc_failure_counter().add();
    return std::nullopt;
  };
  std::array<std::uint8_t, 9> head{};  // [u32 body_len][u32 crc][u8 type]
  if (read_upto(offset, head) != head.size()) return torn();
  util::ByteReader hr{head};
  const std::uint32_t body_len = hr.u32();
  const std::uint32_t stored_crc = hr.u32();
  if (!body_len_ok(body_len)) return torn();
  Record record;
  record.type = hr.u8();
  record.payload.resize(body_len - 1);
  if (read_upto(offset + head.size(), record.payload) !=
          record.payload.size() ||
      body_crc(record.type, record.payload) != stored_crc) {
    return torn();
  }
  return record;
}

std::optional<RecordView> RecordFile::read_frame(
    std::uint64_t offset, std::span<std::uint8_t> frame) const {
  if (read_upto(offset, frame) != frame.size()) {
    crc_failure_counter().add();
    return std::nullopt;
  }
  const std::optional<RecordView> rec = view_frame(frame);
  if (rec.has_value() && 9 + rec->payload.size() != frame.size()) {
    crc_failure_counter().add();
    return std::nullopt;
  }
  return rec;
}

RecordWriter::RecordWriter(const std::string& path) : path_{path} {
  create();
}

RecordWriter::RecordWriter(
    const std::string& path,
    const std::function<void(const RecordView&)>& visit)
    : path_{path} {
  if (!record_file_usable(path)) {
    create();
    return;
  }
  std::uint64_t keep = 0;
  {
    RecordBuffer log{path};  // throws on bad magic — never clobber
    while (const std::optional<RecordView> rec = log.next()) visit(*rec);
    keep = log.valid_bytes();
  }
  std::error_code ec;
  std::filesystem::resize_file(path, keep, ec);
  if (ec) {
    throw std::runtime_error("persist: cannot truncate torn tail: " + path +
                             ": " + ec.message());
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) io_error("cannot open store for append", path);
}

void RecordWriter::create() {
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) io_error("cannot create store", path_);
  if (std::fwrite(kRecordMagic.data(), 1, kRecordMagic.size(), file_) !=
      kRecordMagic.size()) {
    std::fclose(file_);
    file_ = nullptr;
    io_error("cannot write store magic", path_);
  }
}

RecordWriter::~RecordWriter() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

void RecordWriter::append(std::uint8_t type,
                          std::span<const std::uint8_t> head,
                          std::span<const std::uint8_t> tail) {
  const std::size_t payload = head.size() + tail.size();
  if (payload >= kMaxRecordBody) {
    throw std::length_error("persist: record payload too large");
  }
  util::ByteWriter header;
  header.u32(static_cast<std::uint32_t>(payload + 1));
  header.u32(body_crc(type, head, tail));
  header.u8(type);
  // An empty part's data() may be null; fwrite's pointer argument must
  // not be.
  const auto put = [&](std::span<const std::uint8_t> part) {
    return part.empty() ||
           std::fwrite(part.data(), 1, part.size(), file_) == part.size();
  };
  if (!put(header.bytes()) || !put(head) || !put(tail)) {
    io_error("short write", path_);
  }
  records_written_counter().add();
  bytes_written_counter().add(header.size() + payload);
}

void RecordWriter::flush() {
  if (std::fflush(file_) != 0) io_error("flush failed", path_);
}

void RecordWriter::sync() {
  TRACE_SPAN("persist", "fsync");
  flush();
  const std::uint64_t start_ns = util::monotonic_ns();
#if defined(_WIN32)
  // No fsync on the MSVC runtime's stdio handle without _commit; flush
  // is the best available there.
#else
  if (::fsync(fileno(file_)) != 0) io_error("fsync failed", path_);
#endif
  fsync_counter().add();
  fsync_histogram().record(util::monotonic_ns() - start_ns);
}

}  // namespace msa::persist
