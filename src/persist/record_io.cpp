#include "persist/record_io.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "obs/metrics.h"
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

/// True when all n bytes arrived; false only at end-of-data. A genuine
/// stream error (EIO, ...) throws instead — conflating it with EOF would
/// make append recovery "truncate" intact records behind a transient
/// read failure.
bool read_exact(std::FILE* f, const std::string& path, std::uint8_t* out,
                std::size_t n, std::size_t* got = nullptr) {
  const std::size_t r = std::fread(out, 1, n, f);
  if (got != nullptr) *got = r;
  if (r != n && std::ferror(f) != 0) io_error("read failed", path);
  return r == n;
}

}  // namespace

void fsync_parent_dir(const std::string& file_path) {
#if defined(_WIN32)
  (void)file_path;  // directory entries cannot be fsynced on Windows
#else
  std::filesystem::path dir = std::filesystem::path(file_path).parent_path();
  if (dir.empty()) dir = ".";
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

RecordReader::RecordReader(const std::string& path,
                           std::uint64_t resume_offset)
    : path_{path} {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) io_error("cannot open store", path);
  std::array<std::uint8_t, kRecordMagic.size()> magic{};
  if (!read_exact(file_, path_, magic.data(), magic.size()) ||
      magic != kRecordMagic) {
    std::fclose(file_);
    file_ = nullptr;
    throw std::runtime_error("persist: not a record store (bad magic): " +
                             path);
  }
  valid_bytes_ = kRecordMagic.size();
  if (resume_offset > kRecordMagic.size()) {
    // 64-bit seek: plain fseek takes a long, which is 32 bits on
    // Windows — a >2 GiB log (one renew record per trial adds up) must
    // still resume.
#if defined(_WIN32)
    const int rc =
        _fseeki64(file_, static_cast<long long>(resume_offset), SEEK_SET);
#else
    const int rc = fseeko(file_, static_cast<off_t>(resume_offset), SEEK_SET);
#endif
    if (rc != 0) {
      std::fclose(file_);
      file_ = nullptr;
      io_error("cannot seek to resume offset", path);
    }
    valid_bytes_ = resume_offset;
  }
}

RecordReader::~RecordReader() {
  if (file_ != nullptr) std::fclose(file_);
}

std::optional<Record> RecordReader::next() {
  if (done_) return std::nullopt;

  std::array<std::uint8_t, 8> header{};
  std::size_t got = 0;
  if (!read_exact(file_, path_, header.data(), header.size(), &got)) {
    done_ = true;
    truncated_ = got != 0;  // a partial header is a torn frame
    if (truncated_) crc_failure_counter().add();
    return std::nullopt;
  }
  util::ByteReader hr{header};
  const std::uint32_t body_len = hr.u32();
  const std::uint32_t stored_crc = hr.u32();
  if (body_len == 0 || body_len > kMaxRecordBody) {
    done_ = true;
    truncated_ = true;
    crc_failure_counter().add();
    return std::nullopt;
  }

  std::vector<std::uint8_t> body(body_len);
  if (!read_exact(file_, path_, body.data(), body.size())) {
    done_ = true;
    truncated_ = true;
    crc_failure_counter().add();
    return std::nullopt;
  }
  if (util::crc32(std::span<const std::uint8_t>{body}) != stored_crc) {
    done_ = true;
    truncated_ = true;
    crc_failure_counter().add();
    return std::nullopt;
  }

  valid_bytes_ += header.size() + body.size();
  Record record;
  record.type = body[0];
  record.payload.assign(body.begin() + 1, body.end());
  return record;
}

RecordWriter::RecordWriter(const std::string& path, Mode mode) : path_{path} {
  const bool exists = std::filesystem::exists(path);
  if (mode == Mode::kTruncate || !exists) {
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) io_error("cannot create store", path);
    if (std::fwrite(kRecordMagic.data(), 1, kRecordMagic.size(), file_) !=
        kRecordMagic.size()) {
      std::fclose(file_);
      file_ = nullptr;
      io_error("cannot write store magic", path);
    }
    return;
  }

  if (mode == Mode::kAppendRecover) {
    // Append recovery: find the end of the last intact frame, drop any
    // torn tail so new frames land on a clean boundary.
    std::uint64_t keep = 0;
    {
      RecordReader reader{path};  // throws on bad magic — never clobber
      while (reader.next().has_value()) {
      }
      keep = reader.valid_bytes();
    }
    std::error_code ec;
    std::filesystem::resize_file(path, keep, ec);
    if (ec) {
      throw std::runtime_error("persist: cannot truncate torn tail: " + path +
                               ": " + ec.message());
    }
  } else {
    // kAppendClean: the caller scanned and truncated already; just make
    // sure this really is a record store before appending to it.
    RecordReader magic_check{path};
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) io_error("cannot open store for append", path);
}

RecordWriter::~RecordWriter() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

void RecordWriter::append(std::uint8_t type,
                          std::span<const std::uint8_t> payload) {
  if (payload.size() >= kMaxRecordBody) {
    throw std::length_error("persist: record payload too large");
  }
  util::Crc32 crc;
  crc.update(std::span<const std::uint8_t>{&type, 1});
  crc.update(payload);

  util::ByteWriter header;
  header.u32(static_cast<std::uint32_t>(payload.size() + 1));
  header.u32(crc.value());
  if (std::fwrite(header.bytes().data(), 1, header.size(), file_) !=
          header.size() ||
      std::fwrite(&type, 1, 1, file_) != 1 ||
      // payload.data() may be null for an empty payload; fwrite's pointer
      // argument must not be.
      (!payload.empty() &&
       std::fwrite(payload.data(), 1, payload.size(), file_) !=
           payload.size())) {
    io_error("short write", path_);
  }
  records_written_counter().add();
  bytes_written_counter().add(header.size() + 1 + payload.size());
}

void RecordWriter::flush() {
  if (std::fflush(file_) != 0) io_error("flush failed", path_);
}

void RecordWriter::sync() {
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
