#include "persist/segment.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bytes.h"

namespace msa::persist {

namespace {

// Segment record types — disjoint from the store-log types (1..4) so a
// segment frame can never be mistaken for a log record and vice versa.
constexpr std::uint8_t kSegHeader = 20;
constexpr std::uint8_t kSegTrialBlock = 21;
constexpr std::uint8_t kSegCellBlock = 22;
constexpr std::uint8_t kSegIndex = 23;
constexpr std::uint8_t kSegFooter = 24;

// "MSASEGF1" little-endian: the first 8 bytes of a valid footer payload.
constexpr std::uint64_t kSegmentFooterMagic = 0x314647455341534dULL;
constexpr std::size_t kFooterPayloadBytes = 48;

obs::Counter& segment_bytes_read_counter() {
  static obs::Counter& c = obs::counter("persist.segment_bytes_read");
  return c;
}
obs::Counter& segment_blocks_read_counter() {
  static obs::Counter& c = obs::counter("persist.segment_blocks_read");
  return c;
}

[[noreturn]] void seg_error(const std::string& path, const std::string& what) {
  throw std::runtime_error("persist: segment " + path + ": " + what);
}

/// The frame `read()` returns from `offset` of segment `path` — a Record
/// or a RecordView — checked: an I/O error, a torn frame and a frame of
/// another type than `expect_type` throw named errors.
template <typename Read>
auto checked_frame(const std::string& path, std::uint64_t offset,
                   std::uint8_t expect_type, Read read) {
  decltype(read()) rec;
  try {
    rec = read();
  } catch (const std::runtime_error& e) {
    seg_error(path, std::string{"unreadable frame: "} + e.what());
  }
  if (!rec.has_value()) {
    seg_error(path, "truncated or corrupt frame at offset " +
                        std::to_string(offset));
  }
  if (rec->type != expect_type) {
    seg_error(path, "unexpected record type " + std::to_string(rec->type) +
                        " at offset " + std::to_string(offset));
  }
  return *std::move(rec);
}

}  // namespace

SegmentInfo write_segment(const std::string& path, std::uint32_t level,
                          std::uint64_t sequence,
                          const StoreManifest& identity,
                          std::span<const campaign::CellStats> cells,
                          const SegmentTrials& trials_of,
                          const SegmentWriteOptions& options) {
  TRACE_SPAN("persist", "write_segment");
  SegmentInfo info;
  info.level = level;
  info.sequence = sequence;
  info.identity = identity;
  info.cell_count = cells.size();

  struct WrittenBlock {
    std::vector<std::uint8_t> first_key;
    std::uint64_t offset = 0;
    std::uint64_t frame_len = 0;
    std::uint64_t count = 0;
  };
  std::vector<WrittenBlock> trial_blocks;
  std::vector<WrittenBlock> cell_blocks;

  // Truncating: segment file names embed the compaction sequence, so an
  // existing file at `path` can only be debris from an interrupted
  // compaction that never published its manifest — clobber it.
  RecordWriter writer{path};
  std::uint64_t offset = kRecordMagic.size();
  const auto append = [&](std::uint8_t type, std::span<const std::uint8_t> head,
                          std::span<const std::uint8_t> tail = {}) {
    writer.append(type, head, tail);
    const std::uint64_t frame_len = 8 + 1 + head.size() + tail.size();
    const std::uint64_t at = offset;
    offset += frame_len;
    return std::pair{at, frame_len};
  };

  {
    util::ByteWriter h;
    h.u32(kSegmentFormatVersion);
    h.u32(level);
    h.u64(sequence);
    h.blob(encode_store_manifest(identity));
    append(kSegHeader, h.bytes());
  }

  // The open block: its entries encoded in place, framed behind their
  // count when the block closes.
  util::ByteWriter block;
  util::ByteWriter block_head;
  std::vector<std::uint8_t> first_key;
  std::uint64_t entries = 0;
  std::uint64_t count = 0;  ///< trials or cells
  const auto flush_block = [&](std::uint8_t type,
                               std::vector<WrittenBlock>& out) {
    if (entries == 0) return;
    block_head.clear();
    block_head.varint(entries);
    const auto [at, frame_len] = append(type, block_head.bytes(), block.bytes());
    out.push_back({std::move(first_key), at, frame_len, count});
    block.clear();
    entries = count = 0;
  };
  const auto add_entry = [&](std::uint8_t type,
                             std::span<const std::uint8_t> key,
                             std::uint64_t records,
                             std::vector<WrittenBlock>& out) {
    if (entries++ == 0) first_key.assign(key.begin(), key.end());
    count += records;
    if (block.size() >= options.block_bytes) flush_block(type, out);
  };

  // Trial blocks: whole-cell groups, a block closing at the first cell
  // that reaches the target size. Group entry:
  //   blob(cell key) varint(trial count) { blob(trial record) }...
  util::ByteWriter trial;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const campaign::CellStats& cell = cells[i];
    if (i > 0 && !cell_key_less(cells[i - 1].coords, cell.coords)) {
      throw std::invalid_argument(
          "persist: segment cells out of key order or repeated");
    }
    const std::span<const TrialBytes> trials = trials_of(cell);
    const std::vector<std::uint8_t> key = encode_cell_key(cell.coords);
    block.blob(key);
    block.varint(trials.size());
    for (const TrialBytes payload : trials) {
      const TrialRecord record = decode_trial(payload);
      if (record.cell_index != cell.index) {
        throw std::invalid_argument("persist: segment trial of another cell");
      }
      trial.clear();
      encode_trial(record, trial);
      block.blob(trial.bytes());
    }
    info.trial_count += trials.size();
    add_entry(kSegTrialBlock, key, trials.size(), trial_blocks);
  }
  flush_block(kSegTrialBlock, trial_blocks);

  // Cell blocks: the aggregate records (coords embedded — the key is
  // derivable, so entries are plain cell payloads).
  for (const campaign::CellStats& cell : cells) {
    block.blob(encode_cell(cell));
    add_entry(kSegCellBlock, encode_cell_key(cell.coords), 1, cell_blocks);
  }
  flush_block(kSegCellBlock, cell_blocks);

  const std::uint64_t index_offset = offset;
  {
    util::ByteWriter idx;
    const auto put_refs = [&](const std::vector<WrittenBlock>& blocks) {
      idx.varint(blocks.size());
      for (const WrittenBlock& b : blocks) {
        idx.blob(b.first_key);
        idx.varint(b.offset);
        idx.varint(b.frame_len);
        idx.varint(b.count);
      }
    };
    put_refs(trial_blocks);
    put_refs(cell_blocks);
    append(kSegIndex, idx.bytes());
  }

  {
    util::ByteWriter f;
    f.u64(kSegmentFooterMagic);
    f.u32(kSegmentFormatVersion);
    f.u32(level);
    f.u64(sequence);
    f.u64(index_offset);
    f.u64(info.trial_count);
    f.u64(info.cell_count);
    append(kSegFooter, f.bytes());
  }
  writer.sync();
  fsync_parent_dir(path);
  return info;
}

std::vector<std::uint8_t> SegmentReader::read_frame_at(
    std::uint64_t offset, std::uint8_t expect_type) const {
  Record rec = checked_frame(path_, offset, expect_type,
                             [&] { return file_->read_at(offset); });
  segment_bytes_read_counter().add(8 + 1 + rec.payload.size());
  return std::move(rec.payload);
}

SegmentReader::SegmentReader(std::string path) : path_{std::move(path)} {
  std::error_code ec;
  file_bytes_ = std::filesystem::file_size(path_, ec);
  if (ec) seg_error(path_, "cannot stat: " + ec.message());
  if (file_bytes_ < kRecordMagic.size() + kSegmentFooterFrameBytes) {
    seg_error(path_, "too small to hold a footer (truncated?)");
  }
  try {
    file_ = std::make_unique<RecordFile>(path_);
  } catch (const std::runtime_error& e) {
    seg_error(path_, std::string{"unreadable frame: "} + e.what());
  }

  // Footer first: fixed-size frame at EOF. Truncating the file by even
  // one byte shifts this window onto unrelated bytes, so the CRC check
  // rejects every torn segment here.
  std::uint64_t index_offset = 0;
  {
    const std::vector<std::uint8_t> payload =
        read_frame_at(file_bytes_ - kSegmentFooterFrameBytes, kSegFooter);
    if (payload.size() != kFooterPayloadBytes) {
      seg_error(path_, "footer payload has wrong size");
    }
    util::ByteReader r{payload};
    if (r.u64() != kSegmentFooterMagic) seg_error(path_, "bad footer magic");
    info_.format = r.u32();
    if (info_.format != kSegmentFormatVersion) {
      seg_error(path_,
                "unsupported format version " + std::to_string(info_.format));
    }
    info_.level = r.u32();
    info_.sequence = r.u64();
    index_offset = r.u64();
    info_.trial_count = r.u64();
    info_.cell_count = r.u64();
    if (index_offset < kRecordMagic.size() ||
        index_offset >= file_bytes_ - kSegmentFooterFrameBytes) {
      seg_error(path_, "index offset out of bounds");
    }
  }

  {
    const std::vector<std::uint8_t> payload =
        read_frame_at(kRecordMagic.size(), kSegHeader);
    util::ByteReader r{payload};
    const std::uint32_t format = r.u32();
    const std::uint32_t level = r.u32();
    const std::uint64_t sequence = r.u64();
    if (format != info_.format || level != info_.level ||
        sequence != info_.sequence) {
      seg_error(path_, "header does not match footer");
    }
    info_.identity = decode_store_manifest(r.blob());
  }

  {
    const std::vector<std::uint8_t> payload =
        read_frame_at(index_offset, kSegIndex);
    util::ByteReader r{payload};
    const auto get_refs = [&](std::vector<BlockRef>& out,
                              std::uint64_t lo_offset) {
      const std::uint64_t n = r.count();
      out.reserve(n);
      std::uint64_t prev_end = lo_offset;
      for (std::uint64_t i = 0; i < n; ++i) {
        BlockRef ref;
        const std::span<const std::uint8_t> key = r.blob();
        ref.first_key.assign(key.begin(), key.end());
        ref.first = decode_cell_key(ref.first_key);
        ref.offset = r.varint();
        ref.frame_len = r.varint();
        ref.count = r.varint();
        if (ref.offset < prev_end ||
            ref.offset + ref.frame_len > index_offset) {
          seg_error(path_, "index entry out of bounds");
        }
        prev_end = ref.offset + ref.frame_len;
        out.push_back(std::move(ref));
      }
      return prev_end;
    };
    const std::uint64_t trials_end = get_refs(trial_blocks_, 0);
    get_refs(cell_blocks_, trials_end);
    std::uint64_t trials = 0;
    for (const BlockRef& b : trial_blocks_) trials += b.count;
    std::uint64_t cells = 0;
    for (const BlockRef& b : cell_blocks_) cells += b.count;
    if (trials != info_.trial_count || cells != info_.cell_count) {
      seg_error(path_, "index totals do not match footer");
    }
  }
}

SegmentReader::CellBlock SegmentReader::read_cell_block(
    std::size_t block) const {
  const BlockRef& ref = cell_blocks_.at(block);
  CellBlock out;
  out.payload = read_frame_at(ref.offset, kSegCellBlock);
  segment_blocks_read_counter().add();
  util::ByteReader r{out.payload};
  const std::uint64_t n = r.varint();
  if (n != ref.count) seg_error(path_, "cell block count mismatch");
  for (std::uint64_t i = 0; i < n; ++i) out.cells.push_back(r.blob());
  return out;
}

std::optional<std::size_t> SegmentReader::trial_block_for(
    std::span<const std::uint8_t> key) const {
  if (trial_blocks_.empty()) return std::nullopt;
  const std::vector<campaign::AxisCoordinate> want = decode_cell_key(key);
  // Last block whose first key <= want: upper_bound on "want < first".
  const auto it = std::upper_bound(
      trial_blocks_.begin(), trial_blocks_.end(), want,
      [](const std::vector<campaign::AxisCoordinate>& w, const BlockRef& b) {
        return cell_key_less(w, b.first);
      });
  if (it == trial_blocks_.begin()) return std::nullopt;
  return static_cast<std::size_t>(std::distance(trial_blocks_.begin(), it)) -
         1;
}

std::vector<SegmentReader::TrialGroup> SegmentReader::read_trial_block(
    std::size_t block, std::span<std::uint8_t> frame) const {
  const BlockRef& ref = trial_blocks_.at(block);
  if (frame.size() != ref.frame_len) {
    throw std::invalid_argument("persist: trial block buffer of " +
                                std::to_string(frame.size()) +
                                " bytes for a frame of " +
                                std::to_string(ref.frame_len));
  }
  const RecordView rec =
      checked_frame(path_, ref.offset, kSegTrialBlock,
                    [&] { return file_->read_frame(ref.offset, frame); });
  segment_bytes_read_counter().add(ref.frame_len);
  segment_blocks_read_counter().add();
  // Group entry: blob(cell key) varint(trial count) { blob(trial) }...
  util::ByteReader r{rec.payload};
  const std::uint64_t count = r.count();
  std::vector<TrialGroup> groups;
  groups.reserve(count);
  std::uint64_t trials = 0;
  for (std::uint64_t g = 0; g < count; ++g) {
    TrialGroup& group = groups.emplace_back();
    group.key = r.blob();
    group.count = r.varint();
    const std::size_t begin = r.position();
    for (std::uint64_t i = 0; i < group.count; ++i) (void)r.blob();
    group.trials = rec.payload.subspan(begin, r.position() - begin);
    trials += group.count;
  }
  if (trials != ref.count) seg_error(path_, "trial block count mismatch");
  return groups;
}

std::optional<campaign::CellStats> SegmentReader::cell_for_key(
    std::span<const std::uint8_t> key) const {
  if (cell_blocks_.empty()) return std::nullopt;
  const std::vector<campaign::AxisCoordinate> want = decode_cell_key(key);
  const auto it = std::upper_bound(
      cell_blocks_.begin(), cell_blocks_.end(), want,
      [](const std::vector<campaign::AxisCoordinate>& w, const BlockRef& b) {
        return cell_key_less(w, b.first);
      });
  if (it == cell_blocks_.begin()) return std::nullopt;
  const CellBlock block = read_cell_block(
      static_cast<std::size_t>(std::distance(cell_blocks_.begin(), it)) - 1);
  for (const CellBytes cell : block.cells) {
    if (std::ranges::equal(read_cell_key(cell).key, key)) {
      return decode_cell(cell);
    }
  }
  return std::nullopt;
}

}  // namespace msa::persist
