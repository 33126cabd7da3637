// Immutable sorted segments — the SSTable-shaped tier campaign-store
// compaction writes. A segment holds one store's completed cells and
// their trials, sorted by (cell axis-key, trial index) and grouped into
// CRC-framed blocks, with a first-key block index and a fixed-size footer
// so a reader seeks straight to the blocks of one cell instead of
// replaying the whole file:
//
//   magic | header | trial block ... | cell block ... | index | footer
//
// Every piece is a standard RecordWriter frame ([len][crc][type+payload]),
// so torn writes are detected by the same CRC machinery as the log. The
// footer frame has a fixed size and sits at EOF; opening a segment reads
// it first (seek to size-57), then the index it points at. Any truncation
// or corruption therefore fails loudly at open — a segment is immutable
// once written, so unlike the append-only log there is no tail to heal:
// the reader REJECTS a damaged segment with a named error and never
// serves a partial view of it.
//
// Layout invariants:
//  - trial blocks: groups of whole cells — a cell's trials never split
//    across blocks, so the block whose first key is the greatest key
//    <= K is the ONLY block that can hold cell K.
//  - cell blocks: the per-cell aggregate records, separately from the
//    (much larger) trial data, so reading a store's completed cells —
//    StoreReader::cells(), which a resume reloads from — reads a few
//    small blocks and no trial bytes. (Progress polls read the levels
//    manifest's totals and no segment at all.)
//  - the header pins the owning store's identity manifest; readers refuse
//    a segment from a different sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "persist/campaign_store.h"
#include "persist/record_io.h"
#include "persist/store_codec.h"

namespace msa::persist {

inline constexpr std::uint32_t kSegmentFormatVersion = 1;

/// Fixed-size footer frame: 8 (frame header) + 1 (type) + 48 (payload).
inline constexpr std::uint64_t kSegmentFooterFrameBytes = 57;

/// Identity and totals of one segment, from its header + footer.
struct SegmentInfo {
  std::uint32_t format = kSegmentFormatVersion;
  std::uint32_t level = 0;     ///< 0; older tiered compactions went deeper
  std::uint64_t sequence = 0;  ///< global write order; later wins on read
  StoreManifest identity;      ///< the owning store's manifest
  std::uint64_t trial_count = 0;
  std::uint64_t cell_count = 0;
};

struct SegmentWriteOptions {
  /// Target block payload size; a block closes at the first whole cell
  /// that reaches it (one oversized cell still becomes one block).
  std::size_t block_bytes = 64 * 1024;
};

/// One cell's trials as write_segment pulls them: the encoded records of
/// `cell`, ascending by trial, valid until the next call.
using SegmentTrials =
    std::function<std::span<const TrialBytes>(const campaign::CellStats& cell)>;

/// Writes the completed `cells`, ascending by cell_key_less, as a fresh
/// segment at `path` (clobbering any stale file from an interrupted
/// compaction), then syncs the file AND its parent directory — once this
/// returns, the segment exists after power loss. Each cell's trials are
/// pulled from `trials_of` as the open block fills, so the caller holds
/// one cell's at a time; each is decoded and re-encoded straight into its
/// block, so the segment holds canonical encodings whatever bytes the
/// payloads carry. Returns the totals that go into the levels manifest.
/// Throws std::invalid_argument when the cells do not strictly ascend
/// by key or a trial is of another cell than the one it came with,
/// leaving at `path` debris that no levels manifest names.
SegmentInfo write_segment(const std::string& path, std::uint32_t level,
                          std::uint64_t sequence,
                          const StoreManifest& identity,
                          std::span<const campaign::CellStats> cells,
                          const SegmentTrials& trials_of,
                          const SegmentWriteOptions& options = {});

/// Random-access reader over one segment. The constructor validates
/// footer, header and index (throwing "persist: segment ..." errors on
/// any damage); block reads happen on demand and feed the
/// persist.segment_bytes_read / persist.segment_blocks_read counters, so
/// tests and benches can assert an indexed query touched a small
/// fraction of the file. Blocks are read with pread(2) on one
/// descriptor, so a const reader serves concurrent callers.
class SegmentReader {
 public:
  explicit SegmentReader(std::string path);

  [[nodiscard]] const SegmentInfo& info() const noexcept { return info_; }
  [[nodiscard]] std::uint64_t file_bytes() const noexcept {
    return file_bytes_;
  }

  /// A cell block's payload with its records located: views of the
  /// encoded cell records, in key order. The views stay valid when the
  /// block is moved (the payload's buffer moves with it).
  struct CellBlock {
    std::vector<std::uint8_t> payload;
    std::vector<CellBytes> cells;
  };
  [[nodiscard]] std::size_t cell_block_count() const noexcept {
    return cell_blocks_.size();
  }
  /// Reads cell block `block` (CRC-checked), locates its records and
  /// checks their count against the index — no record is decoded. No
  /// trial bytes are touched.
  [[nodiscard]] CellBlock read_cell_block(std::size_t block) const;

  /// One cell's aggregate via the cell-block index: reads exactly one
  /// (small) cell block, compares each record's key bytes with `key` and
  /// decodes only the hit; nullopt when the segment holds no such cell.
  [[nodiscard]] std::optional<campaign::CellStats> cell_for_key(
      std::span<const std::uint8_t> key) const;

  /// Index of the single trial block that can hold `key`, nullopt when
  /// the key sorts before every block. Lets a caller reading several
  /// cells read each shared block once.
  [[nodiscard]] std::optional<std::size_t> trial_block_for(
      std::span<const std::uint8_t> key) const;
  [[nodiscard]] std::size_t trial_block_count() const noexcept {
    return trial_blocks_.size();
  }

  /// Trial block `block`'s frame length in bytes and trial count, as the
  /// index records them.
  [[nodiscard]] std::uint64_t trial_frame_bytes(std::size_t block) const {
    return trial_blocks_.at(block).frame_len;
  }
  [[nodiscard]] std::uint64_t trial_block_trials(std::size_t block) const {
    return trial_blocks_.at(block).count;
  }

  /// One cell's trials inside a trial block: its encoded cell key and
  /// `count` encoded trial records (each a blob: varint length + bytes),
  /// in stored trial order. Views into the frame the block was read into.
  struct TrialGroup {
    std::span<const std::uint8_t> key;
    std::uint64_t count = 0;
    std::span<const std::uint8_t> trials;
  };

  /// Reads trial block `block`'s whole frame into `frame`, which must be
  /// trial_frame_bytes(block) long, checks its type and CRC, and locates
  /// its groups, checking their trial total against the index — no
  /// record is decoded. The groups view `frame`. Calls for disjoint
  /// frames may run concurrently; StoreReader reads a segment's selected
  /// blocks that way, into one buffer, and decodes each selected record
  /// once, straight into its merged position.
  [[nodiscard]] std::vector<TrialGroup> read_trial_block(
      std::size_t block, std::span<std::uint8_t> frame) const;

 private:
  struct BlockRef {
    std::vector<std::uint8_t> first_key;          ///< encoded
    std::vector<campaign::AxisCoordinate> first;  ///< decoded, for ordering
    std::uint64_t offset = 0;  ///< frame start
    std::uint64_t frame_len = 0;
    std::uint64_t count = 0;  ///< trials (trial block) or cells (cell block)
  };

  /// Reads the single frame starting at `offset`, validating its type.
  [[nodiscard]] std::vector<std::uint8_t> read_frame_at(
      std::uint64_t offset, std::uint8_t expect_type) const;

  std::string path_;
  std::uint64_t file_bytes_ = 0;
  std::unique_ptr<RecordFile> file_;
  SegmentInfo info_;
  std::vector<BlockRef> trial_blocks_;
  std::vector<BlockRef> cell_blocks_;
};

}  // namespace msa::persist
