// Shared on-disk codecs for campaign-store records. One encoder per
// record type, used by the append-only log writer (campaign_store.cpp),
// the segment writer/reader (segment.cpp), and the merged-view reader
// (store_reader.cpp) — byte-identical encoding everywhere is what makes
// the cross-store duplicate check ("same bytes or corruption") and the
// before/after-compaction byte-identity contract possible.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "campaign/report.h"
#include "persist/campaign_store.h"
#include "util/bytes.h"

namespace msa::persist {

// Record types inside a campaign store log. Unknown types are skipped on
// read (and preserved verbatim by compaction) so later format additions
// stay backward-readable.
inline constexpr std::uint8_t kRecManifest = 1;
inline constexpr std::uint8_t kRecTrial = 2;
// Type 3 is reserved: it held an earlier cell layout and must never be
// reused.
inline constexpr std::uint8_t kRecCell = 4;  ///< ordered axis coordinates

void encode_axis_value(util::ByteWriter& w, const campaign::AxisValue& v);
[[nodiscard]] campaign::AxisValue decode_axis_value(util::ByteReader& r);

/// An encoded axis value read without decoding: its kind and its bytes —
/// the string, the double's eight bytes or the flag byte. Makes the reads
/// decode_axis_value makes, so the same bytes fail with the same error.
struct AxisValueBytes {
  campaign::AxisKind kind = campaign::AxisKind::kString;
  std::span<const std::uint8_t> bytes;
};
[[nodiscard]] AxisValueBytes read_axis_value(util::ByteReader& r);

/// One encoded trial payload, in place in a loaded log or a segment
/// block.
using TrialBytes = std::span<const std::uint8_t>;

/// Appends `t`'s encoding to `w`: the one trial encoder, shared by the
/// log writer and the segment writer.
void encode_trial(const TrialRecord& t, util::ByteWriter& w);
[[nodiscard]] TrialRecord decode_trial(std::span<const std::uint8_t> payload);
/// Just the (cell, trial) key of an encoded trial — its two leading
/// varints — for merging records before decoding them.
[[nodiscard]] TrialRecord::Key decode_trial_key(
    std::span<const std::uint8_t> payload);

/// One encoded cell record, in place in a loaded log or a segment block.
using CellBytes = std::span<const std::uint8_t>;

/// Cell record: varint(index), the cell's key (encode_cell_key's exact
/// bytes), then the counters.
[[nodiscard]] std::vector<std::uint8_t> encode_cell(
    const campaign::CellStats& c);
[[nodiscard]] campaign::CellStats decode_cell(CellBytes payload);

/// A cell record located but not decoded: its index and a view of its
/// key, for selecting and merging records before decoding them.
struct CellKeyView {
  std::uint64_t index = 0;
  std::span<const std::uint8_t> key;
};
/// Reads `payload`'s index and key and skips its counters: the reads
/// decode_cell makes, in its order, so a malformed record fails here with
/// the error decode_cell gives.
[[nodiscard]] CellKeyView read_cell_key(CellBytes payload);

/// Encoded sort key of a cell: its ordered (axis, value) coordinates.
/// Encoding is deterministic, so equal keys are equal bytes — segment
/// lookups compare raw bytes for equality and decode only to ORDER keys
/// (axis name, then AxisValue's total order), because the semantic order
/// is not the byte order.
[[nodiscard]] std::vector<std::uint8_t> encode_cell_key(
    const std::vector<campaign::AxisCoordinate>& coords);
[[nodiscard]] std::vector<campaign::AxisCoordinate> decode_cell_key(
    std::span<const std::uint8_t> bytes);
[[nodiscard]] bool cell_key_less(
    const std::vector<campaign::AxisCoordinate>& a,
    const std::vector<campaign::AxisCoordinate>& b);

}  // namespace msa::persist
