// Levels manifest: the sidecar that turns a flat store log into a
// segmented store. It names the live segment files and their
// compaction levels; the append-only `.store` log remains the write-ahead
// tier that readers merge on top. The sidecar is itself a record-framed
// file replaced atomically (tmp + fsync + rename + parent-dir fsync), so
// at every instant exactly one generation is visible:
//
//   <name>.store          append-only log (WAL tier, always present)
//   <name>.store.levels   this manifest (present iff the store is segmented)
//   <name>.store.gNNNNNN.seg   segments, named by write sequence
//
// Crash windows are safe by ordering: segments are durable before the
// manifest names them, the manifest is durable before the log is
// trimmed, and unreferenced `.seg` files are deleted last (a crash
// leaves either invisible debris or bit-identical duplicates in log +
// segment, both of which readers tolerate and the next compaction
// clears).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "persist/campaign_store.h"

namespace msa::persist {

inline constexpr std::uint32_t kLevelsManifestFormatVersion = 1;

/// One live segment, as named by the manifest. `file` is the bare file
/// name — segments always live next to the store, so a store directory
/// can be moved wholesale.
struct SegmentRef {
  std::string file;
  std::uint32_t level = 0;
  std::uint64_t sequence = 0;
  std::uint64_t bytes = 0;
  std::uint64_t trials = 0;
  std::uint64_t cells = 0;

  friend bool operator==(const SegmentRef&, const SegmentRef&) = default;
};

struct LevelsManifest {
  std::uint32_t format = kLevelsManifestFormatVersion;
  /// Bumped by every compaction that changes the segment set — pollers
  /// (StoreTailer) use it to notice the log was trimmed under them.
  std::uint64_t generation = 0;
  StoreManifest identity;  ///< must equal the log's manifest record
  std::vector<SegmentRef> segments;  ///< ascending sequence
};

/// `store_path` + ".levels" — where the sidecar for a store lives.
[[nodiscard]] std::string levels_manifest_path(const std::string& store_path);

/// Sibling file name (no directory) for the segment with `sequence`.
[[nodiscard]] std::string segment_file_name(const std::string& store_path,
                                            std::uint64_t sequence);

/// Absolute/relative path of `ref` resolved next to its store.
[[nodiscard]] std::string segment_path(const std::string& store_path,
                                       const SegmentRef& ref);

/// The sidecar for `store_path`, or nullopt when none exists (a flat
/// store). A present-but-corrupt sidecar throws — unlike a log
/// tail there is no legal torn state, because writes are atomic renames.
[[nodiscard]] std::optional<LevelsManifest> read_levels_manifest(
    const std::string& store_path);

/// Atomically replaces the sidecar: write to tmp, fsync, rename over,
/// fsync the parent directory.
void write_levels_manifest(const std::string& store_path,
                           const LevelsManifest& manifest);

/// Deletes every `<store>.g*.seg` sibling but the file named `keep` —
/// compaction's sweep of the segments its new sidecar no longer names.
void remove_segments_except(const std::string& store_path,
                            const std::string& keep);

/// Deletes `store_path`'s sidecar and every `<store>.g*.seg` sibling —
/// the cleanup path for tests and tools that reset a store wholesale.
void remove_segment_files(const std::string& store_path);

}  // namespace msa::persist
