// Attack Step 4.a: identifying the model from strings in the residue.
//
// The adversary has offline access to the same Vitis-AI model library the
// victim uses (paper §II, "Adversary's access"), so they know each model's
// characteristic strings: the model name itself, its install path, and
// framework-qualified names like "torchvision/resnet50". The SignatureDb
// holds one needle set per model; scanning counts needle hits in the
// scraped bytes and ranks candidates. A scan visits the bytes once for
// every needle of every model: add() indexes the distinct needles by
// their first byte, and a position is compared only with the needles
// that begin with its byte. Under MSA_ENABLE_SIMD and
// img::simd_enabled() an SSE2 prefilter first drops, 16 positions at a
// time, every position whose two bytes fall outside the needles' first-
// and second-byte ranges. Both paths find the same offsets.
//
// Beyond strings, identify_deep() hunts for a serialized xmodel container
// in the residue and parses it outright — recovering not just the model's
// identity but its full weights (the "revealing sensitive information such
// as ... weights" claim).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "vitis/xmodel.h"

namespace msa::attack {

struct Signature {
  std::string model_name;
  std::vector<std::string> needles;
};

struct SignatureMatch {
  std::string model_name;
  std::size_t hits = 0;                 ///< total needle occurrences
  std::size_t distinct_needles = 0;     ///< how many different needles hit
  std::vector<std::size_t> offsets;     ///< all match offsets
};

struct DeepMatch {
  std::string model_name;
  std::size_t container_offset = 0;     ///< where the xmodel blob started
  std::size_t param_bytes = 0;          ///< recovered weight payload size
};

class SignatureDb {
 public:
  SignatureDb() = default;
  // Copies share the index. There is no move, so no db is left without
  // one; a copy costs a reference count.
  SignatureDb(const SignatureDb&) = default;
  SignatureDb& operator=(const SignatureDb&) = default;

  /// The database for every bundled zoo model. It is built once per
  /// process; each call returns a copy, which shares the built index.
  [[nodiscard]] static SignatureDb for_zoo();

  void add(Signature sig);
  [[nodiscard]] std::size_t size() const noexcept { return index_->names.size(); }

  /// Scans the residue; returns matches sorted by (distinct_needles, hits)
  /// descending. Models with zero hits are omitted.
  [[nodiscard]] std::vector<SignatureMatch> scan(
      std::span<const std::uint8_t> bytes) const;

  /// Best string-based identification, or nullopt when nothing matches.
  [[nodiscard]] std::optional<std::string> identify(
      std::span<const std::uint8_t> bytes) const;

  /// Scans for serialized xmodel containers and validates each in full,
  /// as XModel::deserialize_at would, without building it; reports the
  /// first valid one. Returns nullopt when none parses.
  [[nodiscard]] static std::optional<DeepMatch> identify_deep(
      std::span<const std::uint8_t> bytes);

 private:
  /// Immutable once built and shared by copies of the db: add() builds
  /// a new index, so a copy never allocates.
  struct Index {
    std::vector<std::string> names;
    /// Per signature, the ids of its non-empty needles, repeats kept.
    std::vector<std::vector<std::uint32_t>> signature_needles;
    std::vector<std::string> needles;  ///< distinct non-empty needles, by id
    /// Needle ids by first byte.
    std::array<std::vector<std::uint32_t>, 256> by_lead;
    /// Byte ranges of the needles' first and second bytes (the second
    /// range is all bytes once a 1-byte needle is added).
    std::uint8_t first_lo = 0xFF;
    std::uint8_t first_hi = 0x00;
    std::uint8_t second_lo = 0xFF;
    std::uint8_t second_hi = 0x00;
  };

  std::shared_ptr<const Index> index_ = std::make_shared<const Index>();
};

}  // namespace msa::attack
