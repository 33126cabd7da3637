// XModel: our analogue of the Vitis-AI .xmodel container.
//
// An xmodel bundles the network topology, the quantized parameters, and a
// set of metadata strings (install path, framework tag, companion library
// names). When the runtime executes a model, all of this lands in the
// process heap — and those metadata strings are precisely what the
// paper's Step 4.a greps out of the scraped residue to identify which
// model the victim ran ("resnet50_pt" in Fig. 11).
//
// The serialized form is deterministic: same model name + seed -> same
// bytes, which lets tests assert byte-exact residue recovery via CRC.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "vitis/layers.h"

namespace msa::vitis {

/// What a validate-only walk of a serialized container reports.
struct ContainerProbe {
  std::string name;
  std::size_t param_bytes = 0;  ///< the parsed model's param_bytes()
  std::size_t length = 0;       ///< container bytes, CRC included
};

class XModel {
 public:
  XModel(std::string name, std::string framework, TensorShape input_shape,
         std::vector<std::string> aux_strings,
         std::vector<std::unique_ptr<Layer>> layers);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& framework() const noexcept {
    return framework_;
  }
  [[nodiscard]] const TensorShape& input_shape() const noexcept {
    return input_shape_;
  }
  /// Metadata strings staged into memory alongside the weights: install
  /// path, framework-qualified names, companion shared-object names.
  [[nodiscard]] const std::vector<std::string>& aux_strings() const noexcept {
    return aux_strings_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Layer>>& layers() const noexcept {
    return layers_;
  }

  /// Canonical install path, mirroring the Vitis-AI layout the paper
  /// shows: /usr/share/vitis_ai_library/models/<name>/<name>.xmodel
  [[nodiscard]] std::string install_path() const;

  /// Total parameter bytes across layers.
  [[nodiscard]] std::size_t param_bytes() const noexcept;

  /// Number of classes (output width of the final layer).
  [[nodiscard]] std::uint32_t num_classes() const;

  /// Runs the network; returns softmax class probabilities.
  [[nodiscard]] std::vector<float> infer(const Tensor& input) const;

  /// Serialized container: magic, version, name, framework, aux strings,
  /// input shape, layers (with parameters), trailing CRC-32. Encoded
  /// once: a built model encodes at construction, and a parsed one keeps
  /// the bytes it was parsed from (the encoding is canonical, so they are
  /// the same bytes). Staging a cached model never re-encodes it.
  [[nodiscard]] const std::vector<std::uint8_t>& serialize() const noexcept {
    return encoded_;
  }

  /// Parses a serialized container; validates magic and CRC. Requires the
  /// blob to be exactly one container.
  [[nodiscard]] static XModel deserialize(const std::vector<std::uint8_t>& blob);

  /// Forensic variant: parses a container that begins at blob[offset] and
  /// may be followed by unrelated bytes (memory residue). On success sets
  /// *consumed to the container length. Throws std::invalid_argument on
  /// malformed input or CRC mismatch.
  [[nodiscard]] static XModel deserialize_at(std::span<const std::uint8_t> blob,
                                             std::size_t offset,
                                             std::size_t* consumed = nullptr);

  /// Validates the container at blob[offset] without building it: the
  /// same parser, checks and errors as deserialize_at, so both accept
  /// exactly the same inputs, but no layer is built and no parameter is
  /// copied.
  [[nodiscard]] static ContainerProbe probe_at(std::span<const std::uint8_t> blob,
                                               std::size_t offset);

  /// The 6-byte container magic ("XMDL1\0"); exposed so forensic tooling
  /// (deep model identification from residue) can scan for it.
  [[nodiscard]] static const std::array<std::uint8_t, 6>& magic() noexcept;

 private:
  /// Adopts `encoded` as the container bytes instead of encoding.
  XModel(std::string name, std::string framework, TensorShape input_shape,
         std::vector<std::string> aux_strings,
         std::vector<std::unique_ptr<Layer>> layers,
         std::vector<std::uint8_t> encoded);

  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  std::string name_;
  std::string framework_;
  TensorShape input_shape_;
  std::vector<std::string> aux_strings_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<std::uint8_t> encoded_;
};

}  // namespace msa::vitis
