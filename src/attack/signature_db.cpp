#include "attack/signature_db.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "img/score_kernels.h"
#include "util/strings.h"
#include "vitis/model_zoo.h"

#if defined(MSA_ENABLE_SIMD) && (defined(__SSE2__) || defined(_M_X64))
#define MSA_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace msa::attack {

SignatureDb SignatureDb::for_zoo() {
  static const SignatureDb zoo = [] {
    SignatureDb db;
    for (const auto& name : vitis::zoo_model_names()) {
      Signature sig;
      sig.model_name = name;
      sig.needles.push_back(name);  // "resnet50_pt" itself
      sig.needles.push_back("models/" + name + "/");
      if (name.size() > 3 && name.substr(name.size() - 3) == "_pt") {
        // The torchvision-qualified fragment the paper's Fig. 11 greps.
        sig.needles.push_back("torchvision/" +
                              name.substr(0, name.size() - 3));
      }
      db.add(std::move(sig));
    }
    return db;
  }();
  return zoo;
}

void SignatureDb::add(Signature sig) {
  auto ix = std::make_shared<Index>(*index_);
  std::vector<std::uint32_t>& ids = ix->signature_needles.emplace_back();
  for (std::string& needle : sig.needles) {
    if (needle.empty()) continue;  // occurs nowhere, as in util::find_all
    const auto known = std::find(ix->needles.begin(), ix->needles.end(), needle);
    ids.push_back(static_cast<std::uint32_t>(known - ix->needles.begin()));
    if (known != ix->needles.end()) continue;

    const auto first = static_cast<std::uint8_t>(needle[0]);
    ix->by_lead[first].push_back(ids.back());
    ix->first_lo = std::min(ix->first_lo, first);
    ix->first_hi = std::max(ix->first_hi, first);
    // A 1-byte needle may be followed by any byte.
    const bool pair = needle.size() > 1;
    const auto second = static_cast<std::uint8_t>(pair ? needle[1] : 0);
    ix->second_lo = std::min(ix->second_lo, pair ? second : std::uint8_t{0x00});
    ix->second_hi = std::max(ix->second_hi, pair ? second : std::uint8_t{0xFF});
    ix->needles.push_back(std::move(needle));
  }
  ix->names.push_back(std::move(sig.model_name));
  index_ = std::move(ix);
}

std::vector<SignatureMatch> SignatureDb::scan(
    std::span<const std::uint8_t> bytes) const {
  const Index& ix = *index_;
  // offsets[id]: where needle `id` occurs, ascending, overlaps included.
  std::vector<std::vector<std::size_t>> offsets(ix.needles.size());
  const std::uint8_t* base = bytes.data();
  const std::size_t n = bytes.size();
  const auto match_at = [&](std::size_t i) {
    for (const std::uint32_t id : ix.by_lead[base[i]]) {
      const std::string& needle = ix.needles[id];
      if (needle.size() <= n - i &&
          std::memcmp(needle.data(), base + i, needle.size()) == 0) {
        offsets[id].push_back(i);
      }
    }
  };

  std::size_t i = 0;
#if defined(MSA_SIMD_SSE2)
  // 16 positions per step: a position is a candidate when its byte lies
  // in the needles' first-byte range and the next byte in their
  // second-byte range. Each step reads 17 bytes, so the last 16
  // positions are left to the scalar loop.
  if (img::simd_enabled() && !ix.needles.empty()) {
    const __m128i first_lo = _mm_set1_epi8(static_cast<char>(ix.first_lo));
    const __m128i first_span =
        _mm_set1_epi8(static_cast<char>(ix.first_hi - ix.first_lo));
    const __m128i second_lo = _mm_set1_epi8(static_cast<char>(ix.second_lo));
    const __m128i second_span =
        _mm_set1_epi8(static_cast<char>(ix.second_hi - ix.second_lo));
    // lo <= v <= hi as unsigned bytes: v - lo == min(v - lo, hi - lo).
    const auto in_range = [](__m128i v, __m128i lo, __m128i span) {
      const __m128i d = _mm_sub_epi8(v, lo);
      return _mm_cmpeq_epi8(_mm_min_epu8(d, span), d);
    };
    for (; i + 17 <= n; i += 16) {
      const __m128i firsts = in_range(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + i)),
          first_lo, first_span);
      const __m128i seconds = in_range(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + i + 1)),
          second_lo, second_span);
      for (auto bits = static_cast<unsigned>(
               _mm_movemask_epi8(_mm_and_si128(firsts, seconds)));
           bits != 0; bits &= bits - 1) {
        match_at(i + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }
#endif
  for (; i < n; ++i) match_at(i);

  std::vector<SignatureMatch> matches;
  for (std::size_t s = 0; s < ix.names.size(); ++s) {
    SignatureMatch m;
    for (const std::uint32_t id : ix.signature_needles[s]) {
      const std::vector<std::size_t>& at = offsets[id];
      if (at.empty()) continue;
      ++m.distinct_needles;
      m.hits += at.size();
      m.offsets.insert(m.offsets.end(), at.begin(), at.end());
    }
    if (m.hits > 0) {
      m.model_name = ix.names[s];
      std::sort(m.offsets.begin(), m.offsets.end());
      matches.push_back(std::move(m));
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const SignatureMatch& a, const SignatureMatch& b) {
              if (a.distinct_needles != b.distinct_needles) {
                return a.distinct_needles > b.distinct_needles;
              }
              return a.hits > b.hits;
            });
  return matches;
}

std::optional<std::string> SignatureDb::identify(
    std::span<const std::uint8_t> bytes) const {
  const auto matches = scan(bytes);
  if (matches.empty()) return std::nullopt;
  return matches.front().model_name;
}

std::optional<DeepMatch> SignatureDb::identify_deep(
    std::span<const std::uint8_t> bytes) {
  const auto& magic = vitis::XModel::magic();
  const std::string_view magic_sv{reinterpret_cast<const char*>(magic.data()),
                                  magic.size() - 1};  // skip trailing NUL
  for (const std::size_t off : util::find_all(bytes, magic_sv)) {
    try {
      vitis::ContainerProbe probe = vitis::XModel::probe_at(bytes, off);
      return DeepMatch{std::move(probe.name), off, probe.param_bytes};
    } catch (const std::invalid_argument&) {
      // Residue can contain stale or partially overwritten containers;
      // keep scanning.
    }
  }
  return std::nullopt;
}

}  // namespace msa::attack
