// Persistence layer tests: endian-safe encoding round-trips, CRC-framed
// record streams, and — the crash-safety property — torn or corrupt tails
// end the stream cleanly and append recovery chops them off.
#include "persist/record_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>

#include "persist/campaign_store.h"
#include "persist/store_codec.h"
#include "util/bytes.h"

namespace msa::persist {
namespace {

std::filesystem::path tmp_file(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / "msa_persist_tests";
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::filesystem::remove(path);
  return path;
}

void truncate_by(const std::filesystem::path& path, std::uintmax_t bytes) {
  const std::uintmax_t size = std::filesystem::file_size(path);
  ASSERT_GT(size, bytes);
  std::filesystem::resize_file(path, size - bytes);
}

void flip_byte_at_end(const std::filesystem::path& path,
                      std::uintmax_t from_end) {
  std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
  ASSERT_TRUE(f.is_open());
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, from_end);
  f.seekg(static_cast<std::streamoff>(size - 1 - from_end));
  char c = 0;
  f.read(&c, 1);
  f.seekp(static_cast<std::streamoff>(size - 1 - from_end));
  c = static_cast<char>(c ^ 0x5a);
  f.write(&c, 1);
}

TEST(Encoding, FixedWidthRoundTrip) {
  util::ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  w.f64(std::numeric_limits<double>::infinity());

  util::ByteReader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  // Bit-exact, not just value-equal: -0.0 must stay negative.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(r.done());
}

TEST(Encoding, NanPayloadSurvives) {
  const double weird_nan =
      std::bit_cast<double>(0x7ff8dead00000001ULL);  // NaN with payload
  util::ByteWriter w;
  w.f64(weird_nan);
  util::ByteReader r{w.bytes()};
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x7ff8dead00000001ULL);
}

TEST(Encoding, LittleEndianOnDisk) {
  util::ByteWriter w;
  w.u32(0x01020304u);
  const auto bytes = w.bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x04);
  EXPECT_EQ(bytes[1], 0x03);
  EXPECT_EQ(bytes[2], 0x02);
  EXPECT_EQ(bytes[3], 0x01);
}

TEST(Encoding, VarintRoundTripAndSizes) {
  const struct {
    std::uint64_t value;
    std::size_t encoded_bytes;
  } cases[] = {
      {0, 1},      {1, 1},          {127, 1},
      {128, 2},    {16383, 2},      {16384, 3},
      {1u << 28, 5}, {1ULL << 56, 9}, {std::numeric_limits<std::uint64_t>::max(), 10},
  };
  for (const auto& c : cases) {
    util::ByteWriter w;
    w.varint(c.value);
    EXPECT_EQ(w.size(), c.encoded_bytes) << c.value;
    util::ByteReader r{w.bytes()};
    EXPECT_EQ(r.varint(), c.value);
    EXPECT_TRUE(r.done());
  }
}

TEST(Encoding, StringsWithEmbeddedNulsAndEmpty) {
  util::ByteWriter w;
  w.str("");
  w.str(std::string_view{"a\0b", 3});
  util::ByteReader r{w.bytes()};
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), (std::string{"a\0b", 3}));
}

TEST(Encoding, ReaderThrowsOnOverrun) {
  util::ByteWriter w;
  w.u16(7);
  util::ByteReader r{w.bytes()};
  EXPECT_THROW((void)r.u32(), std::invalid_argument);
  EXPECT_THROW((void)r.bytes(3), std::invalid_argument);
  EXPECT_EQ(r.position(), 0u);
  EXPECT_EQ(r.bytes(2).size(), 2u);
  EXPECT_TRUE(r.done());
  // Unterminated varint: every byte has the continuation bit set.
  const std::uint8_t bad[] = {0x80, 0x80};
  util::ByteReader r2{bad};
  EXPECT_THROW((void)r2.varint(), std::invalid_argument);
  // An 11th varint byte's worth of bits does not fit in 64.
  const std::uint8_t wide[] = {0xff, 0xff, 0xff, 0xff, 0xff,
                               0xff, 0xff, 0xff, 0xff, 0x02};
  util::ByteReader r3{wide};
  EXPECT_THROW((void)r3.varint(), std::invalid_argument);
  // A count of 3 needs at least 3 bytes after it.
  const std::uint8_t three[] = {3, 1, 2, 3};
  EXPECT_EQ(util::ByteReader{three}.count(), 3u);
  util::ByteReader r4{std::span{three}.first(3)};
  EXPECT_THROW((void)r4.count(), std::invalid_argument);
}

/// The message of the std::invalid_argument `read` throws, or "(none)".
template <typename Read>
std::string rejection(Read&& read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(none)";
}

TEST(Encoding, InlineReadsRoundTripAndRejectEveryTruncationByMessage) {
  constexpr const char* kPastEnd = "bytes: read past the end of the buffer";
  // Varints of every encoded length, at both ends of each length's range.
  for (std::size_t len = 1; len <= 10; ++len) {
    const std::uint64_t lo = len == 1 ? 0 : std::uint64_t{1} << (7 * (len - 1));
    const std::uint64_t hi = len == 10 ? std::numeric_limits<std::uint64_t>::max()
                                       : (std::uint64_t{1} << (7 * len)) - 1;
    for (const std::uint64_t v : {lo, hi}) {
      util::ByteWriter w;
      w.varint(v);
      ASSERT_EQ(w.size(), len) << v;
      util::ByteReader r{w.bytes()};
      EXPECT_EQ(r.varint(), v) << "length " << len;
      EXPECT_TRUE(r.done());
      // Cut anywhere, the varint is a read past the end.
      for (std::size_t cut = 0; cut < len; ++cut) {
        util::ByteReader cut_reader{w.bytes().first(cut)};
        EXPECT_EQ(rejection([&] { (void)cut_reader.varint(); }), kPastEnd)
            << v << " cut at " << cut;
      }
    }
  }
  // The 10th byte carries bit 63 alone: 0x01 is accepted, 0x02 is not.
  std::uint8_t tenth[10] = {0x80, 0x80, 0x80, 0x80, 0x80,
                            0x80, 0x80, 0x80, 0x80, 0x01};
  EXPECT_EQ(util::ByteReader{tenth}.varint(), std::uint64_t{1} << 63);
  tenth[9] = 0x02;
  EXPECT_EQ(rejection([&] { (void)util::ByteReader{tenth}.varint(); }),
            "bytes: varint exceeds 64 bits");
  // u64 and f64 at every cut.
  util::ByteWriter fixed;
  fixed.u64(0x0123456789abcdefULL);
  EXPECT_EQ(util::ByteReader{fixed.bytes()}.u64(), 0x0123456789abcdefULL);
  for (std::size_t cut = 0; cut < 8; ++cut) {
    util::ByteReader r{fixed.bytes().first(cut)};
    EXPECT_EQ(rejection([&] { (void)r.u64(); }), kPastEnd) << "cut at " << cut;
    util::ByteReader rf{fixed.bytes().first(cut)};
    EXPECT_EQ(rejection([&] { (void)rf.f64(); }), kPastEnd) << "cut at " << cut;
  }
  EXPECT_EQ(rejection([] { (void)util::ByteReader{{}}.u8(); }), kPastEnd);
  // Blobs with a one- and a two-byte length prefix, at every cut.
  for (const std::size_t size : {std::size_t{5}, std::size_t{200}}) {
    const std::vector<std::uint8_t> payload(size, 0x5a);
    util::ByteWriter w;
    w.blob(payload);
    util::ByteReader whole{w.bytes()};
    EXPECT_TRUE(std::ranges::equal(whole.blob(), payload));
    EXPECT_TRUE(whole.done());
    for (std::size_t cut = 0; cut < w.size(); ++cut) {
      util::ByteReader r{w.bytes().first(cut)};
      EXPECT_EQ(rejection([&] { (void)r.blob(); }), kPastEnd)
          << size << "-byte blob cut at " << cut;
    }
  }
}

TEST(Encoding, WriterBlobMirrorsReaderBlobAndTakeEmptiesTheWriter) {
  const std::uint8_t raw[] = {0, 1, 2, 0xff};
  util::ByteWriter w;
  w.blob(raw);
  w.str(std::string_view{"\0\1\2\xff", 4});
  util::ByteReader r{w.bytes()};
  const std::span<const std::uint8_t> got = r.blob();
  EXPECT_TRUE(std::ranges::equal(got, raw));
  EXPECT_EQ(r.str(), (std::string{"\0\1\2\xff", 4}));
  EXPECT_TRUE(r.done());
  // blob and str write the same bytes for the same contents.
  const std::vector<std::uint8_t> taken = w.take();
  EXPECT_TRUE(std::equal(taken.begin(), taken.begin() + 5, taken.begin() + 5,
                         taken.end()));
  EXPECT_EQ(w.size(), 0u);
}

/// One axis of every kind, so every axis-value branch is on the wire.
StoreManifest every_kind_manifest() {
  StoreManifest m;
  m.grid_fingerprint = 0x0123456789abcdefULL;
  m.grid_cells = 16;
  m.trials_per_cell = 3;
  m.trial_salt = 99;
  m.axes = {
      {"defense", campaign::AxisKind::kString,
       {campaign::AxisValue::of_string("baseline"),
        campaign::AxisValue::of_string("zero_on_free")}},
      {"scrubber", campaign::AxisKind::kEnum,
       {campaign::AxisValue::of_enum("periodic")}},
      {"delay_s", campaign::AxisKind::kDouble,
       {campaign::AxisValue::of_number(0.5), campaign::AxisValue::of_number(-0.0)}},
      {"power_cycled", campaign::AxisKind::kBool,
       {campaign::AxisValue::of_bool(true), campaign::AxisValue::of_bool(false)}},
  };
  return m;
}

/// Every strict prefix of `whole`, each in its own allocation so the
/// sanitizers see any read past its end, must make `decode` throw
/// std::invalid_argument — no other exception type, no success.
template <typename Decode>
void expect_every_prefix_rejected(std::span<const std::uint8_t> whole,
                                  Decode decode, const char* what) {
  ASSERT_FALSE(whole.empty()) << what;
  for (std::size_t len = 0; len < whole.size(); ++len) {
    const std::vector<std::uint8_t> prefix(whole.begin(), whole.begin() + len);
    EXPECT_THROW((void)decode(prefix), std::invalid_argument)
        << what << " prefix " << len << " of " << whole.size();
  }
}

TEST(Encoding, EveryStrictPrefixOfARecordPayloadIsRejected) {
  const StoreManifest manifest = every_kind_manifest();
  expect_every_prefix_rejected(encode_store_manifest(manifest),
                               decode_store_manifest, "manifest");

  TrialRecord trial;
  trial.cell_index = 300;
  trial.trial = 7;
  trial.denied = true;
  trial.pixel_match = 0.25;
  trial.psnr = 31.5;
  trial.denial_reason = "firewall";
  util::ByteWriter trial_bytes;
  encode_trial(trial, trial_bytes);
  expect_every_prefix_rejected(trial_bytes.take(), decode_trial, "trial");

  campaign::CellStats cell;
  cell.index = 5;
  for (const campaign::AxisSpec& axis : manifest.axes) {
    cell.coords.push_back({axis.name, axis.values.front()});
  }
  cell.trials = 3;
  cell.first_denial_reason = "firewall";
  expect_every_prefix_rejected(encode_cell(cell), decode_cell, "cell");
  expect_every_prefix_rejected(encode_cell_key(cell.coords), decode_cell_key,
                               "cell key");
}

TEST(Encoding, HugeCountsAreRejectedBeforeAllocating) {
  // Counts far beyond the payload once surfaced as std::length_error
  // (2^62) or std::bad_alloc (2^40) from reserve(); every decoder must
  // report them as malformed input instead.
  for (const std::uint64_t huge : {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    // A manifest's fixed fields, its axis count (a varint 0) dropped.
    std::vector<std::uint8_t> fixed = encode_store_manifest(StoreManifest{});
    ASSERT_EQ(fixed.back(), 0u);
    fixed.pop_back();
    util::ByteWriter axes;
    axes.raw(fixed);
    util::ByteWriter values;
    values.raw(fixed);
    values.varint(1);
    values.str("delay_s");
    values.u8(static_cast<std::uint8_t>(campaign::AxisKind::kDouble));
    values.varint(huge);
    axes.varint(huge);
    EXPECT_THROW((void)decode_store_manifest(axes.bytes()), std::invalid_argument);
    EXPECT_THROW((void)decode_store_manifest(values.bytes()), std::invalid_argument);

    util::ByteWriter cell;
    cell.varint(0);
    cell.varint(huge);
    EXPECT_THROW((void)decode_cell(cell.bytes()), std::invalid_argument);

    util::ByteWriter key;
    key.varint(huge);
    EXPECT_THROW((void)decode_cell_key(key.bytes()), std::invalid_argument);
  }
}

TEST(Encoding, ManifestDecodeRejectsInvalidFieldsByName) {
  const std::vector<std::uint8_t> valid =
      encode_store_manifest(every_kind_manifest());
  ASSERT_EQ(decode_store_manifest(valid), every_kind_manifest());
  // Byte offsets in the encoding: u32 version, u64 fingerprint, u64
  // grid cells, u32 trials, u64 salt, u32 shard index at 32, u32 shard
  // count at 36, the axis count at 40, then axis "defense": its name
  // (length + 7 bytes) at 41, its kind at 49, its value count at 50 and
  // its first value's kind at 51.
  constexpr std::size_t kShardIndex = 32;
  constexpr std::size_t kShardCount = 36;
  constexpr std::size_t kAxisKind = 49;
  constexpr std::size_t kValueKind = 51;
  const auto kind = [](campaign::AxisKind k) {
    return static_cast<std::uint8_t>(k);
  };
  ASSERT_EQ(valid[kShardCount], 1u);
  ASSERT_EQ(valid[kAxisKind], kind(campaign::AxisKind::kString));
  ASSERT_EQ(valid[kValueKind], kind(campaign::AxisKind::kString));

  struct Case {
    std::size_t offset;
    std::uint8_t byte;
    const char* message;
  };
  for (const Case& c : {
           Case{0, 1, "unsupported store format version 1"},
           Case{0, 3, "unsupported store format version 3"},
           Case{kShardCount, 0, "manifest shard 0/0 out of range"},
           Case{kShardIndex, 1, "manifest shard 1/1 out of range"},
           Case{kAxisKind, 4, "axis 'defense' has unknown kind 4"},
           Case{kAxisKind, 0xff, "axis 'defense' has unknown kind 255"},
           Case{kAxisKind, kind(campaign::AxisKind::kEnum),
                "axis 'defense' holds a value of another kind"},
           Case{kValueKind, kind(campaign::AxisKind::kEnum),
                "axis 'defense' holds a value of another kind"},
       }) {
    std::vector<std::uint8_t> bytes = valid;
    bytes[c.offset] = c.byte;
    try {
      (void)decode_store_manifest(bytes);
      ADD_FAILURE() << "accepted: " << c.message;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(c.message), std::string::npos)
          << e.what();
    }
  }
}

/// A resume visitor that only records the types it was handed.
std::function<void(const RecordView&)> collect_types(
    std::vector<std::uint8_t>& types) {
  return [&types](const RecordView& rec) { types.push_back(rec.type); };
}

/// Every record type of the file at `path`, read to its end; `torn`
/// receives the truncation flag.
std::vector<std::uint8_t> read_types(const std::filesystem::path& path,
                                     bool* torn = nullptr) {
  RecordBuffer buffer{path.string()};
  std::vector<std::uint8_t> types;
  while (const std::optional<RecordView> rec = buffer.next()) {
    types.push_back(rec->type);
  }
  if (torn != nullptr) *torn = buffer.truncated();
  return types;
}

TEST(RecordIo, RoundTripManyRecords) {
  const auto path = tmp_file("roundtrip.rec");
  {
    RecordWriter writer{path.string()};
    for (std::uint8_t i = 0; i < 10; ++i) {
      std::vector<std::uint8_t> payload(i * 37u);
      for (std::size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<std::uint8_t>(i + j);
      }
      writer.append(i, payload);
    }
  }
  RecordBuffer reader{path.string()};
  for (std::uint8_t i = 0; i < 10; ++i) {
    const auto rec = reader.next();
    ASSERT_TRUE(rec.has_value()) << unsigned{i};
    EXPECT_EQ(rec->type, i);
    ASSERT_EQ(rec->payload.size(), i * 37u);
    for (std::size_t j = 0; j < rec->payload.size(); ++j) {
      ASSERT_EQ(rec->payload[j], static_cast<std::uint8_t>(i + j));
    }
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.valid_bytes(), std::filesystem::file_size(path));
}

TEST(RecordIo, RejectsBadMagic) {
  const auto path = tmp_file("badmagic.rec");
  const std::string foreign = "this is not a record store";
  std::ofstream{path, std::ios::binary} << foreign;
  EXPECT_THROW(RecordBuffer{path.string()}, std::runtime_error);
  EXPECT_THROW(RecordFile{path.string()}, std::runtime_error);
  // Resuming must refuse too rather than clobber a foreign file.
  std::vector<std::uint8_t> visited;
  EXPECT_THROW((RecordWriter{path.string(), collect_types(visited)}),
               std::runtime_error);
  EXPECT_TRUE(visited.empty());
  EXPECT_EQ(std::filesystem::file_size(path), foreign.size());
}

TEST(RecordIo, TornHeaderStopsCleanly) {
  const auto path = tmp_file("tornheader.rec");
  {
    RecordWriter writer{path.string()};
    writer.append(1, std::vector<std::uint8_t>{1, 2, 3});
    writer.append(2, std::vector<std::uint8_t>{4, 5});
  }
  const auto intact = std::filesystem::file_size(path);
  // Simulate a crash mid-header: 3 stray bytes after the last record.
  std::ofstream{path, std::ios::binary | std::ios::app} << "xyz";

  RecordBuffer reader{path.string()};
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
  EXPECT_EQ(reader.valid_bytes(), intact);
}

TEST(RecordIo, TornBodyStopsCleanly) {
  const auto path = tmp_file("tornbody.rec");
  {
    RecordWriter writer{path.string()};
    writer.append(1, std::vector<std::uint8_t>(64, 0xaa));
    writer.append(2, std::vector<std::uint8_t>(64, 0xbb));
  }
  truncate_by(path, 10);  // last frame loses 10 body bytes

  RecordBuffer reader{path.string()};
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, 1);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
}

TEST(RecordIo, CrcMismatchStopsCleanly) {
  const auto path = tmp_file("badcrc.rec");
  {
    RecordWriter writer{path.string()};
    writer.append(1, std::vector<std::uint8_t>(32, 0x11));
    writer.append(2, std::vector<std::uint8_t>(32, 0x22));
  }
  flip_byte_at_end(path, 4);  // corrupt the last record's body

  RecordBuffer reader{path.string()};
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, 1);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
}

TEST(RecordIo, InsaneLengthPrefixIsCorruption) {
  const auto path = tmp_file("insanelen.rec");
  {
    RecordWriter writer{path.string()};
    writer.append(1, std::vector<std::uint8_t>{9});
  }
  // Hand-craft a frame whose length prefix claims ~4 GB.
  util::ByteWriter bogus;
  bogus.u32(0xfffffff0u);
  bogus.u32(0);
  std::ofstream app{path, std::ios::binary | std::ios::app};
  app.write(reinterpret_cast<const char*>(bogus.bytes().data()),
            static_cast<std::streamsize>(bogus.size()));
  app.close();

  RecordBuffer reader{path.string()};
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
}

TEST(RecordIo, AppendRecoveryChopsTornTailAndContinues) {
  const auto path = tmp_file("recover.rec");
  {
    RecordWriter writer{path.string()};
    writer.append(1, std::vector<std::uint8_t>(16, 0x01));
    writer.append(2, std::vector<std::uint8_t>(16, 0x02));
    writer.append(3, std::vector<std::uint8_t>(16, 0x03));
  }
  truncate_by(path, 7);  // tear record 3

  std::vector<std::uint8_t> visited;
  {
    RecordWriter writer{path.string(), collect_types(visited)};
    writer.append(4, std::vector<std::uint8_t>(16, 0x04));
  }
  EXPECT_EQ(visited, (std::vector<std::uint8_t>{1, 2}));

  bool torn = true;
  EXPECT_EQ(read_types(path, &torn), (std::vector<std::uint8_t>{1, 2, 4}));
  EXPECT_FALSE(torn);
}

TEST(RecordIo, AppendRecoveryOnMissingFileCreatesFresh) {
  // Absent, empty, and shorter than the magic (a kill between create and
  // the magic write) all start a fresh file.
  const auto path = tmp_file("freshappend.rec");
  for (const std::string debris : {"", "MS", "MSAREC0"}) {
    SCOPED_TRACE("debris of " + std::to_string(debris.size()) + " bytes");
    std::filesystem::remove(path);
    if (!debris.empty()) std::ofstream{path, std::ios::binary} << debris;
    std::vector<std::uint8_t> visited;
    {
      RecordWriter writer{path.string(), collect_types(visited)};
      writer.append(7, std::vector<std::uint8_t>{42});
    }
    EXPECT_TRUE(visited.empty());
    bool torn = true;
    EXPECT_EQ(read_types(path, &torn), (std::vector<std::uint8_t>{7}));
    EXPECT_FALSE(torn);
  }
}

TEST(RecordIo, AppendRecoveryLeavesAFileItsVisitorRejectsUntouched) {
  const auto path = tmp_file("rejected.rec");
  {
    RecordWriter writer{path.string()};
    writer.append(1, std::vector<std::uint8_t>(16, 0x01));
    writer.append(2, std::vector<std::uint8_t>(16, 0x02));
  }
  truncate_by(path, 3);  // a torn tail the resume would chop
  const std::uintmax_t size = std::filesystem::file_size(path);
  EXPECT_THROW((RecordWriter{path.string(),
                             [](const RecordView& rec) {
                               if (rec.type == 1) {
                                 throw std::runtime_error("wrong sweep");
                               }
                             }}),
               std::runtime_error);
  EXPECT_EQ(std::filesystem::file_size(path), size);
}

TEST(RecordIo, BufferAndPositionalReadsMatchTheWrittenFramesOnEveryCut) {
  // Frames of every shape — an empty payload, a two-part append, a
  // multi-KB body — then every truncation of the file and a flipped byte
  // in each frame. Against the frame table written here: a RecordBuffer
  // from the start and from every intact frame boundary sees exactly the
  // intact frames from there, the torn flag and the valid prefix; a
  // positional read of each intact frame returns its record; an offset
  // past the end is an empty, untorn stream.
  const auto path = tmp_file("two_readers.rec");
  const auto damaged = tmp_file("two_readers_damaged.rec");
  struct Frame {
    std::uint8_t type = 0;
    std::vector<std::uint8_t> payload;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };
  std::vector<Frame> frames;
  {
    RecordWriter writer{path.string()};
    const auto put = [&](std::uint8_t type, std::vector<std::uint8_t> head,
                         std::vector<std::uint8_t> tail = {}) {
      writer.append(type, head, tail);
      Frame& f = frames.emplace_back();
      f.type = type;
      f.payload = std::move(head);
      f.payload.insert(f.payload.end(), tail.begin(), tail.end());
      f.start = frames.size() == 1 ? kRecordMagic.size()
                                   : frames[frames.size() - 2].end;
      f.end = f.start + 8 + 1 + f.payload.size();
    };
    put(1, {});
    put(2, {1, 2, 3}, {4, 5});
    std::vector<std::uint8_t> big(3000);
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<std::uint8_t>(i * 7);
    }
    put(3, big);
    put(4, std::vector<std::uint8_t>(40, 0x44));
  }
  const std::uintmax_t size = std::filesystem::file_size(path);
  ASSERT_EQ(size, frames.back().end);

  // The first `intact` frames are whole; `torn` when bytes follow them.
  const auto expect_frames = [&](const std::string& what, std::size_t intact,
                                 bool torn) {
    SCOPED_TRACE(what);
    const std::uint64_t valid =
        intact == 0 ? kRecordMagic.size() : frames[intact - 1].end;
    std::vector<std::uint64_t> offsets = {0};
    for (std::size_t k = 0; k <= intact; ++k) {
      offsets.push_back(k == 0 ? kRecordMagic.size() : frames[k - 1].end);
    }
    for (const std::uint64_t offset : offsets) {
      SCOPED_TRACE("from offset " + std::to_string(offset));
      RecordBuffer buffer{damaged.string(), offset};
      for (const Frame& want : frames) {
        if (want.start < offset || want.end > valid) continue;
        const std::optional<RecordView> got = buffer.next();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->type, want.type);
        EXPECT_TRUE(std::ranges::equal(got->payload, want.payload));
      }
      EXPECT_FALSE(buffer.next().has_value());
      EXPECT_EQ(buffer.truncated(), torn);
      EXPECT_EQ(buffer.valid_bytes(), valid);
    }
    const RecordFile file{damaged.string()};
    for (std::size_t k = 0; k < intact; ++k) {
      const std::optional<Record> at = file.read_at(frames[k].start);
      ASSERT_TRUE(at.has_value());
      EXPECT_EQ(at->type, frames[k].type);
      EXPECT_EQ(at->payload, frames[k].payload);
    }
    if (torn) {
      EXPECT_FALSE(file.read_at(valid).has_value());
    }
    const std::uint64_t past = std::filesystem::file_size(damaged) + 5;
    RecordBuffer beyond{damaged.string(), past};
    EXPECT_FALSE(beyond.next().has_value());
    EXPECT_FALSE(beyond.truncated());
    EXPECT_EQ(beyond.valid_bytes(), past);
  };
  for (std::uintmax_t cut = kRecordMagic.size(); cut <= size; ++cut) {
    std::filesystem::copy_file(
        path, damaged, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(damaged, cut);
    std::size_t intact = 0;
    while (intact < frames.size() && frames[intact].end <= cut) ++intact;
    const std::uint64_t valid =
        intact == 0 ? kRecordMagic.size() : frames[intact - 1].end;
    expect_frames("cut at " + std::to_string(cut), intact, cut > valid);
  }
  for (const std::uintmax_t at :
       {std::uintmax_t{8}, std::uintmax_t{12}, std::uintmax_t{16},
        std::uintmax_t{17}, std::uintmax_t{30}, std::uintmax_t{100},
        std::uintmax_t{3030}, size - 1}) {
    std::filesystem::copy_file(
        path, damaged, std::filesystem::copy_options::overwrite_existing);
    flip_byte_at_end(damaged, size - 1 - at);
    std::size_t hit = 0;  // the frame holding the flipped byte
    while (frames[hit].end <= at) ++hit;
    expect_frames("flip at " + std::to_string(at), hit, true);
  }
}

}  // namespace
}  // namespace msa::persist
