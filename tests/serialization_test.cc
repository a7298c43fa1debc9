// Round-trip and adversarial-bytes coverage for the framed serialization
// format (util/framing.h) and every synopsis Serialize/Deserialize pair.
// The adversarial sections are the PR's core safety claim: hostile bytes —
// truncation at every prefix length, single-bit flips anywhere, wrong
// magic/version — must yield InvalidArgument, never a crash or an abort.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/agglomerative.h"
#include "src/core/fixed_window.h"
#include "src/core/histogram_io.h"
#include "src/engine/managed_stream.h"
#include "src/engine/query_engine.h"
#include "src/quantile/gk_summary.h"
#include "src/sketch/fm_sketch.h"
#include "src/stream/sliding_window.h"
#include "src/util/fault.h"
#include "src/util/framing.h"
#include "src/util/random.h"
#include "src/util/wal.h"
#include "test_dir.h"

namespace streamhist {
namespace {

TEST(Crc32cTest, MatchesKnownVectors) {
  // RFC 3720 appendix B.4 test vector: 32 zero bytes.
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  // "123456789" is the classic check value for CRC32C.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  // Chaining two halves must equal one pass.
  const std::string data = "approximate data stream";
  EXPECT_EQ(Crc32c(data.substr(4), Crc32c(data.substr(0, 4))), Crc32c(data));
}

TEST(ByteReaderTest, RefusesUnderruns) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(w.bytes());
  uint64_t u64 = 0;
  EXPECT_FALSE(r.ReadU64(&u64));  // only 4 bytes present
  uint32_t u32 = 0;
  EXPECT_TRUE(r.ReadU32(&u32));
  EXPECT_EQ(u32, 7u);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(r.ReadU32(&u32));
}

TEST(ByteWriterTest, LongDoubleRoundTripsExactly) {
  // A value whose mantissa exceeds double precision: 1 + 2^-60.
  const long double v = 1.0L + 0x1p-60L;
  ByteWriter w;
  w.PutLongDouble(v);
  ByteReader r(w.bytes());
  long double back = 0.0L;
  ASSERT_TRUE(r.ReadLongDouble(&back));
  EXPECT_EQ(back, v);
}

TEST(FrameTest, RoundTripAndExactSpan) {
  const std::string frame = WrapFrame(0xAB12CD34, 3, "payload");
  const auto view = UnwrapFrame(frame, 0xAB12CD34, "test");
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->version, 3u);
  EXPECT_EQ(view->payload, "payload");
  EXPECT_FALSE(UnwrapFrame(frame + "x", 0xAB12CD34, "test").ok());
  EXPECT_FALSE(UnwrapFrame(frame, 0xAB12CD35, "test").ok());
}

TEST(FrameTest, ReadFrameResynchronizesAfterCrcMismatch) {
  std::string container = WrapFrame(0x11, 1, "first") +
                          WrapFrame(0x11, 1, "second");
  container[20] ^= 0x01;  // corrupt the first frame's payload
  ByteReader reader(container);
  const auto first = ReadFrame(reader, 0x11, "test");
  EXPECT_FALSE(first.ok());
  // The reader skipped the damaged frame; the second one still parses.
  const auto second = ReadFrame(reader, 0x11, "test");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->payload, "second");
  EXPECT_TRUE(reader.AtEnd());
}

// ---------------------------------------------------------------------------
// Round trips: Deserialize(Serialize(x)) must answer every query identically.

std::vector<double> TestSeries(int n) {
  Random rng(42);
  std::vector<double> series;
  series.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    series.push_back(rng.UniformDouble() * 100.0 + (i % 7 == 0 ? 50.0 : 0.0));
  }
  return series;
}

TEST(SlidingWindowSerializationTest, RoundTripIsBitIdentical) {
  SlidingWindow window(64);
  for (double v : TestSeries(300)) window.Append(v);

  const auto restored = SlidingWindow::Deserialize(window.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->size(), window.size());
  EXPECT_EQ(restored->capacity(), window.capacity());
  EXPECT_EQ(restored->total_appended(), window.total_appended());
  for (int64_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ((*restored)[i], window[i]) << "index " << i;
  }
  for (int64_t lo = 0; lo < window.size(); lo += 7) {
    for (int64_t hi = lo + 1; hi <= window.size(); hi += 5) {
      EXPECT_EQ(restored->Sum(lo, hi), window.Sum(lo, hi));
      EXPECT_EQ(restored->SqError(lo, hi), window.SqError(lo, hi));
    }
  }
}

TEST(SlidingWindowSerializationTest, RestoredWindowIngestsIdentically) {
  SlidingWindow window(32);
  for (double v : TestSeries(100)) window.Append(v);
  auto restored = SlidingWindow::Deserialize(window.Serialize());
  ASSERT_TRUE(restored.ok());
  // Drive both far enough to cross several rebases.
  for (double v : TestSeries(200)) {
    window.Append(v);
    restored->Append(v);
  }
  EXPECT_EQ(restored->Sum(0, 32), window.Sum(0, 32));
  EXPECT_EQ(restored->SqError(3, 29), window.SqError(3, 29));
}

TEST(SlidingWindowSerializationTest, PartiallyFilledAndEmptyWindows) {
  SlidingWindow empty(16);
  auto restored_empty = SlidingWindow::Deserialize(empty.Serialize());
  ASSERT_TRUE(restored_empty.ok());
  EXPECT_EQ(restored_empty->size(), 0);

  SlidingWindow partial(16);
  partial.Append(1.5);
  partial.Append(-2.5);
  auto restored = SlidingWindow::Deserialize(partial.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), 2);
  EXPECT_EQ((*restored)[0], 1.5);
  EXPECT_EQ((*restored)[1], -2.5);
}

TEST(FixedWindowSerializationTest, RoundTripPreservesQueries) {
  FixedWindowOptions options;
  options.window_size = 64;
  options.num_buckets = 8;
  options.epsilon = 0.15;
  FixedWindowHistogram fw = FixedWindowHistogram::Create(options).value();
  for (double v : TestSeries(500)) fw.Append(v);

  auto restored = FixedWindowHistogram::Deserialize(fw.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->options().window_size, 64);
  EXPECT_EQ(restored->ApproxError(), fw.ApproxError());
  for (int64_t lo = 0; lo < 64; lo += 9) {
    EXPECT_EQ(restored->RangeSum(lo, 64), fw.RangeSum(lo, 64));
  }
  EXPECT_EQ(restored->Extract().ToString(), fw.Extract().ToString());
}

TEST(AgglomerativeSerializationTest, RoundTripPreservesQueries) {
  ApproxHistogramOptions options;
  options.num_buckets = 8;
  options.epsilon = 0.2;
  AgglomerativeHistogram h = AgglomerativeHistogram::Create(options).value();
  for (double v : TestSeries(700)) h.Append(v);

  auto restored = AgglomerativeHistogram::Deserialize(h.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->size(), h.size());
  EXPECT_EQ(restored->ApproxError(), h.ApproxError());
  EXPECT_EQ(restored->Extract().ToString(), h.Extract().ToString());
  // Future appends must also behave identically.
  for (double v : TestSeries(100)) {
    h.Append(v);
    restored->Append(v);
  }
  EXPECT_EQ(restored->Extract().ToString(), h.Extract().ToString());
}

TEST(GkSummarySerializationTest, RoundTripPreservesQuantiles) {
  GKSummary gk = GKSummary::Create(0.02).value();
  for (double v : TestSeries(2000)) gk.Insert(v);

  auto restored = GKSummary::Deserialize(gk.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->size(), gk.size());
  for (double phi : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    EXPECT_EQ(restored->Quantile(phi), gk.Quantile(phi)) << "phi=" << phi;
  }
}

TEST(GkSummarySerializationTest, EmptySummaryRoundTrips) {
  GKSummary gk = GKSummary::Create(0.05).value();
  auto restored = GKSummary::Deserialize(gk.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->size(), 0);
}

TEST(FmSketchSerializationTest, RoundTripPreservesEstimateAndMerge) {
  FMSketch sketch = FMSketch::Create(64, /*seed=*/7).value();
  for (double v : TestSeries(1000)) sketch.AddValue(v);

  auto restored = FMSketch::Deserialize(sketch.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->EstimateDistinct(), sketch.EstimateDistinct());
  EXPECT_EQ(restored->items_added(), sketch.items_added());
  // Same seed and shape: merging back must still work.
  EXPECT_TRUE(restored->Merge(sketch).ok());
  EXPECT_EQ(restored->EstimateDistinct(), sketch.EstimateDistinct());
}

TEST(ManagedStreamSerializationTest, SnapshotRestoreAnswersIdentically) {
  StreamConfig config;
  config.window_size = 64;
  config.num_buckets = 8;
  config.epsilon = 0.2;
  ManagedStream stream = ManagedStream::Create(config).value();
  for (double v : TestSeries(600)) stream.Append(v);
  stream.Append(std::numeric_limits<double>::quiet_NaN());  // quarantined

  auto restored = ManagedStream::Restore(stream.Snapshot());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->total_points(), stream.total_points());
  EXPECT_EQ(restored->dropped_nonfinite(), 1);
  EXPECT_EQ(restored->window_histogram().RangeSum(0, 64),
            stream.window_histogram().RangeSum(0, 64));
  EXPECT_EQ(restored->quantiles()->Quantile(0.5),
            stream.quantiles()->Quantile(0.5));
  EXPECT_EQ(restored->distinct()->EstimateDistinct(),
            stream.distinct()->EstimateDistinct());
}

TEST(ManagedStreamSerializationTest, SnapshotCarriesBuildMode) {
  StreamConfig config;
  config.window_size = 64;
  config.num_buckets = 8;
  config.build_mode = WindowBuildMode::kApprox;
  config.build_delta = 0.25;
  ManagedStream stream = ManagedStream::Create(config).value();
  for (double v : TestSeries(100)) stream.Append(v);

  auto restored = ManagedStream::Restore(stream.Snapshot());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->config().build_mode, WindowBuildMode::kApprox);
  EXPECT_EQ(restored->config().build_delta, 0.25);
  // The restored stream's offline BUILD answers identically.
  const WindowBuildReport a = stream.BuildWindowHistogram();
  const WindowBuildReport b = restored->BuildWindowHistogram();
  EXPECT_EQ(a.sse, b.sse);
  EXPECT_EQ(a.bound_factor, b.bound_factor);
  EXPECT_EQ(a.histogram.ToString(), b.histogram.ToString());
}

TEST(ManagedStreamSerializationTest, DroppedNonfiniteSurvivesRoundTrip) {
  // The quarantine counter is part of the stream's observable state (APPEND
  // replies and DESCRIBE report it); a checkpoint cycle must not reset it.
  StreamConfig config;
  config.window_size = 32;
  config.num_buckets = 4;
  ManagedStream stream = ManagedStream::Create(config).value();
  for (double v : TestSeries(50)) stream.Append(v);
  stream.Append(std::numeric_limits<double>::quiet_NaN());
  stream.Append(std::numeric_limits<double>::infinity());
  stream.Append(-std::numeric_limits<double>::infinity());
  ASSERT_EQ(stream.dropped_nonfinite(), 3);

  auto once = ManagedStream::Restore(stream.Snapshot());
  ASSERT_TRUE(once.ok()) << once.status();
  EXPECT_EQ(once->dropped_nonfinite(), 3);
  // And through a second generation, to catch a save-side reset.
  auto twice = ManagedStream::Restore(once->Snapshot());
  ASSERT_TRUE(twice.ok()) << twice.status();
  EXPECT_EQ(twice->dropped_nonfinite(), 3);
}

// Stream payload layout:
//   0..33   config through keep_distinct (8+8+8+1+8+1)
//   34..42  build-mode fields (bool + f64)
//   43..50  dropped_nonfinite (i64)
//   ...     synopsis blobs (window / quantiles / distinct)
//   tail    applied WAL LSN (i64)
// Only this version loads (EXPERIMENTS.md version policy).
constexpr uint32_t kStreamMagic = 0x53484D53;  // "SHMS"
constexpr uint32_t kStreamVersion = 8;

constexpr size_t kDroppedAt = 43;
// Bytes the WAL-LSN field occupies at the end of the payload.
constexpr size_t kWalTailBytes = 8;

// The payload of a freshly appended stream's snapshot.
std::string SamplePayload() {
  StreamConfig config;
  config.window_size = 32;
  config.num_buckets = 4;
  ManagedStream stream = ManagedStream::Create(config).value();
  for (double v : TestSeries(40)) stream.Append(v);
  const std::string snapshot = stream.Snapshot();
  auto frame = UnwrapFrame(snapshot, kStreamMagic, "stream");
  EXPECT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->version, kStreamVersion);
  return std::string(frame->payload);
}

TEST(ManagedStreamSerializationTest, OlderVersionsAreRejectedAsUnsupported) {
  const std::string payload = SamplePayload();
  ASSERT_TRUE(
      ManagedStream::Restore(WrapFrame(kStreamMagic, kStreamVersion, payload))
          .ok());
  // A well-formed v7 frame: v7 also carried telemetry, all zero here — a
  // degraded_builds i64 after dropped_nonfinite, a length-prefixed per-verb
  // stats block (20 verbs) before the WAL LSN and a length-prefixed
  // publish-stats block after it.
  ByteWriter stats_block;
  stats_block.PutU32(20);  // verbs
  stats_block.PutU32(24);  // latency buckets
  for (int i = 0; i < 20 * (3 + 24); ++i) stats_block.PutI64(0);
  ByteWriter publish_block;
  publish_block.PutU32(4);  // scalar counters
  publish_block.PutU32(24);
  for (int i = 0; i < 4 + 24; ++i) publish_block.PutI64(0);
  ByteWriter stats_tail, publish_tail;
  stats_tail.PutLengthPrefixed(stats_block.bytes());
  publish_tail.PutLengthPrefixed(publish_block.bytes());
  const size_t blobs_at = kDroppedAt + 8;
  const size_t lsn_at = payload.size() - kWalTailBytes;
  const std::string v7_payload =
      payload.substr(0, blobs_at) + std::string(8, '\0') +  // degraded_builds
      payload.substr(blobs_at, lsn_at - blobs_at) + stats_tail.bytes() +
      payload.substr(lsn_at) + publish_tail.bytes();
  // A well-formed v6 frame: v6 carried a keep_lifetime flag after eps (here
  // false, so no lifetime blob follows) and is otherwise the v7 layout.
  std::string v6_payload = v7_payload;
  v6_payload.insert(24, 1, '\0');
  for (uint32_t version = 1; version < kStreamVersion; ++version) {
    const auto restored = ManagedStream::Restore(WrapFrame(
        kStreamMagic, version, version == 7 ? v7_payload : v6_payload));
    ASSERT_FALSE(restored.ok()) << "version " << version;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(restored.status().message().find("unsupported"),
              std::string::npos)
        << restored.status();
  }
}

TEST(ManagedStreamSerializationTest, WalLsnTailRoundTripsAndFloors) {
  StreamConfig config;
  config.window_size = 32;
  config.num_buckets = 4;
  ManagedStream stream = ManagedStream::Create(config).value();
  for (double v : TestSeries(50)) stream.Append(v);
  stream.set_wal_lsn(42);

  auto restored = ManagedStream::Restore(stream.Snapshot());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->wal_lsn(), 42);

  // Snapshot(floor) stores max(own, floor) — the checkpoint's guarantee
  // that everything at or below the global floor is reflected.
  auto floored = ManagedStream::Restore(stream.Snapshot(/*wal_lsn_floor=*/77));
  ASSERT_TRUE(floored.ok()) << floored.status();
  EXPECT_EQ(floored->wal_lsn(), 77);
  auto kept = ManagedStream::Restore(stream.Snapshot(/*wal_lsn_floor=*/7));
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(kept->wal_lsn(), 42);
}

TEST(ManagedStreamSerializationTest, NegativeWalLsnTailIsRejected) {
  std::string payload = SamplePayload();
  ASSERT_GT(payload.size(), kWalTailBytes);
  const size_t lsn_at = payload.size() - kWalTailBytes;
  for (size_t i = 0; i < kWalTailBytes; ++i) {
    payload[lsn_at + i] = '\xff';  // lsn = -1
  }
  const auto restored =
      ManagedStream::Restore(WrapFrame(kStreamMagic, kStreamVersion, payload));
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(ManagedStreamSerializationTest, NegativeCountersAreRejected) {
  std::string payload = SamplePayload();
  for (size_t i = 0; i < 8; ++i) payload[kDroppedAt + i] = '\xff';  // -1
  const auto restored =
      ManagedStream::Restore(WrapFrame(kStreamMagic, kStreamVersion, payload));
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

// Telemetry lives for the process lifetime and never reaches disk: publish
// stats, per-verb stats and degraded builds leave the SHMS bytes unchanged,
// and a LOADed stream starts with no statistics.
TEST(ManagedStreamSerializationTest, TelemetryNeverReachesDisk) {
  QueryEngine engine;
  StreamConfig config;
  config.window_size = 32;
  config.num_buckets = 4;
  ASSERT_TRUE(engine.CreateStream("s", config).ok());
  ASSERT_TRUE(engine.AppendBatch("s", TestSeries(40)).ok());
  const StreamHandle handle = engine.Stream("s").value();
  const std::string before = handle.stream().Snapshot();

  handle.stream().publish_stats().RecordPublish(/*nanos=*/1500,
                                                /*staleness_us=*/250);
  handle.stream().publish_stats().RecordSkipped();
  ASSERT_TRUE(engine.Execute("SUM s 0 10").ok());
  {
    fault::ScopedFault expire("deadline.expire");
    const auto built = engine.Execute("BUILD s");
    ASSERT_TRUE(built.ok()) << built.status();
    EXPECT_NE(built->find("degraded"), std::string::npos) << *built;
  }
  EXPECT_EQ(handle.stats().Read(QueryVerb::kSum).count, 1);
  EXPECT_EQ(handle.stats().Read(QueryVerb::kBuild).count, 1);
  EXPECT_EQ(handle.stream().degraded_builds(), 1);
  EXPECT_EQ(handle.stream().Snapshot(), before);

  const TestDir scratch;
  const std::string path = scratch.File("s.ckpt");
  ASSERT_TRUE(engine.Execute("SAVE " + path).ok());
  ASSERT_TRUE(engine.Execute("LOAD " + path).ok());
  EXPECT_EQ(engine.Execute("STATS s").value(),
            "no statistics recorded for 's'");
  EXPECT_EQ(engine.Stream("s").value().stream().degraded_builds(), 0);
  const std::string after = engine.Execute("STATS s").value();
  EXPECT_EQ(after.rfind("STATS count=1 errors=0", 0), 0u) << after;
}

// ---------------------------------------------------------------------------
// Adversarial bytes. The driver for these invariants is the checkpoint path:
// whatever the disk hands back, Deserialize must return a clean error.

std::string SampleHistogramBytes() {
  Histogram h =
      Histogram::Make({{0, 10, 1.5}, {10, 25, -2.0}, {25, 40, 7.25}}).value();
  return SerializeHistogram(h);
}

TEST(AdversarialBytesTest, TruncationAtEveryPrefixLength) {
  const std::string bytes = SampleHistogramBytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    const auto result = DeserializeHistogram(bytes.substr(0, len));
    EXPECT_FALSE(result.ok()) << "prefix of length " << len << " parsed";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(AdversarialBytesTest, EverySingleBitFlipIsDetected) {
  const std::string bytes = SampleHistogramBytes();
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = bytes;
      corrupted[byte] ^= static_cast<char>(1 << bit);
      const auto result = DeserializeHistogram(corrupted);
      EXPECT_FALSE(result.ok())
          << "flip of bit " << bit << " in byte " << byte << " parsed";
    }
  }
}

TEST(AdversarialBytesTest, WrongMagicAndVersionAreRejected) {
  const std::string bytes = SampleHistogramBytes();
  {
    // Rewrite the magic and fix up the CRC so only the magic is wrong.
    std::string wrong_magic = bytes;
    wrong_magic[0] = 'X';
    EXPECT_FALSE(DeserializeHistogram(wrong_magic).ok());
  }
  {
    // A structurally valid frame with an unknown version: rebuild it from
    // scratch so the CRC is correct and only the version check can fire.
    const auto frame = UnwrapFrame(bytes, 0x53484947, "histogram");
    ASSERT_TRUE(frame.ok());
    const std::string future =
        WrapFrame(0x53484947, frame->version + 1000, frame->payload);
    const auto result = DeserializeHistogram(future);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(AdversarialBytesTest, RandomGarbageNeverParsesSynopses) {
  Random rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(static_cast<size_t>(rng.UniformInt(0, 256)), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    EXPECT_FALSE(SlidingWindow::Deserialize(garbage).ok());
    EXPECT_FALSE(FixedWindowHistogram::Deserialize(garbage).ok());
    EXPECT_FALSE(AgglomerativeHistogram::Deserialize(garbage).ok());
    EXPECT_FALSE(GKSummary::Deserialize(garbage).ok());
    EXPECT_FALSE(FMSketch::Deserialize(garbage).ok());
    EXPECT_FALSE(ManagedStream::Restore(garbage).ok());
  }
}

TEST(AdversarialBytesTest, BitFlipsOnEverySynopsisBlobAreRejected) {
  StreamConfig config;
  config.window_size = 32;
  config.num_buckets = 4;
  ManagedStream stream = ManagedStream::Create(config).value();
  for (double v : TestSeries(100)) stream.Append(v);
  const std::string blob = stream.Snapshot();
  Random rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupted = blob;
    const size_t byte =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(blob.size()) - 1));
    corrupted[byte] ^= static_cast<char>(1 << rng.UniformInt(0, 7));
    EXPECT_FALSE(ManagedStream::Restore(corrupted).ok())
        << "flip in byte " << byte << " parsed";
  }
}

// ---------------------------------------------------------------------------
// The same adversarial grid, extended to WAL segment files: whatever a crash
// (or rot) leaves on disk, a scan must classify it — records up to the
// damage parse, the rest is torn tail or counted corruption — and never
// crash or fail structurally.

// Writes `bytes` as the single segment of a fresh WAL directory.
std::string WalDirWithSegment(const TestDir& scratch, const std::string& name,
                              const std::string& bytes) {
  const std::string dir = scratch.File(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream file(dir + "/wal-00000000000000000001.seg", std::ios::binary);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.close();
  return dir;
}

// A well-formed segment image holding `records` one-byte payload records.
std::string SampleSegmentBytes(const TestDir& scratch, int records) {
  const std::string dir = scratch.File("wal_sample_src");
  std::filesystem::remove_all(dir);
  wal::Options options;
  options.policy = wal::SyncPolicy::kNone;
  // The writer zero-fills a segment ahead of its records, up to
  // segment_bytes: a small segment keeps that fill, and so the grids, short
  // (the frames plus a few dozen zero bytes), while the grids still reach
  // damage in the fill.
  options.segment_bytes = 256;
  auto log = wal::Wal::Open(dir, options, nullptr);
  EXPECT_TRUE(log.ok()) << log.status();
  for (int i = 0; i < records; ++i) {
    EXPECT_TRUE(log.value()->Append(std::string(1, static_cast<char>(i))).ok());
  }
  EXPECT_TRUE(log.value()->Flush().ok());
  log.value().reset();  // close the fd before reading the file back
  std::string bytes;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream file(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    EXPECT_TRUE(bytes.empty()) << "sample WAL spilled into two segments";
    bytes = buffer.str();
  }
  EXPECT_FALSE(bytes.empty());
  return bytes;
}

TEST(WalAdversarialBytesTest, TruncationAtEveryPrefixLengthScansCleanly) {
  const TestDir scratch;
  const std::string bytes = SampleSegmentBytes(scratch, 6);
  int64_t prev_records = 0;
  for (size_t len = 0; len <= bytes.size(); ++len) {
    const std::string dir =
        WalDirWithSegment(scratch, "wal_prefix_grid", bytes.substr(0, len));
    wal::OpenReport report;
    int64_t seen = 0;
    const Status status = wal::Wal::Scan(
        dir, [&](int64_t, std::string_view) {
          ++seen;
          return Status::OK();
        },
        &report);
    ASSERT_TRUE(status.ok()) << "prefix " << len << ": " << status;
    // Whole records before the cut all parse — the count never regresses as
    // the prefix grows — and the remainder is torn tail, never a crash.
    EXPECT_EQ(seen, report.records) << "prefix " << len;
    EXPECT_LE(report.records + report.corrupt_records, 6) << "prefix " << len;
    EXPECT_GE(report.records, prev_records) << "prefix " << len;
    prev_records = report.records;
  }
  EXPECT_EQ(prev_records, 6);  // the full image parses completely
}

TEST(WalAdversarialBytesTest, EverySingleBitFlipScansCleanly) {
  const TestDir scratch;
  const std::string bytes = SampleSegmentBytes(scratch, 4);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = bytes;
      corrupted[byte] ^= static_cast<char>(1 << bit);
      const std::string dir =
          WalDirWithSegment(scratch, "wal_bitflip_grid", corrupted);
      wal::OpenReport report;
      const Status status =
          wal::Wal::Scan(dir, [](int64_t, std::string_view) {
            return Status::OK();
          }, &report);
      ASSERT_TRUE(status.ok())
          << "flip of bit " << bit << " in byte " << byte << ": " << status;
      // One flipped bit damages at most the record it lands in (or, in the
      // header/a length field, tears the tail) — never a crash, and never
      // more than the four records the image holds.
      EXPECT_LE(report.records, 4)
          << "flip of bit " << bit << " in byte " << byte;
      EXPECT_LE(report.corrupt_records, 4)
          << "flip of bit " << bit << " in byte " << byte;
    }
  }
}

TEST(WalAdversarialBytesTest, OpenRepairsEveryTruncationPrefix) {
  // The write path's contract: whatever prefix a crash leaves, Open must
  // truncate the tear, report it, and leave a log that appends cleanly.
  const TestDir scratch;
  const std::string bytes = SampleSegmentBytes(scratch, 3);
  for (size_t len = 0; len < bytes.size(); len += 7) {
    const std::string dir =
        WalDirWithSegment(scratch, "wal_repair_grid", bytes.substr(0, len));
    wal::OpenReport report;
    auto log = wal::Wal::Open(dir, wal::Options{}, &report);
    ASSERT_TRUE(log.ok()) << "prefix " << len << ": " << log.status();
    const auto lsn = log.value()->Append("post-repair record");
    ASSERT_TRUE(lsn.ok()) << "prefix " << len << ": " << lsn.status();
    EXPECT_EQ(lsn.value(), report.next_lsn) << "prefix " << len;
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace streamhist
