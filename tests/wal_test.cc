// Write-ahead log (util/wal.h + engine integration): LSN monotonicity
// across reopen, group commit under concurrent appenders, segment rotation
// and truncation, torn-tail repair, policy-spec parsing, governor
// admission, and the engine-level recovery / checkpoint / LOAD-re-anchor
// protocol. The adversarial byte-level grids (every truncation prefix,
// every bit flip) live in serialization_test.cc; the fault points in
// fault_injection_test.cc.

// GCC 12 emits a bogus -Wrestrict for operator+(const char*, std::string&&)
// once this TU is big enough for the optimizer to inline the short-string
// insert path (gcc bug 105651). There is no real aliasing here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/query_engine.h"
#include "src/engine/wal_records.h"
#include "src/util/fault.h"
#include "src/util/framing.h"
#include "src/util/governor.h"
#include "src/util/wal.h"
#include "recording_file_system.h"
#include "test_dir.h"

namespace streamhist {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void TearDown() override { governor::SetBudgetForTest(0); }

  std::string TempDir(const std::string& name) { return scratch_.File(name); }

  wal::Options NonePolicy() {
    wal::Options options;
    options.policy = wal::SyncPolicy::kNone;
    return options;
  }

  // All LSN >= from_lsn records currently replayable from `dir`.
  std::vector<std::pair<int64_t, std::string>> Records(const std::string& dir,
                                                       int64_t from_lsn = 1) {
    std::vector<std::pair<int64_t, std::string>> out;
    const Status scanned = wal::Wal::Scan(
        dir,
        [&](int64_t lsn, std::string_view payload) {
          if (lsn >= from_lsn) out.emplace_back(lsn, std::string(payload));
          return Status::OK();
        },
        nullptr);
    EXPECT_TRUE(scanned.ok()) << scanned;
    return out;
  }

  // The one segment file in `dir`.
  std::string OnlySegment(const std::string& dir) {
    std::vector<std::string> segments;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".seg") {
        segments.push_back(entry.path().string());
      }
    }
    EXPECT_EQ(segments.size(), 1u);
    return segments.empty() ? "" : segments.front();
  }

  std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  // Writes `bytes` over `path` at `offset` (the file keeps its length when
  // they fit inside it).
  void WriteBytesAt(const std::string& path, int64_t offset,
                    const std::string& bytes) {
    std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(static_cast<std::streamoff>(offset));
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // A segment in the layout written before the zero fill: the header frame
  // and the record frames, nothing after the last one.
  static std::string UnpaddedSegment(
      int64_t first_lsn,
      const std::vector<std::pair<int64_t, std::string>>& records) {
    ByteWriter header;
    header.PutU64(static_cast<uint64_t>(first_lsn));
    std::string bytes = WrapFrame(0x5348574C, 1, header.bytes());  // "SHWL"
    for (const auto& [lsn, payload] : records) {
      ByteWriter body;
      body.PutU64(static_cast<uint64_t>(lsn));
      body.Append(payload);
      bytes += WrapFrame(0x53485752, 1, body.bytes());  // "SHWR"
    }
    return bytes;
  }

  TestDir scratch_;  // this test's own directory
};

// A torn write leaves the first bytes of a frame. Trailing zero bytes of
// such a residue cannot be told from the zero fill under it, so the scan
// counts a residue through its last non-zero byte; this one ends non-zero
// and counts whole: a frame magic and three bytes of a garbled version.
const std::string kTornResidue = "\x52\x57\x48\x53\x01\x02\x03";

TEST_F(WalTest, LsnsAreMonotoneAcrossReopen) {
  const std::string dir = TempDir("wal_lsn_reopen");
  int64_t last = 0;
  for (int round = 0; round < 3; ++round) {
    wal::OpenReport report;
    auto opened = wal::Wal::Open(dir, NonePolicy(), &report);
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ(report.next_lsn, last + 1);
    for (int i = 0; i < 4; ++i) {
      const auto lsn = opened.value()->Append("r" + std::to_string(i));
      ASSERT_TRUE(lsn.ok()) << lsn.status();
      EXPECT_EQ(lsn.value(), last + 1);
      last = lsn.value();
    }
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  const auto records = Records(dir);
  ASSERT_EQ(records.size(), 12u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].first, static_cast<int64_t>(i + 1));
  }
}

TEST_F(WalTest, GroupCommitAcksEveryConcurrentAppendDurably) {
  const std::string dir = TempDir("wal_group_commit");
  wal::Options options;  // policy kAlways: every append blocks on fsync
  auto opened = wal::Wal::Open(dir, options, nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status();
  wal::Wal& log = *opened.value();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  std::vector<std::thread> threads;
  std::vector<std::vector<int64_t>> lsns(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto lsn = log.Append("t" + std::to_string(t));
        ASSERT_TRUE(lsn.ok()) << lsn.status();
        lsns[t].push_back(lsn.value());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const wal::StatsSnapshot stats = log.stats();
  EXPECT_EQ(stats.records, kThreads * kPerThread);
  // Every ack implies durability...
  EXPECT_EQ(stats.durable_lsn, kThreads * kPerThread);
  EXPECT_EQ(stats.sync_waits, kThreads * kPerThread);
  // ...but the flusher may cover many waiters with one fsync. The exact
  // coalescing ratio is timing-dependent (perfbench reports it as
  // wal.fsyncs_per_wait); here we only require it never exceeds one fsync
  // per append.
  EXPECT_GE(stats.fsyncs, 1);
  EXPECT_LE(stats.fsyncs, stats.sync_waits);

  // LSNs: per-thread strictly increasing, globally a permutation of 1..N.
  std::vector<int64_t> all;
  for (const auto& per_thread : lsns) {
    for (size_t i = 1; i < per_thread.size(); ++i) {
      EXPECT_LT(per_thread[i - 1], per_thread[i]);
    }
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<int64_t>(i + 1));
  }
}

TEST_F(WalTest, RotationKeepsReplayContiguous) {
  const std::string dir = TempDir("wal_rotation");
  wal::Options options = NonePolicy();
  options.segment_bytes = 128;  // a few records per segment
  {
    auto opened = wal::Wal::Open(dir, options, nullptr);
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(opened.value()->Append("payload-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(opened.value()->Flush().ok());
    EXPECT_GT(opened.value()->stats().segments_created, 1);
  }
  wal::OpenReport report;
  auto reopened = wal::Wal::Open(dir, options, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_GT(report.segments, 1);
  EXPECT_EQ(report.records, 40);
  int64_t expected = 1;
  const Status replayed = reopened.value()->Replay(
      1,
      [&](int64_t lsn, std::string_view payload) {
        EXPECT_EQ(lsn, expected);
        EXPECT_EQ(payload, "payload-" + std::to_string(expected - 1));
        ++expected;
        return Status::OK();
      },
      nullptr);
  ASSERT_TRUE(replayed.ok()) << replayed;
  EXPECT_EQ(expected, 41);
}

TEST_F(WalTest, TruncateBeforeDeletesOnlyFullyCoveredSealedSegments) {
  const std::string dir = TempDir("wal_truncate");
  wal::Options options = NonePolicy();
  options.segment_bytes = 128;
  auto opened = wal::Wal::Open(dir, options, nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status();
  wal::Wal& log = *opened.value();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(log.Append("payload-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(log.Flush().ok());

  // Truncating below an early LSN removes nothing we still need: every
  // record >= 10 must survive, and record 10 itself must still be present
  // even if it shares a segment with lower LSNs.
  ASSERT_TRUE(log.TruncateBefore(10).ok());
  auto records = Records(dir, 1);
  ASSERT_FALSE(records.empty());
  EXPECT_LE(records.front().first, 10);
  EXPECT_EQ(records.back().first, 40);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].first, records[i - 1].first + 1);  // contiguous
  }
  EXPECT_GT(log.stats().segments_deleted, 0);

  // Truncating beyond the high-water mark never deletes the active segment;
  // the log stays writable and the next append still gets LSN 41.
  ASSERT_TRUE(log.TruncateBefore(1000).ok());
  const auto lsn = log.Append("after-truncate");
  ASSERT_TRUE(lsn.ok()) << lsn.status();
  EXPECT_EQ(lsn.value(), 41);
}

TEST_F(WalTest, TruncateNeverUnlinksAReclaimedLeftoverActiveSegment) {
  // Regression (found by scripts/wal_chaos.sh): a crash can leave a
  // header-only segment at exactly next_lsn. Open reclaims that path for
  // the new active segment, but the scan had already recorded it as sealed
  // with max_lsn = first_lsn - 1 — below every future floor. A later
  // TruncateBefore must not unlink the live active file through that stale
  // entry, or every subsequent append lands in an orphaned inode.
  const std::string dir = TempDir("wal_reclaimed_active");
  {
    auto opened = wal::Wal::Open(dir, NonePolicy(), nullptr);
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(opened.value()->Append("early-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  // An open/close with no appends leaves the header-only segment at lsn 4.
  { ASSERT_TRUE(wal::Wal::Open(dir, NonePolicy(), nullptr).ok()); }

  auto reopened = wal::Wal::Open(dir, NonePolicy(), nullptr);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  wal::Wal& log = *reopened.value();
  ASSERT_TRUE(log.Append("late-4").ok());
  ASSERT_TRUE(log.Append("late-5").ok());
  ASSERT_TRUE(log.TruncateBefore(4).ok());  // checkpoint covering lsns 1..3
  ASSERT_TRUE(log.Flush().ok());

  const auto records = Records(dir);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (std::pair<int64_t, std::string>{4, "late-4"}));
  EXPECT_EQ(records[1], (std::pair<int64_t, std::string>{5, "late-5"}));
}

TEST_F(WalTest, TornTailIsCutAndAppendResumes) {
  const std::string dir = TempDir("wal_torn_tail");
  {
    auto opened = wal::Wal::Open(dir, NonePolicy(), nullptr);
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(opened.value()->Append("whole-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  // Simulate a crash mid-write: the first bytes of the next frame, where a
  // crash leaves them — right after the last record, over the zero fill.
  const std::string segment = OnlySegment(dir);
  ASSERT_FALSE(segment.empty());
  const std::string before = ReadBytes(segment);
  const size_t last = before.find("whole-2");
  ASSERT_NE(last, std::string::npos);
  const size_t records_end = last + 7 + 4;  // the payload, then its CRC
  ASSERT_GT(before.size(), records_end + kTornResidue.size());
  WriteBytesAt(segment, static_cast<int64_t>(records_end), kTornResidue);

  wal::OpenReport report;
  auto reopened = wal::Wal::Open(dir, NonePolicy(), &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_EQ(report.torn_bytes, 7);
  EXPECT_EQ(report.records, 3);
  EXPECT_EQ(report.next_lsn, 4);
  const auto lsn = reopened.value()->Append("resumed");
  ASSERT_TRUE(lsn.ok()) << lsn.status();
  EXPECT_EQ(lsn.value(), 4);
  ASSERT_TRUE(reopened.value()->Flush().ok());
  EXPECT_EQ(Records(dir).size(), 4u);
}

// The same residue in the layout written before the zero fill, where a
// torn write sits at the end of the file.
TEST_F(WalTest, TornTailAtTheEndOfAnUnpaddedSegmentIsCut) {
  const std::string dir = TempDir("wal_torn_unpadded");
  std::filesystem::create_directories(dir);
  const std::string segment = dir + "/wal-00000000000000000001.seg";
  {
    std::ofstream out(segment, std::ios::binary);
    out << UnpaddedSegment(1, {{1, "whole-0"}, {2, "whole-1"}, {3, "whole-2"}})
        << kTornResidue;
  }
  wal::OpenReport report;
  auto reopened = wal::Wal::Open(dir, NonePolicy(), &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_EQ(report.torn_bytes, 7);
  EXPECT_EQ(report.corrupt_records, 0);
  EXPECT_EQ(report.records, 3);
  const auto lsn = reopened.value()->Append("resumed");
  ASSERT_TRUE(lsn.ok()) << lsn.status();
  EXPECT_EQ(lsn.value(), 4);
  ASSERT_TRUE(reopened.value()->Flush().ok());
  EXPECT_EQ(Records(dir).size(), 4u);
}

// Once records overwrite the zero fill, a crash can land a later record
// while a sector of an earlier one never reached the disk and still reads
// as zeros. Recovery cuts the log at the earlier record: replaying the
// later one would put a hole in the history, and skipping the damaged
// frame as rot would leave it behind in what becomes a sealed segment.
TEST_F(WalTest, ALostSectorInAnEarlierRecordCutsTheLogThere) {
  const std::string long_payload(1200, 'b');
  // The lost sector lies inside the long record while the next one landed,
  // or holds the long record's CRC and the head of the next, whose tail
  // landed.
  for (const int64_t sector : {1, 2}) {
    const std::string dir = TempDir("wal_lost_sector_" + std::to_string(sector));
    wal::Options options = NonePolicy();
    options.segment_bytes = 8 * wal::kSectorBytes;
    {
      auto opened = wal::Wal::Open(dir, options, nullptr);
      ASSERT_TRUE(opened.ok()) << opened.status();
      ASSERT_TRUE(opened.value()->Append("short-1").ok());
      ASSERT_TRUE(opened.value()->Append(long_payload).ok());
      ASSERT_TRUE(opened.value()->Append(std::string(600, 'c')).ok());
      ASSERT_TRUE(opened.value()->Flush().ok());
    }
    // The header and short-1 end at byte 55; the long record spans bytes
    // 55-1283, so it holds all of sector 1 and its CRC lies in sector 2,
    // with the head of the last record.
    const std::string segment = OnlySegment(dir);
    WriteBytesAt(segment, sector * wal::kSectorBytes,
                 std::string(static_cast<size_t>(wal::kSectorBytes), '\0'));

    wal::OpenReport report;
    auto reopened = wal::Wal::Open(dir, options, &report);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_TRUE(report.tail_truncated) << sector;
    EXPECT_EQ(report.corrupt_records, 0) << sector;
    EXPECT_EQ(report.records, 1) << sector;
    EXPECT_EQ(report.next_lsn, 2) << sector;
    reopened->reset();
    wal::OpenReport verified;
    ASSERT_TRUE(wal::Wal::Scan(dir, nullptr, &verified).ok());
    EXPECT_EQ(verified.corrupt_records, 0) << sector;
    EXPECT_FALSE(verified.tail_truncated) << sector;
  }
}

// A bit flip in the newest segment's last record, after it landed, is rot:
// its CRC trailer and every sector hold written bytes, unlike a record a
// crash cut. It is counted as corrupt, not cut as a torn tail.
TEST_F(WalTest, ABitFlipInTheNewestSegmentsLastRecordIsRot) {
  const std::string dir = TempDir("wal_flip_last");
  {
    auto opened = wal::Wal::Open(dir, NonePolicy(), nullptr);
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(opened.value()->Append("record-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  const std::string segment = OnlySegment(dir);
  const size_t last = ReadBytes(segment).find("record-2");
  ASSERT_NE(last, std::string::npos);
  WriteBytesAt(segment, static_cast<int64_t>(last) + 3, "X");

  wal::OpenReport scanned;
  ASSERT_TRUE(wal::Wal::Scan(dir, nullptr, &scanned).ok());
  EXPECT_EQ(scanned.corrupt_records, 1);
  EXPECT_FALSE(scanned.tail_truncated);
  EXPECT_EQ(scanned.torn_bytes, 0);
  EXPECT_EQ(scanned.records, 2);
}

// A crash can take the header of a newly created segment. Its name still
// says which LSNs were handed out before it, so the next segment is not
// named, and does not sort, below it.
TEST_F(WalTest, ASegmentWhoseHeaderWasLostStillNamesTheNextLsn) {
  const std::string dir = TempDir("wal_lost_header");
  std::filesystem::create_directories(dir);
  {
    std::ofstream sealed(dir + "/wal-00000000000000000001.seg",
                         std::ios::binary);
    sealed << UnpaddedSegment(1, {{1, "one"}, {2, "two"}});
    std::ofstream newest(dir + "/wal-00000000000000000009.seg",
                         std::ios::binary);
    newest << std::string(64, '\0');
  }
  wal::OpenReport report;
  auto reopened = wal::Wal::Open(dir, NonePolicy(), &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(report.corrupt_records, 0);
  EXPECT_EQ(report.next_lsn, 9);
  const auto lsn = reopened.value()->Append("nine");
  ASSERT_TRUE(lsn.ok()) << lsn.status();
  EXPECT_EQ(lsn.value(), 9);
  ASSERT_TRUE(reopened.value()->Flush().ok());
  reopened->reset();
  EXPECT_EQ(Records(dir).size(), 3u);
  wal::OpenReport verified;
  ASSERT_TRUE(wal::Wal::Scan(dir, nullptr, &verified).ok());
  EXPECT_EQ(verified.corrupt_records, 0);
}

// A segment carries zero fill after its last record, up to segment_bytes:
// the newest one, and each one sealed since, when a reopen starts a fresh
// segment. An all-zero remainder is a clean end: no torn bytes, no corrupt
// record.
TEST_F(WalTest, AZeroTailIsACleanEndOfSealedAndNewestSegments) {
  const std::string dir = TempDir("wal_zero_tail");
  wal::Options options = NonePolicy();
  options.segment_bytes = 4096;
  for (int session = 0; session < 2; ++session) {
    auto opened = wal::Wal::Open(dir, options, nullptr);
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(opened.value()->Append("zero-tail-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  int padded = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string bytes = ReadBytes(entry.path().string());
    EXPECT_EQ(bytes.size(), 4096u) << entry.path();
    if (bytes.find_last_not_of('\0') < 512) ++padded;
  }
  EXPECT_EQ(padded, 2) << "expected a sealed and a newest zero-filled segment";

  wal::OpenReport scanned;
  ASSERT_TRUE(wal::Wal::Scan(dir, nullptr, &scanned).ok());
  EXPECT_EQ(scanned.segments, 2);
  EXPECT_EQ(scanned.records, 6);
  EXPECT_EQ(scanned.torn_bytes, 0);
  EXPECT_FALSE(scanned.tail_truncated);
  EXPECT_EQ(scanned.corrupt_records, 0);

  wal::OpenReport reopened_report;
  auto reopened = wal::Wal::Open(dir, options, &reopened_report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened_report.records, 6);
  EXPECT_EQ(reopened_report.torn_bytes, 0);
  EXPECT_EQ(reopened_report.corrupt_records, 0);
  EXPECT_EQ(reopened_report.next_lsn, 7);
}

// A log written before the zero fill — segments that end at their last
// record — recovers unchanged, and the writer continues it.
TEST_F(WalTest, ASegmentInTheUnpaddedLayoutRecovers) {
  const std::string dir = TempDir("wal_unpadded");
  std::filesystem::create_directories(dir);
  {
    std::ofstream sealed(dir + "/wal-00000000000000000001.seg",
                         std::ios::binary);
    sealed << UnpaddedSegment(1, {{1, "old-1"}, {2, "old-2"}});
    std::ofstream newest(dir + "/wal-00000000000000000003.seg",
                         std::ios::binary);
    newest << UnpaddedSegment(3, {{3, "old-3"}});
  }
  wal::OpenReport report;
  {
    auto opened = wal::Wal::Open(dir, NonePolicy(), &report);
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ(report.records, 3);
    EXPECT_EQ(report.torn_bytes, 0);
    EXPECT_EQ(report.corrupt_records, 0);
    const auto lsn = opened.value()->Append("new-4");
    ASSERT_TRUE(lsn.ok()) << lsn.status();
    EXPECT_EQ(lsn.value(), 4);
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  const auto records = Records(dir);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0], (std::pair<int64_t, std::string>{1, "old-1"}));
  EXPECT_EQ(records[2], (std::pair<int64_t, std::string>{3, "old-3"}));
  EXPECT_EQ(records[3], (std::pair<int64_t, std::string>{4, "new-4"}));
}

// A record longer than one zero-fill step, or than a whole segment, is
// filled for and written whole, and recovers whole.
TEST_F(WalTest, RecordsLongerThanTheFillStepOrASegmentAreWrittenWhole) {
  const std::string dir = TempDir("wal_big_records");
  wal::Options options = NonePolicy();
  options.segment_bytes = 64 * 1024;
  const std::string past_fill(300 * 1024, 'f');     // > the 256 KiB step
  const std::string past_segment(100 * 1024, 's');  // > segment_bytes
  {
    auto opened = wal::Wal::Open(dir, options, nullptr);
    ASSERT_TRUE(opened.ok()) << opened.status();
    ASSERT_TRUE(opened.value()->Append("small").ok());
    ASSERT_TRUE(opened.value()->Append(past_fill).ok());
    ASSERT_TRUE(opened.value()->Append(past_segment).ok());
    ASSERT_TRUE(opened.value()->Append("after").ok());
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  wal::OpenReport report;
  auto reopened = wal::Wal::Open(dir, options, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(report.records, 4);
  EXPECT_EQ(report.torn_bytes, 0);
  EXPECT_EQ(report.corrupt_records, 0);
  const auto records = Records(dir);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[1].second, past_fill);
  EXPECT_EQ(records[2].second, past_segment);
  EXPECT_EQ(records[3].second, "after");
}

// A failed write is cut back to the record boundary and the zero fill
// restarts there: the next record lands right after the last whole one.
TEST_F(WalTest, AppendAfterAnInjectedShortWriteLandsAtTheRecordBoundary) {
  const std::string dir = TempDir("wal_short_write");
  {
    auto opened = wal::Wal::Open(dir, NonePolicy(), nullptr);
    ASSERT_TRUE(opened.ok()) << opened.status();
    ASSERT_TRUE(opened.value()->Append("before").ok());
    {
      fault::ScopedFault armed("wal.append.short", 1);
      EXPECT_FALSE(opened.value()->Append("torn-away").ok());
    }
    const auto lsn = opened.value()->Append("after");
    ASSERT_TRUE(lsn.ok()) << lsn.status();
    EXPECT_EQ(lsn.value(), 2);
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  const std::string bytes = ReadBytes(OnlySegment(dir));
  const size_t before = bytes.find("before");
  const size_t after = bytes.find("after");
  ASSERT_NE(before, std::string::npos);
  ASSERT_NE(after, std::string::npos);
  // The next frame starts right after "before"'s CRC: a 16-byte head and
  // the u64 LSN precede its payload.
  EXPECT_EQ(after, before + 6 + 4 + 16 + 8);
  EXPECT_EQ(bytes.find("torn-away"), std::string::npos);
  wal::OpenReport report;
  ASSERT_TRUE(wal::Wal::Scan(dir, nullptr, &report).ok());
  EXPECT_EQ(report.records, 2);
  EXPECT_EQ(report.torn_bytes, 0);
  EXPECT_EQ(report.corrupt_records, 0);
}

TEST_F(WalTest, PolicySpecRoundTripsAndRejectsGarbage) {
  for (const char* spec : {"always", "none", "bytes:65536", "interval:25"}) {
    const auto parsed = wal::ParsePolicySpec(spec);
    ASSERT_TRUE(parsed.ok()) << spec << ": " << parsed.status();
    EXPECT_EQ(wal::PolicySpecString(parsed.value()), spec);
  }
  EXPECT_EQ(wal::ParsePolicySpec("bytes:1M").value().bytes_threshold,
            1 << 20);
  for (const char* spec :
       {"", "sometimes", "bytes", "bytes:0", "bytes:-4", "interval:",
        "interval:zero", "always:5"}) {
    EXPECT_FALSE(wal::ParsePolicySpec(spec).ok()) << spec;
  }
}

// The deferred policies keep fsync off the append path, which is what they
// buy over "always": no append ever waits on durability, "none" issues no
// fsync before close, and "bytes:N" issues at most one per N appended bytes.
TEST_F(WalTest, DeferredPoliciesBoundTheFsyncCount) {
  constexpr int kRecords = 2000;
  const std::string payload(48, 'x');
  for (const char* spec : {"none", "bytes:4096"}) {
    SCOPED_TRACE(spec);
    const wal::Options options = wal::ParsePolicySpec(spec).value();
    const std::string dir =
        TempDir(options.policy == wal::SyncPolicy::kNone ? "wal_fsyncs_none"
                                                         : "wal_fsyncs_bytes");
    auto opened = wal::Wal::Open(dir, options, nullptr);
    ASSERT_TRUE(opened.ok()) << opened.status();
    wal::Wal& log = *opened.value();
    for (int i = 0; i < kRecords; ++i) ASSERT_TRUE(log.Append(payload).ok());

    const wal::StatsSnapshot stats = log.stats();
    EXPECT_EQ(stats.records, kRecords);
    EXPECT_EQ(stats.sync_waits, 0);
    if (options.policy == wal::SyncPolicy::kNone) {
      EXPECT_EQ(stats.fsyncs, 0);
    } else {
      EXPECT_LE(stats.fsyncs, stats.bytes / options.bytes_threshold + 1)
          << stats.bytes << " bytes appended";
    }
  }
}

TEST(WalRecordsTest, CreateRoundTripsAndTheOlderLayoutIsRejected) {
  StreamConfig config;
  config.window_size = 256;
  config.num_buckets = 12;
  config.epsilon = 0.3;
  config.keep_quantiles = false;
  config.quantile_epsilon = 0.02;
  config.build_mode = WindowBuildMode::kApprox;
  config.build_delta = 0.4;
  const std::string payload = walrec::EncodeCreate("eth0", config);
  auto record = walrec::Decode(payload);
  ASSERT_TRUE(record.ok()) << record.status();
  EXPECT_EQ(record->type, walrec::RecordType::kCreate);
  EXPECT_EQ(record->name, "eth0");
  EXPECT_EQ(record->config.window_size, 256);
  EXPECT_EQ(record->config.num_buckets, 12);
  EXPECT_EQ(record->config.epsilon, 0.3);
  EXPECT_FALSE(record->config.keep_quantiles);
  EXPECT_EQ(record->config.quantile_epsilon, 0.02);
  EXPECT_TRUE(record->config.keep_distinct);
  EXPECT_EQ(record->config.build_mode, WindowBuildMode::kApprox);
  EXPECT_EQ(record->config.build_delta, 0.4);

  // The older layout carried a keep_lifetime byte after eps: type u32, the
  // length-prefixed name, then window, buckets and eps at 8 bytes each.
  std::string older = payload;
  older.insert(4 + 8 + 4 + 3 * 8, 1, '\1');
  const auto rejected = walrec::Decode(older);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(WalTest, GovernorRefusalIsResourceExhausted) {
  const std::string dir = TempDir("wal_governor");
  governor::SetBudgetForTest(governor::Used() + 1024);
  const auto refused = wal::Wal::Open(dir, NonePolicy(), nullptr);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  governor::SetBudgetForTest(0);
  const auto admitted = wal::Wal::Open(dir, NonePolicy(), nullptr);
  EXPECT_TRUE(admitted.ok()) << admitted.status();
}

// ---------------------------------------------------------------------------
// Engine integration: recovery replays exactly the logged history.

class WalEngineTest : public WalTest {
 protected:
  QueryEngine::WalConfig Config(wal::SyncPolicy policy = wal::SyncPolicy::kNone,
                                int64_t checkpoint_ms = 0) {
    QueryEngine::WalConfig config;
    config.options.policy = policy;
    config.checkpoint_interval_ms = checkpoint_ms;
    return config;
  }

  // The observable state a recovered engine must reproduce bit-for-bit.
  std::string Fingerprint(QueryEngine& engine, const std::string& name) {
    const std::string count = engine.Execute("COUNT " + name).value();
    return engine.Execute("DESCRIBE " + name).value() + "\n" + count + "\n" +
           engine.Execute("SUM " + name + " 0 " + count).value();
  }
};

TEST_F(WalEngineTest, RecoveryReproducesStateIncludingDropRecreateChurn) {
  const std::string dir = TempDir("wal_engine_recover");
  std::string fingerprint;
  {
    QueryEngine engine;
    ASSERT_TRUE(engine.OpenWal(dir, Config()).ok());
    ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());
    ASSERT_TRUE(engine.Execute("APPEND eth0 1 2 3 4 5").ok());
    ASSERT_TRUE(engine.Execute("CREATE lo 32 4").ok());
    ASSERT_TRUE(engine.Execute("APPEND lo 9").ok());
    ASSERT_TRUE(engine.Execute("DROP lo").ok());
    ASSERT_TRUE(engine.Execute("CREATE lo 16 4").ok());  // recreate, new shape
    ASSERT_TRUE(engine.Execute("APPEND lo 7 7").ok());
    fingerprint = Fingerprint(engine, "eth0");
    ASSERT_TRUE(engine.CloseWal().ok());
  }
  QueryEngine recovered;
  const auto recovery = recovered.OpenWal(dir, Config());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_EQ(recovery.value().records_applied, 7);
  EXPECT_EQ(Fingerprint(recovered, "eth0"), fingerprint);
  EXPECT_EQ(recovered.Execute("COUNT lo").value(), "2");
  EXPECT_NE(recovered.Execute("DESCRIBE lo").value().find("window 2/16"),
            std::string::npos);
}

TEST_F(WalEngineTest, CheckpointTruncatesAndRecoveryReplaysOnlyTheSuffix) {
  const std::string dir = TempDir("wal_engine_checkpoint");
  std::string fingerprint;
  {
    QueryEngine engine;
    ASSERT_TRUE(engine.OpenWal(dir, Config()).ok());
    ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());
    ASSERT_TRUE(engine.Execute("APPEND eth0 1 2 3").ok());
    const auto checkpointed = engine.Execute("WAL CHECKPOINT");
    ASSERT_TRUE(checkpointed.ok()) << checkpointed.status();
    EXPECT_NE(checkpointed.value().find("wal truncated below lsn"),
              std::string::npos);
    ASSERT_TRUE(engine.Execute("APPEND eth0 4 5").ok());  // post-checkpoint
    fingerprint = Fingerprint(engine, "eth0");
    ASSERT_TRUE(engine.CloseWal().ok());
  }
  QueryEngine recovered;
  const auto recovery = recovered.OpenWal(dir, Config());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_TRUE(recovery.value().checkpoint_loaded);
  // Only the post-checkpoint append replays; the prefix came from SHCP.
  EXPECT_EQ(recovery.value().records_applied, 1);
  EXPECT_EQ(Fingerprint(recovered, "eth0"), fingerprint);
}

TEST_F(WalEngineTest, WalVerbReportsStatusAndRequiresAnOpenLog) {
  QueryEngine cold;
  const auto refused = cold.Execute("WAL");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  const std::string dir = TempDir("wal_engine_verb");
  QueryEngine engine;
  ASSERT_TRUE(engine.OpenWal(dir, Config(wal::SyncPolicy::kAlways)).ok());
  ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());
  ASSERT_TRUE(engine.Execute("APPEND eth0 1").ok());

  const auto status_line = engine.Execute("WAL");
  ASSERT_TRUE(status_line.ok()) << status_line.status();
  EXPECT_NE(status_line.value().find("policy=always"), std::string::npos);
  EXPECT_NE(status_line.value().find("durable lsn=2"), std::string::npos);
  EXPECT_NE(status_line.value().find("last recovery:"), std::string::npos);

  const auto stats = engine.Execute("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("wal: durable lsn=2"), std::string::npos);

  const std::string save_path = TempDir("wal_verb.shcp");
  const auto saved = engine.Execute("SAVE " + save_path);
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_NE(saved.value().find("wal durable lsn=2"), std::string::npos);

  EXPECT_FALSE(engine.Execute("WAL BOGUS").ok());
}

TEST_F(WalEngineTest, LoadReanchorsTheWalToTheLoadedState) {
  // A LOAD replaces the engine's state wholesale; stale WAL records must
  // never replay over it on the next restart.
  const std::string checkpoint = TempDir("wal_foreign.shcp");
  {
    QueryEngine other;  // no WAL: a "foreign" checkpoint
    ASSERT_TRUE(other.Execute("CREATE wifi 32 4").ok());
    ASSERT_TRUE(other.Execute("APPEND wifi 10 20 30").ok());
    ASSERT_TRUE(other.Execute("SAVE " + checkpoint).ok());
  }
  const std::string dir = TempDir("wal_engine_load");
  {
    QueryEngine engine;
    ASSERT_TRUE(engine.OpenWal(dir, Config()).ok());
    ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());
    ASSERT_TRUE(engine.Execute("APPEND eth0 1 2 3 4").ok());
    ASSERT_TRUE(engine.Execute("LOAD " + checkpoint).ok());
    EXPECT_FALSE(engine.Execute("COUNT eth0").ok());  // replaced wholesale
    ASSERT_TRUE(engine.Execute("APPEND wifi 40").ok());
    ASSERT_TRUE(engine.CloseWal().ok());
  }
  QueryEngine recovered;
  const auto recovery = recovered.OpenWal(dir, Config());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_FALSE(recovered.Execute("COUNT eth0").ok());  // pre-LOAD history gone
  EXPECT_EQ(recovered.Execute("COUNT wifi").value(), "4");
}

// Flips one byte inside the last section of the checkpoint at `path`.
void RotLastSection(const std::string& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  const std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 64u);
  const size_t at = bytes.size() - 12;  // in the snapshot, before the CRC
  const char flipped = static_cast<char>(bytes[at] ^ 0x20);
  f.clear();
  f.seekp(static_cast<std::streamoff>(at));
  f.write(&flipped, 1);
}

// A checkpoint section that rotted costs its stream nothing while the log
// still holds the stream from its CREATE on: recovery replays it from the
// oldest retained record, and the next WAL CHECKPOINT holds it again
// before it truncates. Once a truncation has taken the CREATE, the report
// names the loss.
TEST_F(WalEngineTest, ARottedSectionIsRecoveredFromTheLogWhileItHoldsTheStream) {
  const std::string dir = TempDir("wal_rotted_section");
  {
    QueryEngine engine;
    ASSERT_TRUE(engine.OpenWal(dir, Config(wal::SyncPolicy::kAlways)).ok());
    ASSERT_TRUE(engine.Execute("CREATE a 64 8").ok());
    ASSERT_TRUE(engine.Execute("APPEND a 1 2 3").ok());
    EXPECT_NE(engine.Execute("WAL CHECKPOINT").value().find(
                  "wal truncated below lsn 3"),
              std::string::npos);
    ASSERT_TRUE(engine.CloseWal().ok());
  }
  RotLastSection(dir + "/checkpoint.shcp");
  {
    QueryEngine recovered;
    const auto recovery =
        recovered.OpenWal(dir, Config(wal::SyncPolicy::kAlways));
    ASSERT_TRUE(recovery.ok()) << recovery.status();
    EXPECT_NE(recovery->checkpoint_summary.find("dropped 1"),
              std::string::npos)
        << recovery->checkpoint_summary;
    EXPECT_EQ(recovery->recovered_from_log, std::vector<std::string>{"a"});
    EXPECT_EQ(recovery->sections_lost, 0);
    EXPECT_NE(recovery->ToString().find("recovered from the log: a"),
              std::string::npos)
        << recovery->ToString();
    EXPECT_EQ(recovered.Execute("COUNT a").value(), "3");
    EXPECT_EQ(recovered.Execute("SUM a 0 3").value(), "6");
    // The next checkpoint holds the stream again, so its truncation is safe.
    ASSERT_TRUE(recovered.Execute("APPEND a 4").ok());
    ASSERT_TRUE(recovered.Execute("WAL CHECKPOINT").ok());
    ASSERT_TRUE(recovered.CloseWal().ok());
  }
  {
    QueryEngine again;
    const auto recovery = again.OpenWal(dir, Config(wal::SyncPolicy::kAlways));
    ASSERT_TRUE(recovery.ok()) << recovery.status();
    EXPECT_TRUE(recovery->recovered_from_log.empty());
    EXPECT_EQ(again.Execute("COUNT a").value(), "4");
    ASSERT_TRUE(again.CloseWal().ok());
  }
  // Rot again after a checkpoint whose truncation took the CREATE's
  // segment: the stream is lost, and the report says so.
  RotLastSection(dir + "/checkpoint.shcp");
  QueryEngine lost;
  const auto recovery = lost.OpenWal(dir, Config(wal::SyncPolicy::kAlways));
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_TRUE(recovery->recovered_from_log.empty());
  EXPECT_EQ(recovery->sections_lost, 1);
  EXPECT_NE(recovery->ToString().find("lost 1 dropped section"),
            std::string::npos)
      << recovery->ToString();
  EXPECT_FALSE(lost.Execute("COUNT a").ok());
}

// LOAD seals the segment that holds the replaced registry's records before
// its checkpoint truncates, so a later replay from the oldest retained
// record cannot bring a replaced stream back.
TEST_F(WalEngineTest, ARotReplayAfterLoadDoesNotResurrectReplacedStreams) {
  const std::string checkpoint = TempDir("wal_foreign_rot.shcp");
  {
    QueryEngine other;  // no WAL: a "foreign" checkpoint
    ASSERT_TRUE(other.Execute("CREATE wifi 32 4").ok());
    ASSERT_TRUE(other.Execute("APPEND wifi 10 20 30").ok());
    ASSERT_TRUE(other.Execute("SAVE " + checkpoint).ok());
  }
  const std::string dir = TempDir("wal_engine_load_rot");
  {
    QueryEngine engine;
    ASSERT_TRUE(engine.OpenWal(dir, Config()).ok());
    ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());
    ASSERT_TRUE(engine.Execute("APPEND eth0 1 2 3 4").ok());
    ASSERT_TRUE(engine.Execute("LOAD " + checkpoint).ok());
    ASSERT_TRUE(engine.CloseWal().ok());
  }
  RotLastSection(dir + "/checkpoint.shcp");
  QueryEngine recovered;
  const auto recovery = recovered.OpenWal(dir, Config());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_FALSE(recovered.Execute("COUNT eth0").ok()) << recovery->ToString();
  EXPECT_TRUE(recovery->recovered_from_log.empty());
  EXPECT_EQ(recovery->sections_lost, 1);  // wifi's CREATE was never logged
}

TEST_F(WalTest, ReplayResumesAtEveryLsnIncludingSegmentBoundaries) {
  // Replication resumes a subscriber at an arbitrary LSN — most awkwardly
  // at exactly the first record of a segment, where the reader must skip
  // whole sealed files and land on a fresh header. Replay from EVERY
  // position and require a contiguous suffix each time.
  const std::string dir = TempDir("wal_replay_resume");
  wal::Options options = NonePolicy();
  options.segment_bytes = 128;  // several segments across 40 records
  auto opened = wal::Wal::Open(dir, options, nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(opened.value()->Append("payload-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(opened.value()->Flush().ok());
  ASSERT_GT(opened.value()->stats().segments_created, 2);

  for (int64_t from = 1; from <= 41; ++from) {
    int64_t expected = from;
    const Status replayed = opened.value()->Replay(
        from,
        [&](int64_t lsn, std::string_view payload) {
          EXPECT_EQ(lsn, expected) << "resume at " << from;
          EXPECT_EQ(payload, "payload-" + std::to_string(lsn - 1));
          ++expected;
          return Status::OK();
        },
        nullptr);
    ASSERT_TRUE(replayed.ok()) << "resume at " << from << ": " << replayed;
    EXPECT_EQ(expected, 41) << "resume at " << from;
  }
}

TEST_F(WalTest, ReadTailFollowsRotationsAndReportsTruncation) {
  const std::string dir = TempDir("wal_read_tail");
  wal::Options options;  // policy always: records are durable immediately
  options.segment_bytes = 128;
  auto opened = wal::Wal::Open(dir, options, nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status();
  wal::Wal& log = *opened.value();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(log.Append("tail-" + std::to_string(i)).ok());
  }

  // Drain from LSN 1 in small bites: records arrive in order, contiguous,
  // across every rotation, and the cursor reports caught-up at the end.
  wal::TailCursor cursor;
  int64_t expected = 1;
  while (true) {
    wal::TailBatch batch;
    ASSERT_TRUE(log.ReadTail(&cursor, /*max_bytes=*/96, &batch).ok());
    EXPECT_FALSE(batch.truncated_below);
    if (batch.records.empty()) break;
    for (const auto& [lsn, payload] : batch.records) {
      EXPECT_EQ(lsn, expected);
      EXPECT_EQ(payload, "tail-" + std::to_string(lsn - 1));
      ++expected;
    }
  }
  EXPECT_EQ(expected, 31);

  // A cursor below the retained floor is told so (the hub's cue to send a
  // checkpoint-bootstrap instead of a record gap).
  ASSERT_TRUE(log.TruncateBefore(25).ok());
  wal::TailCursor stale;
  stale.next_lsn = 1;
  wal::TailBatch batch;
  ASSERT_TRUE(log.ReadTail(&stale, 1 << 20, &batch).ok());
  EXPECT_TRUE(batch.truncated_below);
}

TEST_F(WalTest, ReadTailReadsOnlyPastTheCursor) {
  // A caught-up replica feeder reads once per durable record. Reading the
  // segment from byte 0 each time would cost O(records x segment) bytes;
  // reading from the cursor costs about the segment once.
  const std::string dir = TempDir("wal_tail_cost");
  RecordingFileSystem recorder;
  const ScopedFileSystem recording(&recorder);
  auto opened = wal::Wal::Open(dir, wal::Options{}, nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status();
  wal::Wal& log = *opened.value();
  wal::TailCursor cursor;
  for (int i = 0; i < 1000; ++i) {
    const auto lsn = log.Append("tail-" + std::to_string(i));
    ASSERT_TRUE(lsn.ok()) << lsn.status();
    wal::TailBatch batch;
    ASSERT_TRUE(log.ReadTail(&cursor, 1 << 20, &batch).ok());
    ASSERT_EQ(batch.records.size(), 1u);
    EXPECT_EQ(batch.records[0].first, lsn.value());
  }
  ASSERT_EQ(log.stats().segments_created, 1);
  // The frames written (header aside); the segment file is longer by its
  // zero fill, which a tailing reader never reads.
  const int64_t written = log.stats().bytes;
  EXPECT_LT(recorder.bytes_read(), 2 * written)
      << written << " frame bytes written";
}

// A replica draining a backlog reads each record about once: every call
// reads at most its byte budget plus the one frame that budget ends inside.
// Reading to the end of the segment on every call read 34,211,868 bytes for
// these 4,112,000. A caught-up poll reads nothing, zero fill included.
TEST_F(WalTest, ReadTailReadsAtMostItsBudgetPlusOneFrame) {
  const std::string dir = TempDir("wal_tail_budget");
  RecordingFileSystem recorder;
  const ScopedFileSystem recording(&recorder);
  auto opened = wal::Wal::Open(dir, NonePolicy(), nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status();
  wal::Wal& log = *opened.value();
  const std::string payload(1000, 'p');
  for (int i = 0; i < 4000; ++i) ASSERT_TRUE(log.Append(payload).ok());
  ASSERT_TRUE(log.Flush().ok());
  ASSERT_EQ(log.stats().segments_created, 1);
  const int64_t written = log.stats().bytes;

  constexpr int64_t kBatchBytes = 256 * 1024;
  wal::TailCursor cursor;
  int64_t received = 0;
  while (true) {
    const int64_t read_before = recorder.bytes_read();
    wal::TailBatch batch;
    ASSERT_TRUE(log.ReadTail(&cursor, kBatchBytes, &batch).ok());
    EXPECT_FALSE(batch.truncated_below);
    EXPECT_LE(recorder.bytes_read() - read_before,
              kBatchBytes + static_cast<int64_t>(payload.size()) + 28);
    if (batch.records.empty()) break;
    for (const auto& [lsn, body] : batch.records) {
      EXPECT_EQ(lsn, received + 1);
      ++received;
    }
  }
  EXPECT_EQ(received, 4000);
  EXPECT_LT(recorder.bytes_read(), 2 * written)
      << written << " frame bytes written";

  const int64_t drained = recorder.bytes_read();
  wal::TailBatch batch;
  ASSERT_TRUE(log.ReadTail(&cursor, kBatchBytes, &batch).ok());
  EXPECT_TRUE(batch.records.empty());
  EXPECT_EQ(recorder.bytes_read(), drained) << "a caught-up poll read bytes";
}

TEST_F(WalTest, AppendAtAndAlignNextLsnKeepTheReplicaLogMonotonic) {
  const std::string dir = TempDir("wal_append_at");
  auto opened = wal::Wal::Open(dir, NonePolicy(), nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status();
  wal::Wal& log = *opened.value();

  // The replica apply path: records arrive numbered by the primary, with
  // gaps legal (skipped corrupt records), but never behind next_lsn.
  ASSERT_TRUE(log.AppendAt(1, "one").ok());
  ASSERT_TRUE(log.AppendAt(3, "three").ok());  // gap: lsn 2 skipped upstream
  EXPECT_FALSE(log.AppendAt(2, "rewind").ok());
  EXPECT_EQ(log.next_lsn(), 4);

  // The bootstrap handoff: fast-forward past the image's floor.
  ASSERT_TRUE(log.AlignNextLsn(100).ok());
  EXPECT_FALSE(log.AlignNextLsn(50).ok());  // never backwards
  const auto lsn = log.Append("after-floor");
  ASSERT_TRUE(lsn.ok()) << lsn.status();
  EXPECT_EQ(lsn.value(), 100);
  ASSERT_TRUE(log.Flush().ok());

  const auto records = Records(dir, 1);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], (std::pair<int64_t, std::string>{1, "one"}));
  EXPECT_EQ(records[1], (std::pair<int64_t, std::string>{3, "three"}));
  EXPECT_EQ(records[2], (std::pair<int64_t, std::string>{100, "after-floor"}));
}

TEST_F(WalEngineTest, RecoveryFromACheckpointWithAWipedLogReanchorsLsns) {
  // Operator scenario: the segments were lost (disk swap, overzealous
  // cleanup) but checkpoint.shcp survived. Recovery must serve the
  // checkpointed state AND re-anchor the fresh log past the checkpoint's
  // floor — otherwise new appends reuse covered LSNs and the per-stream
  // veto silently discards them on the NEXT recovery.
  const std::string dir = TempDir("wal_engine_wiped");
  int64_t floor_lsn = 0;
  {
    QueryEngine engine;
    ASSERT_TRUE(engine.OpenWal(dir, Config(wal::SyncPolicy::kAlways)).ok());
    ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());
    ASSERT_TRUE(engine.Execute("APPEND eth0 1 2 3").ok());
    ASSERT_TRUE(engine.Execute("WAL CHECKPOINT").ok());
    floor_lsn = engine.WalDurableLsn();
    ASSERT_TRUE(engine.CloseWal().ok());
  }
  int64_t removed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") {
      std::filesystem::remove(entry.path());
      ++removed;
    }
  }
  ASSERT_GT(removed, 0);

  {
    QueryEngine recovered;
    const auto recovery =
        recovered.OpenWal(dir, Config(wal::SyncPolicy::kAlways));
    ASSERT_TRUE(recovery.ok()) << recovery.status();
    EXPECT_TRUE(recovery.value().checkpoint_loaded);
    EXPECT_EQ(recovery.value().open.records, 0);
    EXPECT_EQ(recovered.Execute("COUNT eth0").value(), "3");
    ASSERT_TRUE(recovered.Execute("APPEND eth0 4 5").ok());
    EXPECT_GT(recovered.WalDurableLsn(), floor_lsn) << "LSNs were reused";
    ASSERT_TRUE(recovered.CloseWal().ok());
  }
  // The writes that landed after the wipe survive a second recovery —
  // the regression this test exists for.
  QueryEngine again;
  ASSERT_TRUE(again.OpenWal(dir, Config(wal::SyncPolicy::kAlways)).ok());
  EXPECT_EQ(again.Execute("COUNT eth0").value(), "5");
}

TEST_F(WalEngineTest, RecoveryWithAnAbsentDirIsAColdStart) {
  // The dir not existing yet is the day-one case, not an error: OpenWal
  // creates it, reports no checkpoint and no records, and logs normally.
  const std::string dir = TempDir("wal_engine_absent") + "-never-made";
  std::filesystem::remove_all(dir);
  QueryEngine engine;
  const auto recovery = engine.OpenWal(dir, Config(wal::SyncPolicy::kAlways));
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_FALSE(recovery.value().checkpoint_loaded);
  EXPECT_EQ(recovery.value().open.records, 0);
  EXPECT_EQ(recovery.value().records_applied, 0);
  ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());
  ASSERT_TRUE(engine.Execute("APPEND eth0 1").ok());
  EXPECT_EQ(engine.WalDurableLsn(), 2);
}

TEST_F(WalEngineTest, BackgroundCheckpointerTruncatesWithoutLosingState) {
  const std::string dir = TempDir("wal_engine_bg_ckpt");
  std::string fingerprint;
  {
    QueryEngine engine;
    ASSERT_TRUE(
        engine.OpenWal(dir, Config(wal::SyncPolicy::kNone, /*ckpt_ms=*/5))
            .ok());
    ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(engine.Execute("APPEND eth0 " + std::to_string(i)).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    fingerprint = Fingerprint(engine, "eth0");
    ASSERT_TRUE(engine.CloseWal().ok());
  }
  QueryEngine recovered;
  const auto recovery = recovered.OpenWal(dir, Config());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_TRUE(recovery.value().checkpoint_loaded);
  EXPECT_EQ(Fingerprint(recovered, "eth0"), fingerprint);
}

}  // namespace
}  // namespace streamhist
