// Engine checkpoint/restore: the round-trip property (a reloaded engine
// answers every query identically), partial recovery from per-section
// corruption, and the SAVE/LOAD query-language verbs.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/generators.h"
#include "src/engine/query_engine.h"
#include "src/util/fileio.h"
#include "src/util/framing.h"
#include "src/util/governor.h"
#include "test_dir.h"

namespace streamhist {
namespace {

/// A checkpoint path in a directory of the running test's own, removed
/// with the directory on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& name) : path_(dir_.File(name)) {}
  const std::string& str() const { return path_; }

 private:
  TestDir dir_;
  std::string path_;
};

StreamConfig SmallConfig() {
  StreamConfig config;
  config.window_size = 64;
  config.num_buckets = 8;
  config.epsilon = 0.2;
  return config;
}

// Fills a caller-owned engine: QueryEngine is neither copyable nor movable.
void Populate(QueryEngine& engine) {
  EXPECT_TRUE(engine.CreateStream("eth0", SmallConfig()).ok());
  EXPECT_TRUE(engine.CreateStream("eth1", SmallConfig()).ok());
  const std::vector<double> a = GenerateDataset(DatasetKind::kUtilization, 500, 3);
  const std::vector<double> b = GenerateDataset(DatasetKind::kUtilization, 300, 9);
  EXPECT_TRUE(engine.AppendBatch("eth0", a).ok());
  EXPECT_TRUE(engine.AppendBatch("eth1", b).ok());
}

std::vector<std::string> ProbeStatements(const std::string& stream) {
  return {
      "COUNT " + stream,        "SUM " + stream + " 0 64",
      "SUM " + stream + " 7 41", "AVG " + stream + " LAST 10",
      "SUMBOUND " + stream + " 3 50", "POINT " + stream + " 63",
      "QUANTILE " + stream + " 0.5", "QUANTILE " + stream + " 0.99",
      "DISTINCT " + stream,     "ERROR " + stream,
      "SHOW " + stream,
  };
}

TEST(CheckpointTest, SaveLoadRoundTripAnswersIdentically) {
  TempPath path("roundtrip.ckpt");
  QueryEngine engine;
  Populate(engine);
  ASSERT_TRUE(engine.SaveCheckpoint(path.str()).ok());

  QueryEngine reloaded;
  const auto report = reloaded.LoadCheckpoint(path.str());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->fully_loaded());
  EXPECT_EQ(report->loaded, (std::vector<std::string>{"eth0", "eth1"}));
  EXPECT_EQ(reloaded.ListStreams(), engine.ListStreams());

  for (const std::string stream : {"eth0", "eth1"}) {
    for (const std::string& statement : ProbeStatements(stream)) {
      const auto want = engine.Execute(statement);
      const auto got = reloaded.Execute(statement);
      ASSERT_TRUE(want.ok()) << statement << ": " << want.status();
      ASSERT_TRUE(got.ok()) << statement << ": " << got.status();
      EXPECT_EQ(got.value(), want.value()) << statement;
    }
  }
}

TEST(CheckpointTest, LoadDropsAStreamWhoseRebuildCannotFit) {
  // LOAD probes one window rebuild's scratch on top of each restored
  // stream, as CREATE does: a budget without room for it drops the section.
  TempPath path("budget.ckpt");
  QueryEngine engine;
  Populate(engine);
  ASSERT_TRUE(engine.SaveCheckpoint(path.str()).ok());
  const int64_t scratch =
      ManagedStream::EstimateRebuildScratchBytes(SmallConfig());

  QueryEngine refused;
  governor::SetBudgetForTest(governor::Used() + scratch - 1);
  const auto report = refused.LoadCheckpoint(path.str());
  governor::SetBudgetForTest(0);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->dropped.size(), 2u);
  EXPECT_EQ(report->dropped[0].reason.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(refused.ListStreams().empty());

  QueryEngine admitted;
  governor::SetBudgetForTest(
      governor::Used() +
      2 * (ManagedStream::EstimateFootprintBytes(SmallConfig()) + scratch));
  const auto loaded = admitted.LoadCheckpoint(path.str());
  governor::SetBudgetForTest(0);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->fully_loaded());
}
TEST(CheckpointTest, HappyPathSaveTakesOneAttempt) {
  TempPath path("one_attempt.ckpt");
  QueryEngine engine;
  Populate(engine);
  QueryEngine::SaveReport report;
  ASSERT_TRUE(engine.SaveCheckpoint(path.str(), &report).ok());
  EXPECT_EQ(report.attempts, 1);
  // The SAVE verb omits the attempt suffix when no retry happened.
  const auto saved = engine.Execute("SAVE " + path.str());
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_EQ(saved.value().find("attempts"), std::string::npos);
}

TEST(CheckpointTest, RestoredEngineIngestsIdentically) {
  TempPath path("ingest.ckpt");
  QueryEngine engine;
  Populate(engine);
  ASSERT_TRUE(engine.SaveCheckpoint(path.str()).ok());
  QueryEngine reloaded;
  ASSERT_TRUE(reloaded.LoadCheckpoint(path.str()).ok());

  // Feed both engines the same continuation and compare answers again: a
  // checkpoint must not perturb future state evolution either.
  const std::vector<double> more =
      GenerateDataset(DatasetKind::kRandomWalk, 400, 5);
  ASSERT_TRUE(engine.AppendBatch("eth0", more).ok());
  ASSERT_TRUE(reloaded.AppendBatch("eth0", more).ok());
  for (const std::string& statement : ProbeStatements("eth0")) {
    EXPECT_EQ(reloaded.Execute(statement).value(),
              engine.Execute(statement).value())
        << statement;
  }
}

TEST(CheckpointTest, EmptyEngineRoundTrips) {
  TempPath path("empty.ckpt");
  QueryEngine engine;
  ASSERT_TRUE(engine.SaveCheckpoint(path.str()).ok());
  QueryEngine reloaded;
  ASSERT_TRUE(reloaded.CreateStream("old", SmallConfig()).ok());
  const auto report = reloaded.LoadCheckpoint(path.str());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->loaded.empty());
  // LOAD replaces the registry wholesale.
  EXPECT_TRUE(reloaded.ListStreams().empty());
}

TEST(CheckpointTest, MissingFileFailsAndLeavesEngineUnchanged) {
  QueryEngine engine;
  Populate(engine);
  const auto report = engine.LoadCheckpoint("/nonexistent/dir/x.ckpt");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(engine.ListStreams(),
            (std::vector<std::string>{"eth0", "eth1"}));
}

TEST(CheckpointTest, CorruptHeaderFailsAndLeavesEngineUnchanged) {
  TempPath path("header.ckpt");
  QueryEngine source;
  Populate(source);
  ASSERT_TRUE(source.SaveCheckpoint(path.str()).ok());

  auto bytes = ReadFileToString(path.str());
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = bytes.value();
  corrupted[4] ^= 0x40;  // header frame version field -> header CRC fails
  ASSERT_TRUE(AtomicWriteFile(path.str(), corrupted).ok());

  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("survivor", SmallConfig()).ok());
  EXPECT_FALSE(engine.LoadCheckpoint(path.str()).ok());
  EXPECT_EQ(engine.ListStreams(), (std::vector<std::string>{"survivor"}));
}

TEST(CheckpointTest, CorruptSectionIsDroppedOthersStillLoad) {
  TempPath path("partial.ckpt");
  QueryEngine source;
  Populate(source);
  ASSERT_TRUE(source.SaveCheckpoint(path.str()).ok());

  auto bytes = ReadFileToString(path.str());
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = bytes.value();
  // The header frame is 8+20 bytes; eth0's section starts right after it.
  // Flip a payload byte well inside the first section.
  corrupted[60] ^= 0x01;
  ASSERT_TRUE(AtomicWriteFile(path.str(), corrupted).ok());

  QueryEngine engine;
  const auto report = engine.LoadCheckpoint(path.str());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->fully_loaded());
  ASSERT_EQ(report->dropped.size(), 1u);
  EXPECT_FALSE(report->dropped[0].reason.ok());
  EXPECT_EQ(report->loaded, (std::vector<std::string>{"eth1"}));
  // The surviving stream answers queries.
  EXPECT_TRUE(engine.Execute("COUNT eth1").ok());
  EXPECT_FALSE(engine.Execute("COUNT eth0").ok());
}

TEST(CheckpointTest, TruncatedTailDropsOnlyLostSections) {
  TempPath path("tail.ckpt");
  QueryEngine source;
  Populate(source);
  ASSERT_TRUE(source.SaveCheckpoint(path.str()).ok());

  auto bytes = ReadFileToString(path.str());
  ASSERT_TRUE(bytes.ok());
  // Cut the file mid-way through the second section: eth0 must survive.
  std::string truncated =
      bytes.value().substr(0, bytes.value().size() - 200);
  ASSERT_TRUE(AtomicWriteFile(path.str(), truncated).ok());

  QueryEngine engine;
  const auto report = engine.LoadCheckpoint(path.str());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->loaded, (std::vector<std::string>{"eth0"}));
  EXPECT_EQ(report->dropped.size(), 1u);
}

TEST(CheckpointTest, OlderContainerVersionIsRejectedAsUnsupported) {
  TempPath path("v1_header.ckpt");
  QueryEngine source;
  Populate(source);
  ASSERT_TRUE(source.SaveCheckpoint(path.str()).ok());
  auto bytes = ReadFileToString(path.str());
  ASSERT_TRUE(bytes.ok());

  // Rewrite the header the way v1 wrote it: the stream count alone, with no
  // WAL LSN floor. The stream sections after it stay as saved.
  constexpr uint32_t kCheckpointMagic = 0x53484350;  // "SHCP"
  ByteReader reader(bytes.value());
  auto header = ReadFrame(reader, kCheckpointMagic, "checkpoint");
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->version, 2u);
  ByteReader header_reader(header->payload);
  uint64_t declared = 0;
  ASSERT_TRUE(header_reader.ReadU64(&declared));
  ByteWriter v1_header;
  v1_header.PutU64(declared);
  const std::string v1_file =
      WrapFrame(kCheckpointMagic, 1, v1_header.bytes()) +
      bytes.value().substr(reader.position());
  ASSERT_TRUE(AtomicWriteFile(path.str(), v1_file).ok());

  QueryEngine engine;
  const auto report = engine.LoadCheckpoint(path.str());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("unsupported checkpoint version"),
            std::string::npos)
      << report.status();
  EXPECT_TRUE(engine.ListStreams().empty());
}

TEST(CheckpointTest, SaveIsAtomicOldCheckpointSurvivesOverwrite) {
  TempPath path("atomic.ckpt");
  QueryEngine engine;
  Populate(engine);
  ASSERT_TRUE(engine.SaveCheckpoint(path.str()).ok());
  auto first = ReadFileToString(path.str());
  ASSERT_TRUE(first.ok());

  // Saving again over the same path replaces the file completely.
  ASSERT_TRUE(engine.AppendBatch("eth0", std::vector<double>{1, 2, 3}).ok());
  ASSERT_TRUE(engine.SaveCheckpoint(path.str()).ok());
  QueryEngine reloaded;
  ASSERT_TRUE(reloaded.LoadCheckpoint(path.str()).ok());
  EXPECT_EQ(reloaded.Execute("COUNT eth0").value(),
            engine.Execute("COUNT eth0").value());
}

TEST(CheckpointVerbTest, SaveAndLoadThroughQueryLanguage) {
  TempPath path("verbs.ckpt");
  QueryEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());
  ASSERT_TRUE(engine.Execute("APPEND eth0 1 2 3 4 5").ok());
  const auto saved = engine.Execute("SAVE " + path.str());
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_NE(saved.value().find("1 stream(s)"), std::string::npos);

  QueryEngine other;
  const auto loaded = other.Execute("LOAD " + path.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_NE(loaded.value().find("eth0"), std::string::npos);
  EXPECT_EQ(other.Execute("COUNT eth0").value(), "5");
  EXPECT_EQ(other.Execute("SUM eth0 LAST 5").value(),
            engine.Execute("SUM eth0 LAST 5").value());
}

TEST(CheckpointVerbTest, CreateAppendDropVerbs) {
  QueryEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE s").ok());
  EXPECT_FALSE(engine.Execute("CREATE s").ok());  // duplicate
  EXPECT_FALSE(engine.Execute("CREATE t 0").ok());  // invalid window
  const auto appended = engine.Execute("APPEND s 1.5 nan 2.5 inf");
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_NE(appended.value().find("quarantined 2"), std::string::npos);
  EXPECT_EQ(engine.Execute("COUNT s").value(), "2");
  EXPECT_TRUE(engine.Execute("DROP s").ok());
  EXPECT_FALSE(engine.Execute("DROP s").ok());
  EXPECT_FALSE(engine.Execute("SAVE").ok());
  EXPECT_FALSE(engine.Execute("LOAD").ok());
}

TEST(QuarantineTest, NonFiniteValuesNeverReachSynopses) {
  ManagedStream stream = ManagedStream::Create(SmallConfig()).value();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  stream.AppendBatch(std::vector<double>{1.0, nan, 2.0, inf, -inf, 3.0});
  EXPECT_EQ(stream.total_points(), 3);
  EXPECT_EQ(stream.dropped_nonfinite(), 3);
  // The poisoned values must not have reached any synopsis: every answer is
  // still finite. (The window holds only the 3 accepted points.)
  EXPECT_TRUE(std::isfinite(stream.window_histogram().RangeSum(0, 3)));
  EXPECT_TRUE(std::isfinite(stream.quantiles()->Quantile(0.5)));
  EXPECT_NE(stream.Describe().find("3 non-finite dropped"),
            std::string::npos);
}

}  // namespace
}  // namespace streamhist
