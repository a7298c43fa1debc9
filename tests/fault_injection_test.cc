// Fault-injection coverage (util/fault.h): every simulated storage failure —
// short write, fsync failure, rename failure, bit rot, truncation — must
// surface as a clean error Status, and a failed save must leave the previous
// checkpoint loadable. These tests run under ASan/UBSan in CI with every
// point armed one at a time.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/generators.h"
#include "src/engine/query_engine.h"
#include "src/server/tcp_server.h"
#include "src/util/fault.h"
#include "src/util/fileio.h"
#include "src/util/governor.h"
#include "test_dir.h"
#include "tcp_test_client.h"

namespace streamhist {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DisarmAll(); }

  std::string TempFile(const std::string& name) { return scratch_.File(name); }

  TestDir scratch_;  // this test's own directory
};

TEST_F(FaultInjectionTest, RegistryArmsAndDisarms) {
  EXPECT_FALSE(fault::Triggered("test.point"));
  EXPECT_EQ(fault::TriggerCount("test.point"), 0);
  fault::Arm("test.point");
  EXPECT_EQ(fault::Armed(), (std::vector<std::string>{"test.point"}));
  EXPECT_TRUE(fault::Triggered("test.point"));
  EXPECT_FALSE(fault::Triggered("other.point"));
  EXPECT_EQ(fault::TriggerCount("test.point"), 1);
  fault::Disarm("test.point");
  EXPECT_FALSE(fault::Triggered("test.point"));
}

TEST_F(FaultInjectionTest, SpecParserArmsCommaSeparatedPoints) {
  fault::ArmFromSpec("a.b, c.d ,,e.f");
  EXPECT_EQ(fault::Armed(), (std::vector<std::string>{"a.b", "c.d", "e.f"}));
  fault::DisarmAll();
  EXPECT_TRUE(fault::Armed().empty());
}

TEST_F(FaultInjectionTest, ScopedFaultDisarmsOnExit) {
  {
    fault::ScopedFault armed("scoped.point");
    EXPECT_TRUE(fault::Triggered("scoped.point"));
  }
  EXPECT_FALSE(fault::Triggered("scoped.point"));
}

TEST_F(FaultInjectionTest, ShortWriteLeavesDestinationUntouched) {
  const std::string path = TempFile("short_write.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "original contents").ok());

  fault::ScopedFault armed("fileio.short_write");
  const Status status = AtomicWriteFile(path, "replacement that gets torn");
  EXPECT_FALSE(status.ok());
  EXPECT_GE(fault::TriggerCount("fileio.short_write"), 1);

  fault::DisarmAll();
  const auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), "original contents");
}

TEST_F(FaultInjectionTest, FsyncAndRenameFailuresLeaveDestinationUntouched) {
  for (const char* point : {"fileio.fsync", "fileio.rename"}) {
    const std::string path = TempFile(std::string("fail_") + point);
    ASSERT_TRUE(AtomicWriteFile(path, "stable").ok());
    {
      fault::ScopedFault armed(point);
      EXPECT_FALSE(AtomicWriteFile(path, "doomed").ok()) << point;
    }
    const auto bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok()) << point;
    EXPECT_EQ(bytes.value(), "stable") << point;
  }
}

TEST_F(FaultInjectionTest, ReadFaultsCorruptTheBytes) {
  const std::string path = TempFile("read_faults.bin");
  const std::string payload(100, 'x');
  ASSERT_TRUE(AtomicWriteFile(path, payload).ok());
  {
    fault::ScopedFault armed("fileio.read.bitflip");
    const auto bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_NE(bytes.value(), payload);
    EXPECT_EQ(bytes.value().size(), payload.size());
  }
  {
    fault::ScopedFault armed("fileio.read.truncate");
    const auto bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value().size(), payload.size() / 2);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: checkpointing under every fault, one at a time. The invariant:
// LoadCheckpoint never crashes, and after a failed save the *previous*
// checkpoint still loads with the old answers.

// Fills a caller-owned engine: QueryEngine is neither copyable nor movable.
void Populate(QueryEngine& engine, int points, uint64_t seed) {
  StreamConfig config;
  config.window_size = 64;
  config.num_buckets = 8;
  config.epsilon = 0.2;
  EXPECT_TRUE(engine.CreateStream("eth0", config).ok());
  EXPECT_TRUE(
      engine
          .AppendBatch("eth0",
                       GenerateDataset(DatasetKind::kUtilization, points, seed))
          .ok());
}

TEST_F(FaultInjectionTest, FailedSavePreservesOlderCheckpoint) {
  for (const char* point :
       {"fileio.short_write", "fileio.fsync", "fileio.rename"}) {
    const std::string path = TempFile(std::string("save_") + point);
    QueryEngine engine;
    Populate(engine, 500, 3);
    ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
    const std::string old_sum = engine.Execute("SUM eth0 0 64").value();

    // Mutate the engine, then fail the second save.
    ASSERT_TRUE(engine.AppendBatch("eth0", std::vector<double>(100, 9.0)).ok());
    {
      fault::ScopedFault armed(point);
      EXPECT_FALSE(engine.SaveCheckpoint(path).ok()) << point;
    }

    // The file on disk is still the complete older checkpoint.
    QueryEngine recovered;
    const auto report = recovered.LoadCheckpoint(path);
    ASSERT_TRUE(report.ok()) << point << ": " << report.status();
    EXPECT_TRUE(report->fully_loaded()) << point;
    EXPECT_EQ(recovered.Execute("SUM eth0 0 64").value(), old_sum) << point;
  }
}

TEST_F(FaultInjectionTest, BitflippedCheckpointLoadsCleanlyOrPartially) {
  const std::string path = TempFile("load_bitflip.ckpt");
  QueryEngine engine;
  Populate(engine, 500, 3);
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  fault::ScopedFault armed("fileio.read.bitflip");
  QueryEngine recovered;
  const auto report = recovered.LoadCheckpoint(path);
  // The flip lands mid-file (inside a stream section): either the load fails
  // outright with a clean Status or it reports the damaged stream as dropped.
  if (report.ok()) {
    EXPECT_FALSE(report->fully_loaded());
  } else {
    EXPECT_FALSE(report.status().ok());
  }
}

TEST_F(FaultInjectionTest, TruncatedCheckpointLoadsCleanlyOrPartially) {
  const std::string path = TempFile("load_truncate.ckpt");
  QueryEngine engine;
  Populate(engine, 500, 3);
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  fault::ScopedFault armed("fileio.read.truncate");
  QueryEngine recovered;
  const auto report = recovered.LoadCheckpoint(path);
  if (report.ok()) {
    EXPECT_FALSE(report->fully_loaded());
  }
}

// ---------------------------------------------------------------------------
// Save retry: transient faults that heal within the retry budget are
// invisible to the caller (beyond the attempt count); persistent faults
// still fail after exactly kSaveAttempts tries.

int64_t g_backoff_calls = 0;  // reset per test; bumped by the fake sleeper

TEST_F(FaultInjectionTest, TransientFsyncFaultSelfHealsViaRetry) {
  g_backoff_calls = 0;
  QueryEngine::SetBackoffSleeperForTest(+[](int64_t) { ++g_backoff_calls; });
  const std::string path = TempFile("transient.ckpt");
  QueryEngine engine;
  Populate(engine, 300, 5);

  // Two fires < three attempts: the third write goes through.
  fault::Arm("fileio.fsync.transient", 2);
  QueryEngine::SaveReport report;
  const Status status = engine.SaveCheckpoint(path, &report);
  QueryEngine::SetBackoffSleeperForTest(nullptr);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(g_backoff_calls, 2);  // slept between attempts 1-2 and 2-3
  EXPECT_EQ(fault::TriggerCount("fileio.fsync.transient"), 2);
  EXPECT_TRUE(fault::Armed().empty());  // budget spent, self-disarmed

  // The checkpoint on disk is complete and loadable.
  QueryEngine recovered;
  const auto loaded = recovered.LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->fully_loaded());
}

TEST_F(FaultInjectionTest, PersistentFaultExhaustsRetriesAndFails) {
  g_backoff_calls = 0;
  QueryEngine::SetBackoffSleeperForTest(+[](int64_t) { ++g_backoff_calls; });
  const std::string path = TempFile("persistent.ckpt");
  QueryEngine engine;
  Populate(engine, 300, 5);
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  const std::string old_sum = engine.Execute("SUM eth0 0 64").value();

  ASSERT_TRUE(engine.AppendBatch("eth0", std::vector<double>(50, 4.0)).ok());
  QueryEngine::SaveReport report;
  {
    // A fire budget >= the retry limit behaves like a persistent fault.
    fault::ScopedFault armed("fileio.fsync.transient",
                             QueryEngine::kSaveAttempts);
    const Status status = engine.SaveCheckpoint(path, &report);
    EXPECT_FALSE(status.ok());
  }
  QueryEngine::SetBackoffSleeperForTest(nullptr);
  EXPECT_EQ(report.attempts, QueryEngine::kSaveAttempts);
  EXPECT_EQ(g_backoff_calls, QueryEngine::kSaveAttempts - 1);

  // Every attempt used the temp-file discipline: the old checkpoint is whole.
  QueryEngine recovered;
  const auto loaded = recovered.LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(recovered.Execute("SUM eth0 0 64").value(), old_sum);
}

TEST_F(FaultInjectionTest, SaveVerbReportsRetriedAttempts) {
  QueryEngine::SetBackoffSleeperForTest(+[](int64_t) {});
  const std::string path = TempFile("verb_retry.ckpt");
  QueryEngine engine;
  Populate(engine, 100, 9);
  fault::Arm("fileio.fsync.transient", 1);
  const auto saved = engine.Execute("SAVE " + path);
  QueryEngine::SetBackoffSleeperForTest(nullptr);
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_NE(saved->find("checkpointed 1 stream(s)"), std::string::npos)
      << *saved;
  EXPECT_NE(saved->find("after 2 attempts"), std::string::npos) << *saved;
}

TEST_F(FaultInjectionTest, KnownPointsMatchesHeaderRegistry) {
  // Every point the header documents as wired must be in the registry, and
  // the registry must be sorted (ArmFromSpec binary-searches it).
  const std::vector<std::string> known = fault::KnownPoints();
  EXPECT_TRUE(std::is_sorted(known.begin(), known.end()));
  const std::vector<std::string> expected = {
      "deadline.expire",        "fileio.fsync",
      "fileio.fsync.transient", "fileio.read.bitflip",
      "fileio.read.truncate",   "fileio.rename",
      "fileio.short_write",     "governor.oom",
      "net.accept",             "net.partition",
      "net.read.short",         "net.write.eagain",
      "repl.frame.corrupt",     "repl.subscribe",
      "wal.append.short",       "wal.fsync",
      "wal.replay.corrupt",     "wal.seal",
  };
  EXPECT_EQ(known, expected);
}

// ---------------------------------------------------------------------------
// WAL fault points (util/wal.h): a durability failure must surface as a
// typed error BEFORE the value is applied — the acked-implies-durable
// contract seen from the failure side — and the log must stay usable.

class WalFaultTest : public FaultInjectionTest {
 protected:
  std::string TempWalDir(const std::string& name) {
    return scratch_.File(name);
  }

  QueryEngine::WalConfig AlwaysConfig() {
    QueryEngine::WalConfig config;
    config.options.policy = wal::SyncPolicy::kAlways;
    return config;
  }
};

TEST_F(WalFaultTest, FsyncFailureIsTypedAndValueIsNotAcked) {
  const std::string dir = TempWalDir("wal_fsync_fault");
  QueryEngine engine;
  ASSERT_TRUE(engine.OpenWal(dir, AlwaysConfig()).ok());
  ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());

  fault::Arm("wal.fsync", 1);
  const auto refused = engine.Execute("APPEND eth0 1 2 3");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kIOError);
  // Not acked means not applied: the window is exactly as before.
  EXPECT_EQ(engine.Execute("COUNT eth0").value(), "0");

  // The budget fired once; the log keeps working and the next append lands.
  ASSERT_TRUE(engine.Execute("APPEND eth0 4 5").ok());
  EXPECT_EQ(engine.Execute("COUNT eth0").value(), "2");

  // Recovery honours the ONE-WAY invariant: every acked value survives; a
  // written-but-unacked record (the frame landed, only its fsync "failed")
  // may legally reappear as a ghost. Here it deterministically does: 3
  // ghost values + 2 acked.
  ASSERT_TRUE(engine.CloseWal().ok());
  QueryEngine recovered;
  const auto recovery = recovered.OpenWal(dir, AlwaysConfig());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_EQ(recovered.Execute("COUNT eth0").value(), "5");
}

TEST_F(WalFaultTest, FsyncFailureOverTcpIsTypedErrNotAck) {
  const std::string dir = TempWalDir("wal_fsync_tcp");
  QueryEngine engine;
  ASSERT_TRUE(engine.OpenWal(dir, AlwaysConfig()).ok());
  ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());
  const auto server = net::TcpServer::Start(engine, net::ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();
  testing_net::TcpTestClient client(server.value()->port());
  ASSERT_TRUE(client.connected());

  fault::Arm("wal.fsync", 1);
  ASSERT_TRUE(client.Send("APPEND eth0 7\n"));
  const testing_net::Reply refused = client.ReadReply();
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, "IO_ERROR") << refused.message;

  ASSERT_TRUE(client.Send("COUNT eth0\n"));
  const testing_net::Reply count = client.ReadReply();
  ASSERT_TRUE(count.ok);
  EXPECT_EQ(count.lines[0], "0");  // the refused value never entered
}

TEST_F(WalFaultTest, ShortAppendWriteIsTypedAndLogStaysUsable) {
  const std::string dir = TempWalDir("wal_short_fault");
  QueryEngine engine;
  ASSERT_TRUE(engine.OpenWal(dir, AlwaysConfig()).ok());
  ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());

  fault::Arm("wal.append.short", 1);
  const auto refused = engine.Execute("APPEND eth0 1");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kIOError);
  EXPECT_EQ(engine.Execute("COUNT eth0").value(), "0");

  // The torn half-frame was cut back out of the file: later records parse.
  ASSERT_TRUE(engine.Execute("APPEND eth0 2").ok());
  ASSERT_TRUE(engine.CloseWal().ok());
  QueryEngine recovered;
  ASSERT_TRUE(recovered.OpenWal(dir, AlwaysConfig()).ok());
  EXPECT_EQ(recovered.Execute("COUNT eth0").value(), "1");
}

TEST_F(WalFaultTest, SealFailureRefusesAppendButLogSurvives) {
  const std::string dir = TempWalDir("wal_seal_fault");
  QueryEngine::WalConfig config = AlwaysConfig();
  config.options.segment_bytes = 256;  // rotate after a handful of records
  QueryEngine engine;
  ASSERT_TRUE(engine.OpenWal(dir, config).ok());
  ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());

  fault::Arm("wal.seal", 1);
  int64_t applied = 0;
  bool saw_seal_failure = false;
  for (int i = 0; i < 64; ++i) {
    const auto appended = engine.Execute("APPEND eth0 " + std::to_string(i));
    if (appended.ok()) {
      ++applied;
    } else {
      EXPECT_EQ(appended.status().code(), StatusCode::kIOError);
      saw_seal_failure = true;
    }
  }
  EXPECT_TRUE(saw_seal_failure);
  EXPECT_GE(fault::TriggerCount("wal.seal"), 1);
  EXPECT_EQ(engine.Execute("COUNT eth0").value(), std::to_string(applied));

  // Every acked append survives recovery, seal hiccup notwithstanding.
  ASSERT_TRUE(engine.CloseWal().ok());
  QueryEngine recovered;
  const auto recovery = recovered.OpenWal(dir, config);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_EQ(recovered.Execute("COUNT eth0").value(), std::to_string(applied));
}

TEST_F(WalFaultTest, ReplayCorruptionIsCountedNeverFatal) {
  const std::string dir = TempWalDir("wal_replay_fault");
  {
    QueryEngine engine;
    ASSERT_TRUE(engine.OpenWal(dir, AlwaysConfig()).ok());
    ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());
    ASSERT_TRUE(engine.Execute("APPEND eth0 1 2 3 4").ok());
    ASSERT_TRUE(engine.CloseWal().ok());
  }
  fault::ScopedFault armed("wal.replay.corrupt");
  QueryEngine recovered;
  const auto recovery = recovered.OpenWal(dir, AlwaysConfig());
  // The injected mid-segment flip must never make recovery fail — the
  // damaged record is skipped (counted corrupt) or the tail is cut.
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_GE(fault::TriggerCount("wal.replay.corrupt"), 1);
  const auto& open = recovery.value().open;
  EXPECT_GE(open.corrupt_records + (open.tail_truncated ? 1 : 0), 1);
}

// ---------------------------------------------------------------------------
// Network fault points (src/server): accept-path failures, short reads, and
// transient write refusals must degrade a single connection, never the
// server — and a peer that vanishes mid-statement must leave no trace
// beyond its counter.

TEST_F(FaultInjectionTest, NetAcceptFaultDropsOnlyThatSocket) {
  QueryEngine engine;
  const auto server = net::TcpServer::Start(engine, net::ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();

  fault::Arm("net.accept", 1);
  testing_net::TcpTestClient dropped(server.value()->port());
  ASSERT_TRUE(dropped.connected());  // the handshake lands in the backlog
  dropped.ReadUntilEof();
  EXPECT_TRUE(dropped.eof());  // ...but the acceptor discarded the socket
  ASSERT_TRUE(testing_net::WaitFor(
      [&] { return server.value()->stats().accept_faults == 1; }));

  // The budget fired once: the very next connection is served normally.
  testing_net::TcpTestClient client(server.value()->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("LIST\n"));
  EXPECT_TRUE(client.ReadReply().ok);
  EXPECT_EQ(server.value()->stats().accepted, 1);
}

TEST_F(FaultInjectionTest, NetShortReadsStillAssembleRequests) {
  QueryEngine engine;
  const auto server = net::TcpServer::Start(engine, net::ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();
  testing_net::TcpTestClient client(server.value()->port());
  ASSERT_TRUE(client.connected());

  // The first reads trickle in one byte at a time; the parser must simply
  // wait for the newline like any other partial arrival.
  fault::Arm("net.read.short", 8);
  ASSERT_TRUE(client.Send("CREATE eth0 64 8\nCOUNT eth0\n"));
  testing_net::Reply reply = client.ReadReply();
  ASSERT_TRUE(reply.ok) << reply.code << " " << reply.message;
  reply = client.ReadReply();
  ASSERT_TRUE(reply.ok) << reply.code << " " << reply.message;
  EXPECT_EQ(reply.lines[0], "0");
  EXPECT_GE(fault::TriggerCount("net.read.short"), 1);
}

TEST_F(FaultInjectionTest, NetWriteEagainRetriesViaWritability) {
  QueryEngine engine;
  const auto server = net::TcpServer::Start(engine, net::ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();
  testing_net::TcpTestClient client(server.value()->port());
  ASSERT_TRUE(client.connected());

  // The first flush attempt reports EAGAIN; the reply must still arrive
  // whole once the loop's EPOLLOUT retry writes it.
  fault::Arm("net.write.eagain", 1);
  ASSERT_TRUE(client.Send("LIST\n"));
  const testing_net::Reply reply = client.ReadReply();
  ASSERT_TRUE(reply.ok) << reply.code << " " << reply.message;
  EXPECT_EQ(fault::TriggerCount("net.write.eagain"), 1);
}

TEST_F(FaultInjectionTest, PeerVanishingMidStatementLeaksNothing) {
  QueryEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE eth0 64 8").ok());
  const auto server = net::TcpServer::Start(engine, net::ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();
  const int64_t governor_before = governor::Used();

  {
    testing_net::TcpTestClient client(server.value()->port());
    ASSERT_TRUE(client.connected());
    // Half a statement, no newline — then the peer disappears.
    ASSERT_TRUE(client.Send("APPEND eth0 1 2 3"));
    ASSERT_TRUE(testing_net::WaitFor(
        [&] { return server.value()->stats().bytes_in > 0; }));
  }
  ASSERT_TRUE(testing_net::WaitFor(
      [&] { return server.value()->stats().dropped_mid_request == 1; }));
  ASSERT_TRUE(testing_net::WaitFor(
      [&] { return server.value()->stats().active == 0; }));

  // Nothing executed, nothing charged, nothing recorded: the half-request
  // evaporated with its connection.
  ASSERT_TRUE(testing_net::WaitFor(
      [&] { return governor::Used() == governor_before; }));
  EXPECT_EQ(server.value()->stats().statements, 0);
  EXPECT_EQ(engine.Execute("STATS eth0 APPEND").value(),
            "no statistics recorded for 'eth0' APPEND");
  EXPECT_EQ(engine.Execute("COUNT eth0").value(), "0");
}

TEST_F(FaultInjectionTest, EveryFaultArmedTogetherStillFailsCleanly) {
  const std::string path = TempFile("all_faults.ckpt");
  QueryEngine engine;
  Populate(engine, 200, 7);
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  fault::ArmFromSpec(
      "fileio.short_write,fileio.fsync,fileio.rename,"
      "fileio.read.bitflip,fileio.read.truncate");
  EXPECT_FALSE(engine.SaveCheckpoint(path).ok());
  QueryEngine recovered;
  (void)recovered.LoadCheckpoint(path);  // must not crash
  fault::DisarmAll();

  // With faults cleared, the original checkpoint is intact.
  QueryEngine clean;
  const auto report = clean.LoadCheckpoint(path);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->fully_loaded());
}

}  // namespace
}  // namespace streamhist
