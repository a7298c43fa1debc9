// TCP front-end coverage (src/server, DESIGN.md §11): the wire codec, live
// loopback round trips for both request forms, pipelining order, protocol
// error recovery vs. teardown, admission control (connection cap and
// governor budget), and the slow-reader / backpressure bound. Connections
// are driven by the blocking tcp_test_client.h helper; everything runs on
// ephemeral ports so tests parallelize.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/query_engine.h"
#include "src/server/replication.h"
#include "src/server/tcp_server.h"
#include "src/server/wire.h"
#include "src/util/fault.h"
#include "src/util/framing.h"
#include "src/util/governor.h"
#include "tcp_test_client.h"
#include "test_dir.h"

namespace streamhist {
namespace {

using testing_net::Reply;
using testing_net::TcpTestClient;
using testing_net::WaitFor;

std::string Frame(std::string_view name, const std::vector<double>& values) {
  return net::EncodeBatchAppend(name, values);
}

// ---------------------------------------------------------------------------
// Wire codec (no sockets).

TEST(WireTest, BatchFrameRoundTrips) {
  const std::vector<double> values = {1.5, -2.25, 3.0, 1e300};
  const std::string frame = net::EncodeBatchAppend("eth0", values);
  ASSERT_GE(frame.size(), net::kFrameOverheadBytes);
  EXPECT_EQ(static_cast<unsigned char>(frame[0]), net::kBatchFrameFirstByte);

  const net::FrameScan scan = net::ScanBatchFrame(frame, 1 << 20);
  ASSERT_EQ(scan.state, net::FrameScan::State::kFrame);
  EXPECT_EQ(scan.frame_bytes, frame.size());

  const auto batch = net::DecodeBatchAppend(frame);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->name, "eth0");
  EXPECT_EQ(batch->values, values);
}

TEST(WireTest, ScanNeedsMoreOnEveryPrefix) {
  const std::string frame = Frame("s", {1.0, 2.0});
  for (size_t len = 1; len < frame.size(); ++len) {
    const net::FrameScan scan =
        net::ScanBatchFrame(frame.substr(0, len), 1 << 20);
    EXPECT_EQ(scan.state, net::FrameScan::State::kNeedMore) << "len=" << len;
  }
}

TEST(WireTest, ScanRejectsBadMagicAndHostileLength) {
  std::string bad(net::kFrameHeaderBytes, '\0');
  bad[0] = static_cast<char>(net::kBatchFrameFirstByte);  // looks binary...
  EXPECT_EQ(net::ScanBatchFrame(bad, 1 << 20).state,
            net::FrameScan::State::kBad);  // ...but the magic is wrong

  // Valid magic declaring an absurd payload: rejected before buffering.
  std::string hostile = Frame("s", {1.0});
  const uint64_t huge = uint64_t{1} << 40;
  std::memcpy(hostile.data() + 8, &huge, sizeof(huge));
  const net::FrameScan scan = net::ScanBatchFrame(hostile, 1 << 20);
  EXPECT_EQ(scan.state, net::FrameScan::State::kBad);
  EXPECT_NE(scan.error.find("exceeds"), std::string::npos) << scan.error;
}

TEST(WireTest, DecodeRejectsCorruptionAndEmptyNames) {
  std::string frame = Frame("s", {4.0, 5.0});
  frame.back() = static_cast<char>(frame.back() ^ 0x01);  // break the CRC
  EXPECT_FALSE(net::DecodeBatchAppend(frame).ok());

  EXPECT_FALSE(net::DecodeBatchAppend(Frame("", {1.0})).ok());
}

TEST(WireTest, DecodeRejectsOverflowingValueCount) {
  // A CRC-valid frame whose declared count makes count * 8 wrap mod 2^64 to
  // the actual payload size. Must be a clean decode error, not a
  // std::length_error from resize(2^61) faulting the epoll worker.
  for (const uint64_t hostile :
       {uint64_t{1} << 61, (uint64_t{1} << 61) + 1, (uint64_t{1} << 63) + 2,
        std::numeric_limits<uint64_t>::max() / sizeof(double) + 1}) {
    ByteWriter payload;
    payload.PutLengthPrefixed("s");
    payload.PutU64(hostile);
    payload.PutF64(1.0);  // far fewer bytes than the count claims
    const std::string frame = WrapFrame(net::kBatchFrameMagic,
                                        net::kBatchFrameVersion,
                                        payload.bytes());
    const auto batch = net::DecodeBatchAppend(frame);
    ASSERT_FALSE(batch.ok()) << "count=" << hostile;
    EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireTest, OkResponseCountsLines) {
  const auto ok = [](std::string_view payload) {
    std::string out;
    net::AppendOkResponse(&out, payload);
    return out;
  };
  EXPECT_EQ(ok("one"), "OK 1\none\n");
  EXPECT_EQ(ok("a\nb"), "OK 2\na\nb\n");
  EXPECT_EQ(ok("a\nb\n"), "OK 2\na\nb\n");
  EXPECT_EQ(ok(""), "OK 1\n\n");
  // Appends after what the buffer already holds.
  std::string queued = "OK 1\nfirst\n";
  net::AppendOkResponse(&queued, "second");
  EXPECT_EQ(queued, "OK 1\nfirst\nOK 1\nsecond\n");
}

TEST(WireTest, ErrResponseStaysOneLine) {
  EXPECT_EQ(net::ErrResponse("PROTOCOL", "two\nlines"),
            "ERR PROTOCOL two lines\n");
  EXPECT_EQ(net::ErrResponse(Status::NotFound("no stream x")),
            "ERR NOT_FOUND no stream x\n");
}

// ---------------------------------------------------------------------------
// Live server.

class TcpServerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::DisarmAll();
    governor::SetBudgetForTest(0);
  }

  std::unique_ptr<net::TcpServer> StartServer(net::ServerOptions options = {}) {
    auto server = net::TcpServer::Start(engine_, options);
    EXPECT_TRUE(server.ok()) << server.status();
    return server.ok() ? std::move(server.value()) : nullptr;
  }

  // This test's own directory (WAL dirs); declared first so that it is
  // removed after every engine, server and hub is gone.
  TestDir scratch_;
  QueryEngine engine_;
};

TEST_F(TcpServerTest, RejectsInvalidOptions) {
  net::ServerOptions options;
  options.threads = 0;
  EXPECT_FALSE(net::TcpServer::Start(engine_, options).ok());
  options = {};
  options.max_connections = 0;
  EXPECT_FALSE(net::TcpServer::Start(engine_, options).ok());
  options = {};
  options.max_line_bytes = 1;
  EXPECT_FALSE(net::TcpServer::Start(engine_, options).ok());
}

TEST_F(TcpServerTest, TextStatementsRoundTrip) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  TcpTestClient client(server->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send("CREATE eth0 64 8\n"));
  Reply reply = client.ReadReply();
  ASSERT_TRUE(reply.ok) << reply.code << " " << reply.message;
  ASSERT_EQ(reply.lines.size(), 1u);
  EXPECT_NE(reply.lines[0].find("created"), std::string::npos);

  ASSERT_TRUE(client.Send("APPEND eth0 1 2 3\nCOUNT eth0\n"));
  reply = client.ReadReply();
  ASSERT_TRUE(reply.ok) << reply.code << " " << reply.message;
  reply = client.ReadReply();
  ASSERT_TRUE(reply.ok) << reply.code << " " << reply.message;
  ASSERT_EQ(reply.lines.size(), 1u);
  EXPECT_EQ(reply.lines[0], "3");

  // Engine errors are typed, not fatal: the connection keeps serving.
  ASSERT_TRUE(client.Send("NO_SUCH_VERB\nCOUNT eth0\n"));
  reply = client.ReadReply();
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "INVALID_ARGUMENT");
  reply = client.ReadReply();
  EXPECT_TRUE(reply.ok);

  const net::ServerStatsSnapshot stats = server->stats();
  EXPECT_EQ(stats.accepted, 1);
  EXPECT_EQ(stats.statements, 4);
  EXPECT_EQ(stats.statement_errors, 1);
  EXPECT_GT(stats.bytes_in, 0);
  EXPECT_GT(stats.bytes_out, 0);
}

TEST_F(TcpServerTest, PipelinedRepliesArriveInRequestOrder) {
  net::ServerOptions options;
  options.threads = 2;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  TcpTestClient client(server->port());
  ASSERT_TRUE(client.connected());

  std::string burst = "CREATE s 256 8\n";
  constexpr int kAppends = 50;
  for (int i = 0; i < kAppends; ++i) {
    burst += "APPEND s " + std::to_string(i) + "\nCOUNT s\n";
  }
  ASSERT_TRUE(client.Send(burst));

  Reply reply = client.ReadReply();
  ASSERT_TRUE(reply.ok) << reply.code << " " << reply.message;
  for (int i = 0; i < kAppends; ++i) {
    reply = client.ReadReply();
    ASSERT_TRUE(reply.ok) << "append " << i;
    reply = client.ReadReply();
    ASSERT_TRUE(reply.ok) << "count " << i;
    ASSERT_EQ(reply.lines.size(), 1u);
    // In-order execution makes each COUNT see exactly i+1 points.
    EXPECT_EQ(reply.lines[0], std::to_string(i + 1)) << "count " << i;
  }
}

// One write of 1,000 pipelined statements with blank and '#' lines, a CRLF
// line, an oversized line and a binary batch frame mixed in. Every reply
// arrives in request order with the bytes pinned below (the replies of the
// ostringstream-era server), both when the write arrives whole and when
// every socket read returns one byte.
TEST_F(TcpServerTest, PipelinedMixedRequestsGetByteIdenticalReplies) {
  ASSERT_TRUE(engine_.Execute("CREATE p 64 8").ok());
  ASSERT_TRUE(engine_.Execute("CREATE q 16 4").ok());
  std::string append = "APPEND p";
  for (int i = 0; i < 100; ++i) {
    append += ' ';
    append += std::to_string(0.5 * i + (i % 7) * 0.125);
  }
  ASSERT_TRUE(engine_.Execute(append).ok());

  struct Exchange {
    std::string request;
    std::string reply;  // empty: the request gets no reply
  };
  const std::vector<Exchange> statements = {
      {"SUM p 0 64\n", "OK 1\n2183.75\n"},
      {"AVG p LAST 10\n", "OK 1\n47.205\n"},
      {"POINT p 5\n", "OK 1\n20.09375\n"},
      {"QUANTILE p 0.5\n", "OK 1\n24.75\n"},
      {"COUNT p\n", "OK 1\n100\n"},
      {"sum p last 3\n", "OK 1\n144.28125\n"},
      {"SUMBOUND p 0 32\n", "OK 1\n837.125 +- 2.38484800354\n"},
      {"AVG p 3 3\n", "ERR INVALID_ARGUMENT AVG over an empty range\n"},
      {"SUM nosuch 0 1\n", "ERR NOT_FOUND no stream named 'nosuch'\n"},
      {"AvgBound p 10 20\n", "OK 1\n25.715625 +- 1.3666915248\n"},
      {"FROB p\n", "ERR INVALID_ARGUMENT unknown verb 'FROB'\n"},
      {"DISTINCT p\n", "OK 1\n98.8472691878\n"},
      {"ERROR\tp\n", "OK 1\n82.59921875\n"},
  };
  std::vector<Exchange> script;
  for (int i = 0; i < 1000; ++i) {
    if (i % 97 == 0) script.push_back({"\n", ""});
    if (i % 89 == 0) script.push_back({"   \t\n", ""});
    if (i % 101 == 0) script.push_back({"# comment\n", ""});
    if (i == 250) {
      script.push_back({std::string(100, 'x') + "\n",
                        "ERR PROTOCOL statement exceeds the 64-byte line "
                        "limit\n"});
    }
    if (i == 500) script.push_back({"COUNT p\r\n", "OK 1\n100\n"});
    if (i == 750) {
      script.push_back({Frame("q", {1.5, 2.5,
                                    std::numeric_limits<double>::quiet_NaN()}),
                        "OK 1\nappended 2 point(s), quarantined 1 "
                        "non-finite\n"});
    }
    script.push_back(statements[static_cast<size_t>(i) % statements.size()]);
  }
  std::string request;
  for (const Exchange& e : script) request += e.request;

  net::ServerOptions options;
  options.max_line_bytes = 64;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  for (const bool short_reads : {false, true}) {
    SCOPED_TRACE(short_reads ? "one byte per read" : "whole write");
    if (short_reads) fault::Arm("net.read.short");
    TcpTestClient client(server->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send(request));
    for (size_t i = 0; i < script.size(); ++i) {
      const std::string& want = script[i].reply;
      std::string got;
      for (size_t lines = std::count(want.begin(), want.end(), '\n');
           lines > 0; --lines) {
        got += client.ReadLine() + "\n";
      }
      ASSERT_EQ(got, want) << "request " << i << ": " << script[i].request;
    }
    if (short_reads) {
      EXPECT_GE(fault::TriggerCount("net.read.short"),
                static_cast<int64_t>(request.size()));
    }
    fault::Disarm("net.read.short");
  }
}

TEST_F(TcpServerTest, BlankAndCommentLinesGetNoReply) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  TcpTestClient client(server->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send("\n   \n# a comment\nCREATE s\n\nCOUNT s\n"));
  Reply reply = client.ReadReply();
  ASSERT_TRUE(reply.ok) << reply.code << " " << reply.message;
  EXPECT_NE(reply.lines[0].find("created"), std::string::npos);
  reply = client.ReadReply();
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.lines[0], "0");  // the reply after CREATE's is COUNT's
}

TEST_F(TcpServerTest, BinaryBatchAppendRoundTrips) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  TcpTestClient client(server->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send("CREATE s 4096 8\n"));
  ASSERT_TRUE(client.ReadReply().ok);

  std::vector<double> values(1000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  // Text statement pipelined after the frame: both forms share the stream.
  ASSERT_TRUE(client.Send(Frame("s", values) + "COUNT s\n"));
  Reply reply = client.ReadReply();
  ASSERT_TRUE(reply.ok) << reply.code << " " << reply.message;
  EXPECT_EQ(reply.lines[0], "appended 1000 point(s)");
  reply = client.ReadReply();
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.lines[0], "1000");

  const net::ServerStatsSnapshot stats = server->stats();
  EXPECT_EQ(stats.batch_frames, 1);
  EXPECT_EQ(stats.batch_values, 1000);
  EXPECT_EQ(stats.protocol_errors, 0);
}

TEST_F(TcpServerTest, BatchFrameQuarantinesNonFinite) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  TcpTestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("CREATE s\n"));
  ASSERT_TRUE(client.ReadReply().ok);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(client.Send(Frame("s", {1.0, nan, 2.0})));
  const Reply reply = client.ReadReply();
  ASSERT_TRUE(reply.ok) << reply.code << " " << reply.message;
  EXPECT_EQ(reply.lines[0], "appended 2 point(s), quarantined 1 non-finite");
}

TEST_F(TcpServerTest, BatchFrameForUnknownStreamIsTypedNotFatal) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  TcpTestClient client(server->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send(Frame("ghost", {1.0})));
  Reply reply = client.ReadReply();
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "NOT_FOUND");

  // A well-framed engine error keeps the connection: framing is intact.
  ASSERT_TRUE(client.Send("LIST\n"));
  reply = client.ReadReply();
  EXPECT_TRUE(reply.ok) << reply.code << " " << reply.message;
}

TEST_F(TcpServerTest, BadFrameMagicAnswersThenCloses) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  TcpTestClient client(server->port());
  ASSERT_TRUE(client.connected());

  std::string junk(net::kFrameHeaderBytes, 'x');
  junk[0] = static_cast<char>(net::kBatchFrameFirstByte);
  ASSERT_TRUE(client.Send(junk));
  const Reply reply = client.ReadReply();
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "PROTOCOL");
  client.ReadUntilEof();
  EXPECT_TRUE(client.eof());
  EXPECT_TRUE(WaitFor([&] { return server->stats().active == 0; }));
  EXPECT_EQ(server->stats().protocol_errors, 1);
}

TEST_F(TcpServerTest, CorruptFrameCrcAnswersThenCloses) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  TcpTestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("CREATE s\n"));
  ASSERT_TRUE(client.ReadReply().ok);

  std::string frame = Frame("s", {1.0, 2.0});
  frame.back() = static_cast<char>(frame.back() ^ 0x01);
  ASSERT_TRUE(client.Send(frame));
  const Reply reply = client.ReadReply();
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "PROTOCOL");
  client.ReadUntilEof();
  EXPECT_TRUE(client.eof());

  // Nothing was appended through the damaged frame.
  TcpTestClient verify(server->port());
  ASSERT_TRUE(verify.connected());
  ASSERT_TRUE(verify.Send("COUNT s\n"));
  const Reply count = verify.ReadReply();
  ASSERT_TRUE(count.ok);
  EXPECT_EQ(count.lines[0], "0");
}

TEST_F(TcpServerTest, OversizedLineIsRecoverable) {
  net::ServerOptions options;
  options.max_line_bytes = 64;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  TcpTestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("CREATE s\n"));
  ASSERT_TRUE(client.ReadReply().ok);

  // One oversized statement draws one ERR; the next line runs normally,
  // whether the oversized bytes arrived whole or trickled in.
  const std::string oversized(500, 'A');
  ASSERT_TRUE(client.Send(oversized + "\nCOUNT s\n"));
  Reply reply = client.ReadReply();
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "PROTOCOL");
  EXPECT_NE(reply.message.find("line limit"), std::string::npos);
  reply = client.ReadReply();
  ASSERT_TRUE(reply.ok) << reply.code << " " << reply.message;
  EXPECT_EQ(reply.lines[0], "0");
  EXPECT_EQ(server->stats().protocol_errors, 1);
}

TEST_F(TcpServerTest, ConnectionCapRefusesWithTypedError) {
  net::ServerOptions options;
  options.max_connections = 1;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  TcpTestClient first(server->port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.Send("LIST\n"));
  ASSERT_TRUE(first.ReadReply().ok);  // round trip: admission completed

  TcpTestClient second(server->port());
  ASSERT_TRUE(second.connected());
  const Reply refusal = second.ReadReply();
  EXPECT_FALSE(refusal.ok);
  EXPECT_EQ(refusal.code, "OVERLOADED");
  second.ReadUntilEof();
  EXPECT_TRUE(second.eof());
  EXPECT_EQ(server->stats().refused_over_cap, 1);

  // The admitted connection is unaffected, and closing it frees the slot.
  ASSERT_TRUE(first.Send("LIST\n"));
  EXPECT_TRUE(first.ReadReply().ok);
  first.Close();
  ASSERT_TRUE(WaitFor([&] { return server->stats().active == 0; }));
  TcpTestClient third(server->port());
  ASSERT_TRUE(third.connected());
  ASSERT_TRUE(third.Send("LIST\n"));
  EXPECT_TRUE(third.ReadReply().ok);
}

TEST_F(TcpServerTest, GovernorBudgetRefusesAdmission) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  // Smaller than the per-connection buffer charge, so admission must refuse.
  governor::SetBudgetForTest(governor::Used() + 1024);

  TcpTestClient refused(server->port());
  ASSERT_TRUE(refused.connected());
  const Reply refusal = refused.ReadReply();
  EXPECT_FALSE(refusal.ok);
  EXPECT_EQ(refusal.code, "RESOURCE_EXHAUSTED");
  refused.ReadUntilEof();
  EXPECT_TRUE(refused.eof());
  EXPECT_EQ(server->stats().refused_over_budget, 1);

  governor::SetBudgetForTest(0);
  TcpTestClient admitted(server->port());
  ASSERT_TRUE(admitted.connected());
  ASSERT_TRUE(admitted.Send("LIST\n"));
  EXPECT_TRUE(admitted.ReadReply().ok);
}

TEST_F(TcpServerTest, AdmissionChargeIsReleasedOnDisconnect) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const int64_t before = governor::Used();
  {
    TcpTestClient client(server->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send("LIST\n"));
    ASSERT_TRUE(client.ReadReply().ok);
    EXPECT_GT(governor::Used(), before);  // buffers are accounted
  }
  ASSERT_TRUE(WaitFor([&] { return server->stats().active == 0; }));
  ASSERT_TRUE(WaitFor([&] { return governor::Used() == before; }));
}

TEST_F(TcpServerTest, SlowReaderIsBoundedAndDisconnected) {
  net::ServerOptions options;
  options.max_line_bytes = 64;
  options.max_frame_bytes = 64;
  options.max_output_buffer = 256;      // tiny high-water mark
  options.slow_reader_timeout_ms = 100;  // fast disconnect for the test
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  TcpTestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("CREATE s\n"));
  ASSERT_TRUE(client.ReadReply().ok);

  // Every write the server attempts now fails EAGAIN, so replies queue on
  // the connection — the deterministic stand-in for a reader that stopped.
  fault::Arm("net.write.eagain");
  constexpr int kPipelined = 1500;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) burst += "COUNT s\n";
  ASSERT_TRUE(client.Send(burst));

  ASSERT_TRUE(
      WaitFor([&] { return server->stats().slow_reader_disconnects == 1; }));
  fault::DisarmAll();
  client.ReadUntilEof();
  EXPECT_TRUE(client.eof());

  const net::ServerStatsSnapshot stats = server->stats();
  // Backpressure stopped execution at the output high-water mark: far fewer
  // statements ran than were pipelined, so queued replies stayed bounded.
  EXPECT_LT(stats.statements, 200) << "backpressure did not engage";
  EXPECT_GT(stats.statements, 0);
  ASSERT_TRUE(WaitFor([&] { return server->stats().active == 0; }));
}

TEST_F(TcpServerTest, SessionDeadlineCancelsStatements) {
  net::ServerOptions options;
  options.deadline_ms = 60000;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);
  TcpTestClient client(server->port());
  ASSERT_TRUE(client.connected());

  // The injected expiry makes every per-request deadline report expired
  // at the statement boundary — the wire answer must be a typed CANCELLED.
  fault::ScopedFault expired("deadline.expire");
  ASSERT_TRUE(client.Send("LIST\n"));
  const Reply reply = client.ReadReply();
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "CANCELLED");
}

TEST_F(TcpServerTest, ShutdownDisconnectsClientsAndKeepsStats) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  TcpTestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("CREATE s\nAPPEND s 1 2\n"));
  ASSERT_TRUE(client.ReadReply().ok);
  ASSERT_TRUE(client.ReadReply().ok);

  server->Shutdown();
  client.ReadUntilEof();
  EXPECT_TRUE(client.eof());

  const net::ServerStatsSnapshot stats = server->stats();
  EXPECT_EQ(stats.statements, 2);
  EXPECT_EQ(stats.active, 0);
  const std::string summary = server->SummaryLine();
  EXPECT_NE(summary.find("2 statements"), std::string::npos) << summary;

  server->Shutdown();  // idempotent
}

TEST_F(TcpServerTest, ManyConnectionsAcrossWorkers) {
  net::ServerOptions options;
  options.threads = 3;
  auto server = StartServer(options);
  ASSERT_NE(server, nullptr);

  std::vector<std::unique_ptr<TcpTestClient>> clients;
  for (int i = 0; i < 9; ++i) {
    clients.push_back(std::make_unique<TcpTestClient>(server->port()));
    ASSERT_TRUE(clients.back()->connected());
  }
  for (int i = 0; i < 9; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    std::string script;
    script += "CREATE " + name + "\n";
    script += "APPEND " + name + " 1 2 3\n";
    script += "COUNT " + name + "\n";
    ASSERT_TRUE(clients[static_cast<size_t>(i)]->Send(script));
  }
  for (int i = 0; i < 9; ++i) {
    TcpTestClient& client = *clients[static_cast<size_t>(i)];
    ASSERT_TRUE(client.ReadReply().ok) << i;
    ASSERT_TRUE(client.ReadReply().ok) << i;
    const Reply count = client.ReadReply();
    ASSERT_TRUE(count.ok) << i;
    EXPECT_EQ(count.lines[0], "3") << i;
  }
  EXPECT_EQ(server->stats().accepted, 9);
}

// ---------------------------------------------------------------------------
// Replication wire frames (no sockets).

TEST(WireTest, ReplFramesRoundTrip) {
  const std::string subscribe = net::EncodeReplSubscribe(42);
  EXPECT_EQ(static_cast<unsigned char>(subscribe[0]),
            net::kReplSubscribeFirstByte);
  net::ReplFrameScan scan = net::ScanReplFrame(subscribe, 1 << 20);
  ASSERT_EQ(scan.state, net::FrameScan::State::kFrame);
  EXPECT_EQ(scan.magic, net::kReplSubscribeMagic);
  EXPECT_EQ(scan.frame_bytes, subscribe.size());
  const auto from = net::DecodeReplSubscribe(subscribe);
  ASSERT_TRUE(from.ok()) << from.status();
  EXPECT_EQ(from.value(), 42);

  const std::vector<net::ReplRecord> records = {{7, "alpha"}, {8, "beta"}};
  const std::string shipped = net::EncodeReplRecords(records);
  scan = net::ScanReplFrame(shipped, 1 << 20);
  ASSERT_EQ(scan.state, net::FrameScan::State::kFrame);
  EXPECT_EQ(scan.magic, net::kReplRecordsMagic);
  const auto decoded = net::DecodeReplRecords(shipped);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), records);

  const auto durable = net::DecodeReplHeartbeat(net::EncodeReplHeartbeat(99));
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_EQ(durable.value(), 99);

  const auto progress = net::DecodeReplProgress(net::EncodeReplProgress(17));
  ASSERT_TRUE(progress.ok()) << progress.status();
  EXPECT_EQ(progress.value(), 17);

  const std::string image(300, '\x5a');
  const auto bootstrap =
      net::DecodeReplBootstrap(net::EncodeReplBootstrap(123, image));
  ASSERT_TRUE(bootstrap.ok()) << bootstrap.status();
  EXPECT_EQ(bootstrap->wal_floor, 123);
  EXPECT_EQ(bootstrap->image, image);
}

TEST(WireTest, ReplScanNeedsMoreOnPrefixAndRejectsCorruption) {
  const std::vector<net::ReplRecord> records = {{1, "payload"}};
  const std::string frame = net::EncodeReplRecords(records);
  for (size_t len = 1; len < frame.size(); ++len) {
    EXPECT_EQ(net::ScanReplFrame(frame.substr(0, len), 1 << 20).state,
              net::FrameScan::State::kNeedMore)
        << "len=" << len;
  }

  std::string corrupt = frame;
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x01);
  EXPECT_FALSE(net::DecodeReplRecords(corrupt).ok());

  // Bad magic in the replication range and a hostile declared length are
  // both rejected at scan time, before any buffering.
  std::string bad(net::kFrameHeaderBytes, '\0');
  bad[0] = static_cast<char>(net::kReplSubscribeFirstByte);
  EXPECT_EQ(net::ScanReplFrame(bad, 1 << 20).state, net::FrameScan::State::kBad);
  std::string hostile = frame;
  const uint64_t huge = uint64_t{1} << 40;
  std::memcpy(hostile.data() + 8, &huge, sizeof(huge));
  EXPECT_EQ(net::ScanReplFrame(hostile, 1 << 20).state,
            net::FrameScan::State::kBad);
}

TEST(WireTest, ReplFrameCorruptFaultBreaksTheCrc) {
  // The chaos hook: an armed repl.frame.corrupt makes the encoder emit a
  // bit-flipped Records frame the replica must reject on CRC.
  const std::vector<net::ReplRecord> records = {{5, "bits"}};
  fault::ScopedFault corrupt("repl.frame.corrupt");
  const std::string frame = net::EncodeReplRecords(records);
  const net::ReplFrameScan scan = net::ScanReplFrame(frame, 1 << 20);
  ASSERT_EQ(scan.state, net::FrameScan::State::kFrame);  // framing intact
  EXPECT_FALSE(net::DecodeReplRecords(frame).ok());      // payload rotted
  EXPECT_GE(fault::TriggerCount("repl.frame.corrupt"), 1);
}

// ---------------------------------------------------------------------------
// Live replication: a primary server with a ReplicationHub feeding a
// ReplicaClient that applies into a second, read-only engine.

class ReplicationTest : public TcpServerTest {
 protected:
  std::string WalDir(const std::string& name) { return scratch_.File(name); }

  void OpenWal(QueryEngine& engine, const std::string& name,
               int64_t segment_bytes = 0) {
    QueryEngine::WalConfig config;
    if (segment_bytes > 0) config.options.segment_bytes = segment_bytes;
    const auto report = engine.OpenWal(WalDir(name), config);
    ASSERT_TRUE(report.ok()) << report.status();
  }

  // Primary = the base fixture's engine_ + a hub wired into the server.
  void StartPrimary(const std::string& wal_name, int64_t sync_ms = 0,
                    int64_t segment_bytes = 0) {
    OpenWal(engine_, wal_name, segment_bytes);
    net::HubOptions hub_options;
    hub_options.heartbeat_ms = 50;
    hub_options.sync_ms = sync_ms;
    hub_ = std::make_unique<net::ReplicationHub>(engine_, hub_options);
    if (sync_ms > 0) {
      engine_.SetReplicationBarrier(
          [this](int64_t lsn) { return hub_->WaitShipped(lsn); });
    }
    net::ServerOptions options;
    options.replication_hub = hub_.get();
    server_ = StartServer(options);
    ASSERT_NE(server_, nullptr);
  }

  void StartReplica(const std::string& wal_name) {
    OpenWal(replica_engine_, wal_name);
    net::ReplicaOptions options;
    options.primary_port = server_->port();
    options.dead_peer_timeout_ms = 2000;
    options.reconnect_initial_ms = 5;
    options.reconnect_max_ms = 50;
    auto started = net::ReplicaClient::Start(replica_engine_, options);
    ASSERT_TRUE(started.ok()) << started.status();
    replica_ = std::move(started.value());
  }

  bool ReplicaCaughtUpTo(int64_t lsn) {
    return WaitFor([&] {
      return replica_engine_.replica_status().applied_lsn >= lsn;
    });
  }

  void TearDown() override {
    replica_.reset();            // stops the subscription thread
    if (server_) server_->Shutdown();
    engine_.SetReplicationBarrier(nullptr);
    if (hub_) hub_->Stop();
    TcpServerTest::TearDown();
  }

  // Declaration order matters for destruction: the server (which hands
  // sockets to the hub) dies before the hub, and the replica client (which
  // applies into replica_engine_) dies before its engine.
  std::unique_ptr<net::ReplicationHub> hub_;
  std::unique_ptr<net::TcpServer> server_;
  QueryEngine replica_engine_;
  std::unique_ptr<net::ReplicaClient> replica_;
};

TEST_F(ReplicationTest, ReplicaFollowsRefusesWritesAndPromotes) {
  StartPrimary("repl_follow_primary");
  StartReplica("repl_follow_replica");

  TcpTestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("CREATE s 64 8\nAPPEND s 1 2 3\n"));
  ASSERT_TRUE(client.ReadReply().ok);
  ASSERT_TRUE(client.ReadReply().ok);

  ASSERT_TRUE(ReplicaCaughtUpTo(engine_.WalDurableLsn()));
  const auto count = replica_engine_.Execute("COUNT s");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count.value(), "3");

  // Writes are refused with the typed READONLY wire token...
  const auto refused = replica_engine_.Execute("APPEND s 9");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kReadOnly);

  // ...while replicated appends keep landing underneath.
  ASSERT_TRUE(client.Send("APPEND s 4 5\n"));
  ASSERT_TRUE(client.ReadReply().ok);
  ASSERT_TRUE(ReplicaCaughtUpTo(engine_.WalDurableLsn()));
  EXPECT_EQ(replica_engine_.Execute("COUNT s").value(), "5");

  const QueryEngine::ReplicaStatus status = replica_engine_.replica_status();
  EXPECT_TRUE(status.is_replica);
  EXPECT_TRUE(status.connected);
  EXPECT_EQ(status.applied_lsn, engine_.WalDurableLsn());
  EXPECT_GE(status.batches, 1);

  // PROMOTE (the verb the TCP front-end would dispatch) flips it writable
  // at the applied-LSN boundary; a second PROMOTE is idempotent.
  const auto promoted = replica_engine_.Execute("PROMOTE");
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_NE(promoted.value().find("promoted to primary at lsn"),
            std::string::npos)
      << promoted.value();
  const auto again = replica_engine_.Execute("PROMOTE");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_NE(again.value().find("already promoted"), std::string::npos);

  const auto write = replica_engine_.Execute("APPEND s 6");
  ASSERT_TRUE(write.ok()) << write.status();
  EXPECT_EQ(replica_engine_.Execute("COUNT s").value(), "6");
}

// Writes stream into the primary while one reader queries the primary and
// another the replica over their own servers. Every read gets a reply, OK or
// a typed error, and once the writes stop the replica drains to the
// primary's durable LSN: no acked write is lost on the way.
TEST_F(ReplicationTest, ReplicaDrainsToDurableLsnUnderConcurrentLoad) {
  StartPrimary("repl_drain_primary");
  StartReplica("repl_drain_replica");
  auto replica_server = net::TcpServer::Start(replica_engine_, {});
  ASSERT_TRUE(replica_server.ok()) << replica_server.status();

  TcpTestClient writer(server_->port());
  ASSERT_TRUE(writer.connected());
  ASSERT_TRUE(writer.Send("CREATE s 64 8\n"));
  ASSERT_TRUE(writer.ReadReply().ok);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> replies{0};
  std::atomic<int64_t> protocol_errors{0};
  const auto read_loop = [&](uint16_t port) {
    TcpTestClient reader(port);
    if (!reader.connected()) {
      protocol_errors.fetch_add(1);
      return;
    }
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const Reply reply = reader.Send(i % 2 == 0 ? "COUNT s\n" : "SUM s 0 1\n")
                              ? reader.ReadReply()
                              : Reply{};
      if (!reply.ok && reply.code.empty()) {
        protocol_errors.fetch_add(1);
        return;
      }
      replies.fetch_add(1);
    }
  };
  std::thread primary_reader(read_loop, server_->port());
  std::thread replica_reader(read_loop, replica_server.value()->port());

  constexpr int kBatches = 64;
  constexpr int kBatchValues = 64;
  std::vector<double> values(kBatchValues);
  int acked_batches = 0;
  for (; acked_batches < kBatches; ++acked_batches) {
    for (int i = 0; i < kBatchValues; ++i) {
      values[static_cast<size_t>(i)] = acked_batches + 0.25 * i;
    }
    if (!writer.Send(Frame("s", values)) || !writer.ReadReply().ok) break;
  }
  stop.store(true);
  primary_reader.join();
  replica_reader.join();
  ASSERT_EQ(acked_batches, kBatches);
  EXPECT_EQ(protocol_errors.load(), 0);
  EXPECT_GT(replies.load(), 0);

  // ReplicaCaughtUpTo polls for 5 s; allow the drain 30 s in all.
  const int64_t durable = engine_.WalDurableLsn();
  bool drained = false;
  for (int attempt = 0; attempt < 6 && !drained; ++attempt) {
    drained = ReplicaCaughtUpTo(durable);
  }
  ASSERT_TRUE(drained) << "replica stalled at lsn "
                       << replica_engine_.replica_status().applied_lsn
                       << " of " << durable;
  const std::string total = std::to_string(kBatches * kBatchValues);
  EXPECT_EQ(engine_.Execute("COUNT s").value(), total);
  EXPECT_EQ(replica_engine_.Execute("COUNT s").value(), total);
  replica_server.value()->Shutdown();
}

TEST_F(ReplicationTest, SubscribeWithoutAHubIsTypedAndCloses) {
  // No WAL, no hub: a Subscribe frame gets a typed refusal, not a hang.
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  TcpTestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(net::EncodeReplSubscribe(1)));
  const Reply refusal = client.ReadReply();
  EXPECT_FALSE(refusal.ok);
  EXPECT_EQ(refusal.code, "FAILED_PRECONDITION");
  client.ReadUntilEof();
  EXPECT_TRUE(client.eof());
  EXPECT_EQ(server->stats().repl_subscribes, 0);
}

TEST_F(ReplicationTest, SubscribeFaultRefusesWithOverloaded) {
  StartPrimary("repl_subscribe_fault");
  fault::Arm("repl.subscribe", 1);
  TcpTestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(net::EncodeReplSubscribe(1)));
  const Reply refusal = client.ReadReply();
  EXPECT_FALSE(refusal.ok);
  EXPECT_EQ(refusal.code, "OVERLOADED");
  client.ReadUntilEof();
  EXPECT_TRUE(client.eof());

  // The fault budget is spent: the next subscribe is adopted by the hub.
  TcpTestClient retry(server_->port());
  ASSERT_TRUE(retry.connected());
  ASSERT_TRUE(retry.Send(net::EncodeReplSubscribe(1)));
  ASSERT_TRUE(WaitFor([&] { return server_->stats().repl_subscribes == 1; }));
  ASSERT_TRUE(WaitFor([&] { return hub_->stats().subscribers == 1; }));
}

TEST_F(ReplicationTest, PartitionForcesReconnectWithResumeAtDurableLsn) {
  StartPrimary("repl_partition_primary");
  StartReplica("repl_partition_replica");

  TcpTestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("CREATE s 128 8\nAPPEND s 1 2 3\n"));
  ASSERT_TRUE(client.ReadReply().ok);
  ASSERT_TRUE(client.ReadReply().ok);
  ASSERT_TRUE(ReplicaCaughtUpTo(engine_.WalDurableLsn()));

  // One partition drops the shipping link on the primary's send path; the
  // replica must notice, reconnect with backoff, and resume from its own
  // durable LSN — re-delivered records are vetoed, not double-applied.
  fault::Arm("net.partition", 1);
  ASSERT_TRUE(WaitFor([&] {
    return replica_engine_.replica_status().reconnects >= 1;
  }));
  ASSERT_TRUE(WaitFor([&] { return hub_->stats().subscribers == 1; }));

  ASSERT_TRUE(client.Send("APPEND s 4 5 6 7\n"));
  ASSERT_TRUE(client.ReadReply().ok);
  ASSERT_TRUE(ReplicaCaughtUpTo(engine_.WalDurableLsn()));
  EXPECT_EQ(replica_engine_.Execute("COUNT s").value(), "7");
  EXPECT_EQ(replica_engine_.Execute("SUM s 0 7").value(),
            engine_.Execute("SUM s 0 7").value());
  EXPECT_GE(hub_->stats().subscribes, 2);  // original + post-partition
}

TEST_F(ReplicationTest, LateSubscriberBootstrapsFromACheckpointImage) {
  // Tiny segments so the appends seal several of them; the checkpoint then
  // truncates the sealed prefix and the primary legitimately no longer
  // retains LSN 1. A from-the-beginning subscriber must be served the
  // checkpoint image (Bootstrap handoff), never a gap.
  StartPrimary("repl_bootstrap_primary", /*sync_ms=*/0, /*segment_bytes=*/128);

  TcpTestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("CREATE s 64 8\n"));
  ASSERT_TRUE(client.ReadReply().ok);
  constexpr int kAppends = 30;
  for (int i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(client.Send("APPEND s " + std::to_string(i) + "\n"));
    ASSERT_TRUE(client.ReadReply().ok) << i;
  }
  ASSERT_TRUE(client.Send("WAL CHECKPOINT\n"));
  ASSERT_TRUE(client.ReadReply().ok);
  ASSERT_GT(engine_.WalStats().segments_deleted, 0)
      << "checkpoint truncated nothing: the bootstrap path is not exercised";

  StartReplica("repl_bootstrap_replica");
  ASSERT_TRUE(ReplicaCaughtUpTo(engine_.WalDurableLsn()));
  EXPECT_GE(replica_engine_.replica_status().bootstraps, 1);
  EXPECT_EQ(replica_engine_.Execute("COUNT s").value(),
            std::to_string(kAppends));
  EXPECT_EQ(replica_engine_.Execute("SUM s 0 " + std::to_string(kAppends))
                .value(),
            engine_.Execute("SUM s 0 " + std::to_string(kAppends)).value());
}

TEST_F(ReplicationTest, SemiSyncBarrierAcksThroughAReplica) {
  StartPrimary("repl_sync_primary", /*sync_ms=*/5000);
  StartReplica("repl_sync_replica");

  // With the barrier installed, every OK below means the hub's WaitShipped
  // returned — under a generous budget and a live replica that must happen
  // via a real ack, never a timeout.
  TcpTestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("CREATE s 64 8\n"));
  ASSERT_TRUE(client.ReadReply().ok);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Send("APPEND s " + std::to_string(i) + "\n"));
    ASSERT_TRUE(client.ReadReply().ok) << i;
  }

  ASSERT_TRUE(WaitFor([&] {
    return hub_->stats().acked_lsn >= engine_.WalDurableLsn();
  }));
  EXPECT_EQ(hub_->stats().sync_timeouts, 0);
  EXPECT_EQ(replica_engine_.WalDurableLsn(), engine_.WalDurableLsn());
}

TEST_F(ReplicationTest, SemiSyncWithNoSubscriberDegradesToAsync) {
  StartPrimary("repl_sync_alone", /*sync_ms=*/5000);
  // No replica at all: the barrier must not block writes for the budget —
  // a lone primary keeps acking at full speed (DESIGN.md §14.3).
  TcpTestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("CREATE s 64 8\nAPPEND s 1 2 3\nCOUNT s\n"));
  ASSERT_TRUE(client.ReadReply().ok);
  ASSERT_TRUE(client.ReadReply().ok);
  const Reply count = client.ReadReply();
  ASSERT_TRUE(count.ok);
  EXPECT_EQ(count.lines[0], "3");
}

TEST_F(TcpServerTest, StaleReplicaShedsEstimationWithOverloaded) {
  // Engine-level rung of the degradation ladder: a read-only replica past
  // its lag bound sheds estimation verbs with a typed OVERLOADED.
  ASSERT_TRUE(engine_.Execute("CREATE s 64 8").ok());
  engine_.SetReadOnly(true);
  engine_.SetReplicaMaxLagMs(1);
  QueryEngine::ReplicaStatus status;
  status.is_replica = true;
  status.last_contact_ms = 1;  // steady-clock epoch: hopelessly stale
  engine_.UpdateReplicaStatus(status);

  const auto shed = engine_.Execute("COUNT s");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kOverloaded);

  engine_.SetReplicaMaxLagMs(0);  // bound disabled: serves what it has
  EXPECT_TRUE(engine_.Execute("COUNT s").ok());
  engine_.SetReadOnly(false);
}

}  // namespace
}  // namespace streamhist
