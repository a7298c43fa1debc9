// Byte identity of the text query path: the answer formatter against the
// ostream rendering it replaced, and a table of statements pinned to the
// exact replies of the ostringstream / vector<string> tokenizer engine.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/query_engine.h"

namespace streamhist {
namespace {

using namespace std::string_view_literals;

// The reference rendering: a fresh precision-12 ostringstream per number,
// which is what every numeric answer was printed with before FormatAnswer.
std::string OstreamReference(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

TEST(AnswerFormatTest, SpecialValuesMatchTheOstreamRendering) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {
      0.0,
      -0.0,
      kInf,
      -kInf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      FromBits(0x000FFFFFFFFFFFFFull),  // largest denormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      1e16,
      99999999999.95,
      999999999999.5,
      123456789012.0,
      1234567890123.0,
      1e-5,
      1e-4,
      0.0001234567890125,
      0.1,
      1.0 / 3.0,
      2183.75,
      100.0,
      -47.205,
  };
  for (const double v : specials) {
    EXPECT_EQ(FormatAnswer(v), OstreamReference(v));
  }
  EXPECT_EQ(FormatAnswer(-std::numeric_limits<double>::quiet_NaN()), "-nan");
  EXPECT_EQ(FormatAnswer(-0.0), "-0");
  EXPECT_EQ(FormatAnswer(1e16), "1e+16");
  EXPECT_EQ(FormatAnswer(99999999999.95), "99999999999.9");
}

TEST(AnswerFormatTest, RandomBitPatternsMatchTheOstreamRendering) {
  // Uniform bit patterns cover every exponent, denormals, infinities and
  // NaNs with payloads alike.
  std::mt19937_64 rng(20021);
  constexpr int kSamples = 1'000'000;
  int mismatches = 0;
  for (int i = 0; i < kSamples; ++i) {
    const double v = FromBits(rng());
    const std::string got = FormatAnswer(v);
    const std::string want = OstreamReference(v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "sample " << i << ": got " << got << ", want " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Statements run in order against one fresh engine; each reply is
// "OK <text>" or the error Status rendered by Status::ToString().
struct Exchange {
  std::string_view statement;
  std::string_view reply;
};

constexpr Exchange kScript[] = {
    {"CREATE s 16 4"sv,
     "OK created stream 's'"sv},
    {"APPEND s 1 2 3 4 5 6 7 8"sv,
     "OK appended 8 point(s)"sv},
    {"APPEND s 1 2 3 4 5 6 7 8 9 10 11 12"sv,
     "OK appended 12 point(s)"sv},
    {"COUNT s"sv,
     "OK 20"sv},
    {"SUM s 0 16"sv,
     "OK 104"sv},
    {"\tSUM s 0 16"sv,
     "OK 104"sv},
    {"SUM\ts\t0\t16"sv,
     "OK 104"sv},
    {"SUM s 0 16\r"sv,
     "OK 104"sv},
    {"SUM\vs\f2 9\r"sv,
     "OK 29.5"sv},
    {"  SUM   s  LAST   4  "sv,
     "OK 42"sv},
    {"sum s 0 16"sv,
     "OK 104"sv},
    {"Avg s last 4"sv,
     "OK 10.5"sv},
    {"avg S 0 16"sv,
     "NotFound: no stream named 'S'"sv},
    {"pOiNt s 3"sv,
     "OK 6.5"sv},
    {"count s"sv,
     "OK 20"sv},
    {"quantile s 0.5"sv,
     "OK 5"sv},
    {"Quantile s 0.25"sv,
     "OK 3"sv},
    {"sum s LaSt 2"sv,
     "OK 21"sv},
    {"SUM s LAST 100"sv,
     "OK 104"sv},
    {"sumbound s 0 16"sv,
     "OK 104 +- 0"sv},
    {"AvgBound s last 5"sv,
     "OK 9.7 +- 0.4472135955"sv},
    {"distinct s"sv,
     "OK 12.2903601117"sv},
    {"error s"sv,
     "OK 20"sv},
    {"APPEND s +1"sv,
     "OK appended 1 point(s)"sv},
    {"append s 0x1p3"sv,
     "OK appended 1 point(s)"sv},
    {"APPEND s inf"sv,
     "OK appended 0 point(s), quarantined 1 non-finite"sv},
    {"APPEND s nan"sv,
     "OK appended 0 point(s), quarantined 1 non-finite"sv},
    {"APPEND s 1e400"sv,
     "OK appended 0 point(s), quarantined 1 non-finite"sv},
    {"APPEND s 1e"sv,
     "InvalidArgument: expected a number, got '1e'"sv},
    {"APPEND s -inf NAN 2.5 -0"sv,
     "OK appended 2 point(s), quarantined 2 non-finite"sv},
    {"APPEND s 1\0" "2"sv,
     "InvalidArgument: expected a number, got '1\0" "2'"sv},
    {"APPEND s 1.00000000000000000000000000000000000000000000000000000000000000000000001"sv,
     "OK appended 1 point(s)"sv},
    {"APPEND s 1.0000000000000000000000000000000000000000000000000000000000000000000000x"sv,
     "InvalidArgument: expected a number, got '1.0000000000000000000000000000000000000000000000000000000000000000000000x'"sv},
    {"APPEND s"sv,
     "InvalidArgument: APPEND <stream> <v1> [v2 ...]"sv},
    {"count s"sv,
     "OK 25"sv},
    {"SUM s 0 16"sv,
     "OK 89.5"sv},
    {"avg s last 3"sv,
     "OK 2.5"sv},
    {"POINT s 15"sv,
     "OK 2.5"sv},
    {""sv,
     "InvalidArgument: empty statement"sv},
    {" \t\r\v\f"sv,
     "InvalidArgument: empty statement"sv},
    {"frob"sv,
     "InvalidArgument: FROB requires an argument"sv},
    {"frob s"sv,
     "InvalidArgument: unknown verb 'FROB'"sv},
    {"FROB s 1 2"sv,
     "InvalidArgument: unknown verb 'FROB'"sv},
    {"Frob nosuch"sv,
     "NotFound: no stream named 'nosuch'"sv},
    {"SUM nosuch 0 1"sv,
     "NotFound: no stream named 'nosuch'"sv},
    {"SUM s x 3"sv,
     "InvalidArgument: expected an integer, got 'x'"sv},
    {"SUM s 0 3x"sv,
     "InvalidArgument: expected an integer, got '3x'"sv},
    {"SUM s 0 99"sv,
     "OutOfRange: range [0,99) outside window of size 16"sv},
    {"SUM s -1 3"sv,
     "OutOfRange: range [-1,3) outside window of size 16"sv},
    {"SUM s 5 4"sv,
     "OutOfRange: range [5,4) outside window of size 16"sv},
    {"SUM s 1"sv,
     "InvalidArgument: expected '<lo> <hi>' or 'LAST <k>'"sv},
    {"SUM s last 2 3"sv,
     "InvalidArgument: expected '<lo> <hi>' or 'LAST <k>'"sv},
    {"SUM s LAST 0"sv,
     "InvalidArgument: LAST k requires k >= 1"sv},
    {"SUM s LAST y"sv,
     "InvalidArgument: expected an integer, got 'y'"sv},
    {"AVG s 3 3"sv,
     "InvalidArgument: AVG over an empty range"sv},
    {"avg s 0 0"sv,
     "InvalidArgument: AVG over an empty range"sv},
    {"SUMBOUND s 2 2"sv,
     "InvalidArgument: SUMBOUND over an empty range"sv},
    {"avgbound s 1 1"sv,
     "InvalidArgument: AVGBOUND over an empty range"sv},
    {"POINT s 16"sv,
     "OutOfRange: point index outside the window"sv},
    {"POINT s -1"sv,
     "OutOfRange: point index outside the window"sv},
    {"POINT s"sv,
     "InvalidArgument: POINT <stream> <i>"sv},
    {"POINT s 1 2"sv,
     "InvalidArgument: POINT <stream> <i>"sv},
    {"QUANTILE s 2"sv,
     "OutOfRange: phi must be in [0, 1]"sv},
    {"QUANTILE s abc"sv,
     "InvalidArgument: expected a number, got 'abc'"sv},
    {"STATS s bogus"sv,
     "InvalidArgument: unknown verb 'bogus'"sv},
    {"BUILD s a b c WITHIN x"sv,
     "InvalidArgument: expected an integer, got 'x'"sv},
    {"BUILD s WITHIN 0"sv,
     "InvalidArgument: WITHIN requires a positive millisecond budget"sv},
    {"build s bogus"sv,
     "InvalidArgument: BUILD <stream> [EXACT | ERROR <delta>] [WITHIN <ms>]"sv},
    {"build s exact"sv,
     "OK built exact: n=16, buckets=4, sse=53"sv},
    {"SUM s 0 16"sv,
     "OK 89.5"sv},
    {"Build s Error 0.1"sv,
     "OK built approx(delta=0.1): n=16, buckets=4, sse=53, certified sse <= 1.331 * OPT"sv},
    {"SUM s 0 16"sv,
     "OK 89.5"sv},
    {"BUILD s ERROR zz"sv,
     "InvalidArgument: expected a number, got 'zz'"sv},
    {"wal"sv,
     "FailedPrecondition: no write-ahead log is open (start with --wal-dir)"sv},
    {"WAL CHECKPOINT"sv,
     "FailedPrecondition: no write-ahead log is open (start with --wal-dir)"sv},
    {"flush s"sv,
     "OK flushed 0 stream(s)"sv},
    {"Flush"sv,
     "OK flushed 0 stream(s)"sv},
    {"FLUSH a b"sv,
     "InvalidArgument: FLUSH [<stream>]"sv},
    {"FLUSH nosuch"sv,
     "NotFound: no stream named 'nosuch'"sv},
    {"promote"sv,
     "FailedPrecondition: PROMOTE requires a replica (start with --replica-of)"sv},
    {"promote x"sv,
     "InvalidArgument: PROMOTE takes no arguments"sv},
    {"list"sv,
     "OK s"sv},
    {"LIST ignored args"sv,
     "OK s"sv},
    {"memory x"sv,
     "InvalidArgument: MEMORY takes no arguments"sv},
    {"CREATE t 8 2 9"sv,
     "InvalidArgument: CREATE <stream> [<window> [<buckets>]]"sv},
    {"create t 8 x"sv,
     "InvalidArgument: expected an integer, got 'x'"sv},
    {"create t 8 2"sv,
     "OK created stream 't'"sv},
    {"create T 8 2"sv,
     "OK created stream 'T'"sv},
    {"list"sv,
     "OK T s t"sv},
    {"drop t"sv,
     "OK dropped stream 't'"sv},
    {"DROP t"sv,
     "NotFound: no stream named 't'"sv},
    {"drop T extra"sv,
     "InvalidArgument: DROP <stream>"sv},
    {"save"sv,
     "InvalidArgument: SAVE requires an argument"sv},
    {"load"sv,
     "InvalidArgument: LOAD requires an argument"sv},
    {"DESCRIBE s"sv,
     "OK 25 points seen; window 16/16, B=4, eps=0.1, window error=53; build=approx(delta=0.1); p50=5; ~14 distinct values; 5 non-finite dropped"sv},
    {"show s"sv,
     "OK [0,4)=3.5 [4,8)=7.5 [8,11)=11 [11,16)=2.5"sv},
};

TEST(StatementTextTest, RepliesMatchThePinnedBytes) {
  QueryEngine engine;
  for (const Exchange& e : kScript) {
    const Result<std::string> result = engine.Execute(e.statement);
    const std::string reply =
        result.ok() ? "OK " + result.value() : result.status().ToString();
    EXPECT_EQ(reply, e.reply) << "statement: " << e.statement;
  }
}

}  // namespace
}  // namespace streamhist
