#ifndef STREAMHIST_SERVER_WIRE_H_
#define STREAMHIST_SERVER_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/result.h"

namespace streamhist {
namespace net {

/// The TCP statement protocol (DESIGN.md §11). Two request forms share one
/// connection:
///
///   1. Text: one engine statement per '\n'-terminated line — exactly the
///      console/script language. Blank lines and '#' comments get no reply.
///   2. Binary batch-APPEND: a CRC32C-checked frame (util/framing layout)
///      carrying N values for one stream; costs a single snapshot republish
///      no matter how large N is. Its first wire byte is >= 0x80, so the
///      parser can tell the two forms apart from one byte.
///
/// Every request gets exactly one reply:
///
///   OK <k>\n            then k payload lines (k >= 1)
///   ERR <CODE> <text>\n one line; <CODE> is a stable upper-snake token
///
/// Replies arrive in request order (pipelining is encouraged — that is what
/// amortizes round trips), and <text> never contains '\n'.

/// Frame magic for the binary batch-APPEND form. Little-endian on the wire,
/// so the first transmitted byte is 0xF5 — deliberately outside ASCII so no
/// text statement can alias a frame header.
inline constexpr uint32_t kBatchFrameMagic = 0x484253F5;  // "\xF5SBH"
inline constexpr uint32_t kBatchFrameVersion = 1;
inline constexpr unsigned char kBatchFrameFirstByte = 0xF5;

/// Frame layout overhead: 16-byte header (magic u32, version u32,
/// payload_len u64) plus the trailing crc32c u32 (util/framing's WrapFrame).
inline constexpr size_t kFrameHeaderBytes = 16;
inline constexpr size_t kFrameOverheadBytes = kFrameHeaderBytes + 4;

/// A decoded batch-APPEND request.
struct BatchAppend {
  std::string name;
  std::vector<double> values;
};

/// Encodes a batch-APPEND frame: WrapFrame around
///   name (u64 length + bytes) | count u64 | count x f64.
std::string EncodeBatchAppend(std::string_view name,
                              std::span<const double> values);

/// What an incremental scan of a partially-received frame concluded.
struct FrameScan {
  enum class State {
    kNeedMore,  // buffer holds a valid prefix; read more bytes
    kFrame,     // a whole frame is buffered: frame_bytes long
    kBad,       // the header is hostile (bad magic / oversized declared
                // length); `error` says why. Framing is lost — close.
  };
  State state = State::kNeedMore;
  size_t frame_bytes = 0;
  std::string error;
};

/// Scans `buffer` (which starts with kBatchFrameFirstByte) for one complete
/// batch frame without copying. Rejects declared payloads larger than
/// `max_frame_bytes` up front so a hostile length can never make the server
/// buffer unbounded input.
FrameScan ScanBatchFrame(std::string_view buffer, size_t max_frame_bytes);

/// Validates (magic, version, CRC) and decodes one complete frame.
Result<BatchAppend> DecodeBatchAppend(std::string_view frame);

/// Appends "OK <k>\n" + the payload's lines to `out` (k = line count; a
/// trailing '\n' is added when missing). An empty payload is sent as one
/// empty line. Replies go straight into the connection's output buffer.
void AppendOkResponse(std::string* out, std::string_view payload);

/// "ERR <code> <message>\n" with any newlines in `message` flattened to
/// spaces so the reply stays one line.
std::string ErrResponse(std::string_view code, std::string_view message);

/// Stable wire token for a StatusCode: kInvalidArgument -> "INVALID_ARGUMENT"
/// and so on. Protocol-level failures use codes outside this enum
/// ("PROTOCOL", "OVERLOADED").
const char* StatusCodeToken(StatusCode code);

/// Renders an error Status as its wire reply line.
std::string ErrResponse(const Status& status);

/// --- Replication frame family (DESIGN.md §14) ---
///
/// A replica opens an ordinary connection and sends one Subscribe frame;
/// once the primary accepts it the connection leaves the statement protocol
/// for good. Primary -> replica traffic is then Records / Heartbeat /
/// Bootstrap frames; replica -> primary traffic is Progress frames. All use
/// the util/framing layout (so every frame is CRC32C-checked end to end)
/// with first wire bytes 0xF6..0xFA — disjoint from text statements and
/// from the 0xF5 batch-APPEND frame, so one-byte dispatch still works.
///
///   Subscribe  replica -> primary   payload: from_lsn u64 — ship records
///              with LSN >= from_lsn. Answered with Bootstrap when that LSN
///              was already truncated by a checkpoint.
///   Records    primary -> replica   payload: count u64, then count x
///              (lsn u64 | length-prefixed record bytes). Only fsynced
///              records are ever shipped.
///   Heartbeat  primary -> replica   payload: durable_lsn u64 — liveness
///              plus the lag numerator when no records are flowing.
///   Bootstrap  primary -> replica   payload: wal_floor u64 |
///              length-prefixed SHCP checkpoint image reflecting every LSN
///              <= wal_floor; shipping resumes at wal_floor + 1.
///   Progress   replica -> primary   payload: durable_lsn u64 — the highest
///              LSN the replica has fsynced into its own log (sent only
///              after that fsync, which is what makes semi-sync acks mean
///              replica-durable).

inline constexpr uint32_t kReplSubscribeMagic = 0x485253F6;   // "\xF6SRH"
inline constexpr uint32_t kReplRecordsMagic = 0x485253F7;     // "\xF7SRH"
inline constexpr uint32_t kReplHeartbeatMagic = 0x485253F8;   // "\xF8SRH"
inline constexpr uint32_t kReplBootstrapMagic = 0x485253F9;   // "\xF9SRH"
inline constexpr uint32_t kReplProgressMagic = 0x485253FA;    // "\xFASRH"
inline constexpr uint32_t kReplFrameVersion = 1;
inline constexpr unsigned char kReplSubscribeFirstByte = 0xF6;

/// One shipped record: the primary's LSN plus the opaque WAL payload
/// (src/engine/wal_records bytes — this layer never decodes them).
using ReplRecord = std::pair<int64_t, std::string>;

/// A decoded Bootstrap frame.
struct ReplBootstrap {
  int64_t wal_floor = 0;
  std::string image;  // SHCP checkpoint container bytes
};

std::string EncodeReplSubscribe(int64_t from_lsn);
/// Fault point `repl.frame.corrupt` flips one payload bit of the encoded
/// frame — the receiver must reject it on CRC and resynchronize by
/// reconnecting rather than applying garbage.
std::string EncodeReplRecords(std::span<const ReplRecord> records);
std::string EncodeReplHeartbeat(int64_t durable_lsn);
std::string EncodeReplBootstrap(int64_t wal_floor, std::string_view image);
std::string EncodeReplProgress(int64_t durable_lsn);

/// Incremental scan for one complete replication-family frame. Same
/// contract as ScanBatchFrame (kNeedMore / kFrame / kBad) plus the frame's
/// magic so the caller can dispatch before decoding.
struct ReplFrameScan {
  FrameScan::State state = FrameScan::State::kNeedMore;
  uint32_t magic = 0;
  size_t frame_bytes = 0;
  std::string error;
};
ReplFrameScan ScanReplFrame(std::string_view buffer, size_t max_frame_bytes);

Result<int64_t> DecodeReplSubscribe(std::string_view frame);
Result<std::vector<ReplRecord>> DecodeReplRecords(std::string_view frame);
Result<int64_t> DecodeReplHeartbeat(std::string_view frame);
Result<ReplBootstrap> DecodeReplBootstrap(std::string_view frame);
Result<int64_t> DecodeReplProgress(std::string_view frame);

}  // namespace net
}  // namespace streamhist

#endif  // STREAMHIST_SERVER_WIRE_H_
