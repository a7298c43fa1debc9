#include "src/server/wire.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "src/util/fault.h"
#include "src/util/framing.h"

namespace streamhist {
namespace net {

std::string EncodeBatchAppend(std::string_view name,
                              std::span<const double> values) {
  ByteWriter payload;
  payload.PutLengthPrefixed(name);
  payload.PutU64(values.size());
  for (double v : values) payload.PutF64(v);
  return WrapFrame(kBatchFrameMagic, kBatchFrameVersion, payload.bytes());
}

FrameScan ScanBatchFrame(std::string_view buffer, size_t max_frame_bytes) {
  FrameScan scan;
  if (buffer.size() < kFrameHeaderBytes) return scan;  // kNeedMore
  uint32_t magic = 0;
  uint64_t payload_len = 0;
  std::memcpy(&magic, buffer.data(), sizeof(magic));
  std::memcpy(&payload_len, buffer.data() + 8, sizeof(payload_len));
  if (magic != kBatchFrameMagic) {
    scan.state = FrameScan::State::kBad;
    scan.error = "bad batch frame magic";
    return scan;
  }
  if (payload_len > max_frame_bytes) {
    scan.state = FrameScan::State::kBad;
    scan.error = "batch frame payload of " + std::to_string(payload_len) +
                 " bytes exceeds the " + std::to_string(max_frame_bytes) +
                 "-byte limit";
    return scan;
  }
  const size_t total = kFrameOverheadBytes + static_cast<size_t>(payload_len);
  if (buffer.size() < total) return scan;  // kNeedMore
  scan.state = FrameScan::State::kFrame;
  scan.frame_bytes = total;
  return scan;
}

Result<BatchAppend> DecodeBatchAppend(std::string_view frame) {
  STREAMHIST_ASSIGN_OR_RETURN(
      FrameView view, UnwrapFrame(frame, kBatchFrameMagic, "batch append"));
  if (view.version != kBatchFrameVersion) {
    return Status::InvalidArgument("unsupported batch frame version " +
                                   std::to_string(view.version));
  }
  ByteReader reader(view.payload);
  std::string_view name;
  uint64_t count = 0;
  if (!reader.ReadLengthPrefixed(&name) || !reader.ReadU64(&count)) {
    return Status::InvalidArgument("malformed batch frame payload");
  }
  if (name.empty()) {
    return Status::InvalidArgument("batch frame names no stream");
  }
  // Division form so a hostile count (e.g. 2^61) can't wrap count * 8 mod
  // 2^64 and slip past into the resize below.
  if (count > reader.remaining() / sizeof(double) ||
      reader.remaining() != count * sizeof(double)) {
    return Status::InvalidArgument(
        "batch frame declares " + std::to_string(count) + " value(s) but " +
        std::to_string(reader.remaining() / sizeof(double)) + " follow");
  }
  BatchAppend batch;
  batch.name.assign(name);
  batch.values.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (!reader.ReadF64(&batch.values[i])) {
      return Status::InvalidArgument("batch frame value underrun");
    }
  }
  return batch;
}

void AppendOkResponse(std::string* out, std::string_view payload) {
  const auto newlines = std::count(payload.begin(), payload.end(), '\n');
  size_t lines = 1 + static_cast<size_t>(newlines);
  // A payload that already ends in '\n' declared its last line there.
  if (!payload.empty() && payload.back() == '\n') --lines;
  char count[24];
  const std::to_chars_result r =
      std::to_chars(count, count + sizeof(count), lines);
  out->append("OK ");
  out->append(count, r.ptr);
  out->push_back('\n');
  out->append(payload);
  if (payload.empty() || payload.back() != '\n') out->push_back('\n');
}

std::string ErrResponse(std::string_view code, std::string_view message) {
  std::string out = "ERR ";
  out.append(code);
  out.push_back(' ');
  for (char c : message) out.push_back(c == '\n' ? ' ' : c);
  out.push_back('\n');
  return out;
}

const char* StatusCodeToken(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kIOError:
      return "IO_ERROR";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kCancelled:
      return "CANCELLED";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kReadOnly:
      return "READONLY";
    case StatusCode::kOverloaded:
      return "OVERLOADED";
  }
  return "INTERNAL";
}

std::string ErrResponse(const Status& status) {
  return ErrResponse(StatusCodeToken(status.code()), status.message());
}

namespace {

bool IsReplMagic(uint32_t magic) {
  return magic == kReplSubscribeMagic || magic == kReplRecordsMagic ||
         magic == kReplHeartbeatMagic || magic == kReplBootstrapMagic ||
         magic == kReplProgressMagic;
}

std::string EncodeLsnFrame(uint32_t magic, int64_t lsn) {
  ByteWriter payload;
  payload.PutU64(static_cast<uint64_t>(lsn));
  return WrapFrame(magic, kReplFrameVersion, payload.bytes());
}

Result<int64_t> DecodeLsnFrame(std::string_view frame, uint32_t magic,
                               const char* what) {
  STREAMHIST_ASSIGN_OR_RETURN(FrameView view, UnwrapFrame(frame, magic, what));
  if (view.version != kReplFrameVersion) {
    return Status::InvalidArgument(std::string(what) +
                                   " frame version unsupported");
  }
  ByteReader reader(view.payload);
  uint64_t lsn = 0;
  if (!reader.ReadU64(&lsn) || !reader.AtEnd()) {
    return Status::InvalidArgument(std::string(what) +
                                   " frame payload malformed");
  }
  return static_cast<int64_t>(lsn);
}

}  // namespace

std::string EncodeReplSubscribe(int64_t from_lsn) {
  return EncodeLsnFrame(kReplSubscribeMagic, from_lsn);
}

std::string EncodeReplRecords(std::span<const ReplRecord> records) {
  ByteWriter payload;
  payload.PutU64(records.size());
  for (const ReplRecord& record : records) {
    payload.PutU64(static_cast<uint64_t>(record.first));
    payload.PutLengthPrefixed(record.second);
  }
  std::string frame =
      WrapFrame(kReplRecordsMagic, kReplFrameVersion, payload.bytes());
  if (fault::Triggered("repl.frame.corrupt") &&
      frame.size() > kFrameOverheadBytes) {
    // Flip one payload bit: the CRC must catch it on the replica, which
    // drops the connection and resynchronizes by resubscribing.
    frame[kFrameHeaderBytes + (frame.size() - kFrameOverheadBytes) / 2] ^=
        0x04;
  }
  return frame;
}

std::string EncodeReplHeartbeat(int64_t durable_lsn) {
  return EncodeLsnFrame(kReplHeartbeatMagic, durable_lsn);
}

std::string EncodeReplBootstrap(int64_t wal_floor, std::string_view image) {
  ByteWriter payload;
  payload.PutU64(static_cast<uint64_t>(wal_floor));
  payload.PutLengthPrefixed(image);
  return WrapFrame(kReplBootstrapMagic, kReplFrameVersion, payload.bytes());
}

std::string EncodeReplProgress(int64_t durable_lsn) {
  return EncodeLsnFrame(kReplProgressMagic, durable_lsn);
}

ReplFrameScan ScanReplFrame(std::string_view buffer, size_t max_frame_bytes) {
  ReplFrameScan scan;
  if (buffer.size() < kFrameHeaderBytes) return scan;  // kNeedMore
  uint32_t magic = 0;
  uint64_t payload_len = 0;
  std::memcpy(&magic, buffer.data(), sizeof(magic));
  std::memcpy(&payload_len, buffer.data() + 8, sizeof(payload_len));
  if (!IsReplMagic(magic)) {
    scan.state = FrameScan::State::kBad;
    scan.error = "bad replication frame magic";
    return scan;
  }
  scan.magic = magic;
  if (payload_len > max_frame_bytes) {
    scan.state = FrameScan::State::kBad;
    scan.error = "replication frame payload of " +
                 std::to_string(payload_len) + " bytes exceeds the " +
                 std::to_string(max_frame_bytes) + "-byte limit";
    return scan;
  }
  const size_t total = kFrameOverheadBytes + static_cast<size_t>(payload_len);
  if (buffer.size() < total) return scan;  // kNeedMore
  scan.state = FrameScan::State::kFrame;
  scan.frame_bytes = total;
  return scan;
}

Result<int64_t> DecodeReplSubscribe(std::string_view frame) {
  return DecodeLsnFrame(frame, kReplSubscribeMagic, "subscribe");
}

Result<std::vector<ReplRecord>> DecodeReplRecords(std::string_view frame) {
  STREAMHIST_ASSIGN_OR_RETURN(
      FrameView view, UnwrapFrame(frame, kReplRecordsMagic, "records"));
  if (view.version != kReplFrameVersion) {
    return Status::InvalidArgument("records frame version unsupported");
  }
  ByteReader reader(view.payload);
  uint64_t count = 0;
  if (!reader.ReadU64(&count)) {
    return Status::InvalidArgument("records frame payload malformed");
  }
  // Every record costs at least 16 payload bytes (lsn + length prefix), so
  // a hostile count cannot force a huge reserve.
  if (count > reader.remaining() / 16) {
    return Status::InvalidArgument("records frame count implausible");
  }
  std::vector<ReplRecord> records;
  records.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t lsn = 0;
    std::string_view bytes;
    if (!reader.ReadU64(&lsn) || !reader.ReadLengthPrefixed(&bytes)) {
      return Status::InvalidArgument("records frame record underrun");
    }
    records.emplace_back(static_cast<int64_t>(lsn), std::string(bytes));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after records frame");
  }
  return records;
}

Result<int64_t> DecodeReplHeartbeat(std::string_view frame) {
  return DecodeLsnFrame(frame, kReplHeartbeatMagic, "heartbeat");
}

Result<ReplBootstrap> DecodeReplBootstrap(std::string_view frame) {
  STREAMHIST_ASSIGN_OR_RETURN(
      FrameView view, UnwrapFrame(frame, kReplBootstrapMagic, "bootstrap"));
  if (view.version != kReplFrameVersion) {
    return Status::InvalidArgument("bootstrap frame version unsupported");
  }
  ByteReader reader(view.payload);
  uint64_t floor = 0;
  std::string_view image;
  if (!reader.ReadU64(&floor) || !reader.ReadLengthPrefixed(&image) ||
      !reader.AtEnd()) {
    return Status::InvalidArgument("bootstrap frame payload malformed");
  }
  ReplBootstrap bootstrap;
  bootstrap.wal_floor = static_cast<int64_t>(floor);
  bootstrap.image.assign(image);
  return bootstrap;
}

Result<int64_t> DecodeReplProgress(std::string_view frame) {
  return DecodeLsnFrame(frame, kReplProgressMagic, "progress");
}

}  // namespace net
}  // namespace streamhist
