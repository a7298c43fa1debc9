#include "src/engine/wal_records.h"

#include <utility>

#include "src/util/framing.h"

namespace streamhist {
namespace walrec {
namespace {

void PutHeader(ByteWriter& out, RecordType type, std::string_view name) {
  out.PutU32(static_cast<uint32_t>(type));
  out.PutLengthPrefixed(name);
}

}  // namespace

std::string EncodeCreate(std::string_view name, const StreamConfig& config) {
  ByteWriter out;
  PutHeader(out, RecordType::kCreate, name);
  out.PutI64(config.window_size);
  out.PutI64(config.num_buckets);
  out.PutF64(config.epsilon);
  out.PutBool(config.keep_quantiles);
  out.PutF64(config.quantile_epsilon);
  out.PutBool(config.keep_distinct);
  out.PutBool(config.build_mode == WindowBuildMode::kApprox);
  out.PutF64(config.build_delta);
  return out.TakeBytes();
}

std::string EncodeAppend(std::string_view name,
                         std::span<const double> values) {
  ByteWriter out;
  PutHeader(out, RecordType::kAppend, name);
  out.PutU64(values.size());
  for (double v : values) out.PutF64(v);
  return out.TakeBytes();
}

std::string EncodeDrop(std::string_view name) {
  ByteWriter out;
  PutHeader(out, RecordType::kDrop, name);
  return out.TakeBytes();
}

Result<Record> Decode(std::string_view payload) {
  ByteReader reader(payload);
  uint32_t type = 0;
  std::string_view name;
  if (!reader.ReadU32(&type) || !reader.ReadLengthPrefixed(&name)) {
    return Status::InvalidArgument("truncated wal record payload");
  }
  Record record;
  record.name.assign(name);
  switch (static_cast<RecordType>(type)) {
    case RecordType::kCreate: {
      record.type = RecordType::kCreate;
      bool approx = false;
      if (!reader.ReadI64(&record.config.window_size) ||
          !reader.ReadI64(&record.config.num_buckets) ||
          !reader.ReadF64(&record.config.epsilon) ||
          !reader.ReadBool(&record.config.keep_quantiles) ||
          !reader.ReadF64(&record.config.quantile_epsilon) ||
          !reader.ReadBool(&record.config.keep_distinct) ||
          !reader.ReadBool(&approx) ||
          !reader.ReadF64(&record.config.build_delta)) {
        return Status::InvalidArgument("truncated wal CREATE record");
      }
      record.config.build_mode =
          approx ? WindowBuildMode::kApprox : WindowBuildMode::kExact;
      break;
    }
    case RecordType::kAppend: {
      record.type = RecordType::kAppend;
      uint64_t count = 0;
      if (!reader.ReadU64(&count) ||
          count > reader.remaining() / sizeof(double)) {
        return Status::InvalidArgument("truncated wal APPEND record");
      }
      record.values.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) {
        double v = 0;
        if (!reader.ReadF64(&v)) {
          return Status::InvalidArgument("truncated wal APPEND record");
        }
        record.values.push_back(v);
      }
      break;
    }
    case RecordType::kDrop:
      record.type = RecordType::kDrop;
      break;
    default:
      return Status::InvalidArgument("unknown wal record type " +
                                     std::to_string(type));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after wal record");
  }
  return record;
}

const char* RecordTypeName(RecordType type) {
  switch (type) {
    case RecordType::kCreate:
      return "create";
    case RecordType::kAppend:
      return "append";
    case RecordType::kDrop:
      return "drop";
  }
  return "unknown";
}

}  // namespace walrec
}  // namespace streamhist
