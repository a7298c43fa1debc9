#ifndef STREAMHIST_ENGINE_WAL_RECORDS_H_
#define STREAMHIST_ENGINE_WAL_RECORDS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/engine/managed_stream.h"
#include "src/util/result.h"

namespace streamhist {
namespace walrec {

/// Engine-level codec for WAL record payloads (the opaque bytes behind
/// util/wal.h's LSN framing). Every record names its target stream; the
/// type tag is a u32 so future update-stream kinds — RETRACT / delta
/// records per Ganguly's deterministic summaries — extend the enum without
/// a format break.
///
///   payload: type u32 | name (length-prefixed) | type-specific bytes
///     kCreate: the full StreamConfig (window i64, buckets i64, eps f64,
///              keep_quantiles b, quantile_eps f64, keep_distinct b,
///              build_approx b, build_delta f64). Records carry no
///              version: a record in any other layout must fail Decode's
///              truncation or trailing-bytes checks.
///     kAppend: count u64 | count x f64 raw values (non-finite values are
///              logged as-is and re-quarantined deterministically at replay)
///     kDrop:   nothing
enum class RecordType : uint32_t {
  kCreate = 1,
  kAppend = 2,
  kDrop = 3,
};

struct Record {
  RecordType type = RecordType::kAppend;
  std::string name;
  StreamConfig config;         // kCreate only
  std::vector<double> values;  // kAppend only
};

std::string EncodeCreate(std::string_view name, const StreamConfig& config);
std::string EncodeAppend(std::string_view name, std::span<const double> values);
std::string EncodeDrop(std::string_view name);

/// Decodes one payload; rejects unknown types and malformed bytes (the WAL
/// frame CRC makes these rare, but replay must never trust lengths).
Result<Record> Decode(std::string_view payload);

/// Stable lowercase name for dump output ("create", "append", "drop").
const char* RecordTypeName(RecordType type);

}  // namespace walrec
}  // namespace streamhist

#endif  // STREAMHIST_ENGINE_WAL_RECORDS_H_
