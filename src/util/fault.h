#ifndef STREAMHIST_UTIL_FAULT_H_
#define STREAMHIST_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace streamhist {
namespace fault {

/// Injectable failure-point registry for crash-safety testing. Production
/// code guards a simulated failure with Triggered("point.name"); tests (or
/// the STREAMHIST_FAULTS environment variable, a comma-separated list of
/// point names parsed at process start) arm points to force the failure.
///
/// A spec entry may carry a fire budget — "fileio.fsync.transient:2" fires
/// on the first two checks and then self-disarms — which is how transient
/// (self-healing) failures are modeled: a retry loop outlasts the budget.
///
/// Disabled cost: one relaxed atomic load — no string work, no locks — so
/// the hooks can stay compiled into release binaries.
///
/// Wired points are listed by KnownPoints(); ArmFromSpec warns on stderr
/// about names outside that registry (a typo would otherwise silently disarm
/// a chaos run) but still arms them, so tests can use scratch names.
///
/// Points currently wired (fileio.* in util/fileio.cc, which every
/// checkpoint save and load and the CLI's histogram files go through;
/// wal.* in util/wal.cc):
///   fileio.short_write      AtomicWriteFile persists only half the bytes,
///                           then fails before renaming (torn write / ENOSPC)
///   fileio.fsync            fsync of the temp file reports failure
///   fileio.fsync.transient  like fileio.fsync; by convention armed with a
///                           fire budget so a bounded retry loop self-heals
///   fileio.rename           the atomic rename reports failure
///   fileio.read.bitflip     ReadFileToString flips one bit of the middle byte
///                           (checkpoint loads and the WAL recovery scan;
///                           Wal::ReadTail reads past its cursor directly)
///   fileio.read.truncate    ReadFileToString drops the trailing half
///   deadline.expire         ExecContext::ShouldStop reports expiry
///                           (util/deadline.h) — cancels DP ladder rungs
///   governor.oom            governor::TryCharge refuses the charge
///                           (util/governor.h) — sheds DP scratch to the
///                           ladder's cheaper rungs
///   net.accept              the TCP acceptor drops a just-accepted socket
///                           (src/server) — simulates EMFILE-class accept
///                           failures after the kernel handshake succeeded
///   net.partition           the replication link drops mid-stream on the
///                           primary's send path (src/server) — forces the
///                           replica's reconnect-with-backoff and resume
///   net.read.short          socket reads return at most one byte per call
///                           — forces every incremental reparse path (split
///                           frame headers, byte-at-a-time statements)
///   net.write.eagain        socket writes report EAGAIN without writing —
///                           forces the buffered-output / EPOLLOUT path
///   repl.frame.corrupt      EncodeReplRecords flips one payload bit
///                           (src/server/wire) — the replica must reject the
///                           frame on CRC and resynchronize by reconnecting
///   repl.subscribe          the primary refuses a replication subscribe
///                           (src/server) — the replica retries with backoff
///   wal.append.short        a WAL record write persists only half its
///                           frame (util/wal.h) — leaves the torn-tail
///                           shape recovery must truncate
///   wal.fsync               the WAL group-commit fsync reports failure —
///                           under policy "always" the append is NOT acked
///   wal.seal                segment rotation fails; the append that
///                           triggered it errors, the log stays writable
///   wal.replay.corrupt      the recovery scan flips one bit mid-way
///                           through a segment's written frames (not its
///                           zero fill) — forces the CRC-skip /
///                           resynchronization path

namespace internal {
// Number of currently armed points; the fast path for the disabled case.
inline std::atomic<int64_t> g_armed_count{0};
bool TriggeredSlow(const char* point);
}  // namespace internal

/// Unlimited fire budget for Arm().
inline constexpr int64_t kUnlimitedFires = -1;

/// True when `point` is armed: the caller must simulate the failure. Also
/// increments the point's trigger counter (see TriggerCount) and consumes
/// one unit of a finite fire budget (self-disarming at zero).
inline bool Triggered(const char* point) {
  if (internal::g_armed_count.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  return internal::TriggeredSlow(point);
}

/// Arms a failure point for `max_fires` triggers (kUnlimitedFires: forever).
/// Re-arming an armed point resets its budget.
void Arm(const std::string& point, int64_t max_fires = kUnlimitedFires);

/// Arms every point in a comma-separated spec ("a.b,c.d:2"); empty names
/// are skipped and a ":N" suffix (N >= 1) sets the fire budget. This is the
/// STREAMHIST_FAULTS parser, exposed for tests. Unknown point names warn on
/// stderr but still arm.
void ArmFromSpec(const std::string& spec);

/// Disarms one point (no-op when not armed).
void Disarm(const std::string& point);

/// Disarms everything and resets trigger counters.
void DisarmAll();

/// How many times `point` fired while armed (for test assertions that a
/// fault path was actually exercised). Survives self-disarming.
int64_t TriggerCount(const std::string& point);

/// Currently armed point names, sorted.
std::vector<std::string> Armed();

/// The registry of point names wired into production code, sorted. Specs
/// naming anything else draw the ArmFromSpec warning.
std::vector<std::string> KnownPoints();

/// RAII arming for tests: arms on construction, disarms on destruction.
class ScopedFault {
 public:
  explicit ScopedFault(std::string point,
                       int64_t max_fires = kUnlimitedFires)
      : point_(std::move(point)) {
    Arm(point_, max_fires);
  }
  ~ScopedFault() { Disarm(point_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string point_;
};

}  // namespace fault
}  // namespace streamhist

#endif  // STREAMHIST_UTIL_FAULT_H_
