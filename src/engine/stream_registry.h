#ifndef STREAMHIST_ENGINE_STREAM_REGISTRY_H_
#define STREAMHIST_ENGINE_STREAM_REGISTRY_H_

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/managed_stream.h"
#include "src/util/result.h"

namespace streamhist {

class StreamRegistry;

/// Ref-counted reference to one registered stream — the safe replacement for
/// the raw `ManagedStream*` the engine used to hand out. The handle pins the
/// stream's storage: a concurrent DROP removes the stream from the registry
/// (new lookups miss), but the storage — and therefore any snapshot a reader
/// acquired through the handle — stays alive until the last in-flight handle
/// drains. That is exactly the dangling-pointer hazard `GetStream` had.
///
/// Thread contract:
///   - snapshot()/stats() are safe from any thread, lock-free.
///   - stream() mutation requires holding LockWriter() (or a context that is
///     provably single-threaded, e.g. a test or bench that owns the engine).
class StreamHandle {
 public:
  StreamHandle() = default;

  /// False for a default-constructed (empty) handle.
  explicit operator bool() const { return entry_ != nullptr; }

  /// The name the stream was registered under.
  const std::string& name() const { return entry_->name; }

  /// The live stream. Mutations require LockWriter().
  ManagedStream& stream() const { return entry_->stream; }

  /// The stream's latest published QuerySnapshot; lock-free, never null.
  std::shared_ptr<const QuerySnapshot> snapshot() const {
    return entry_->stream.AcquireSnapshot();
  }

  /// The stream's per-verb counters; safe to record into from any thread.
  /// They live as long as the registry entry and are never serialized.
  QueryStats& stats() const { return entry_->stats; }

  /// Acquires the stream's writer mutex. One writer mutates at a time;
  /// readers never take this (they read published snapshots).
  std::unique_lock<std::mutex> LockWriter() const {
    return std::unique_lock<std::mutex>(entry_->writer_mu);
  }

 private:
  friend class StreamRegistry;

  struct Entry {
    Entry(std::string entry_name, ManagedStream entry_stream)
        : name(std::move(entry_name)), stream(std::move(entry_stream)) {}
    const std::string name;
    ManagedStream stream;
    QueryStats stats;
    std::mutex writer_mu;
  };

  explicit StreamHandle(std::shared_ptr<Entry> entry)
      : entry_(std::move(entry)) {}

  std::shared_ptr<Entry> entry_;
};

/// Sharded name -> stream map: the engine's registry, built for many
/// concurrent lookups against few structural changes. Names hash onto
/// kNumShards independent shards, each guarded by its own shared_mutex —
/// lookups take one shard's lock shared, CREATE/DROP take one shard's lock
/// exclusive, and traffic on different shards never contends at all
/// (striping). Entries are handed out as ref-counted StreamHandles, so
/// erasure is deferred reclamation, not deallocation.
///
/// Not movable (the mutexes pin it); QueryEngine holds it by unique_ptr.
class StreamRegistry {
 public:
  static constexpr size_t kNumShards = 16;

  StreamRegistry() = default;
  StreamRegistry(const StreamRegistry&) = delete;
  StreamRegistry& operator=(const StreamRegistry&) = delete;

  /// The stream registered under `name`, or NotFound.
  Result<StreamHandle> Get(const std::string& name) const;

  /// Registers `stream` under `name`; InvalidArgument on a duplicate (the
  /// check and the insert are one critical section, so racing CREATEs of
  /// the same name serialize correctly).
  Status Insert(const std::string& name, ManagedStream stream);

  /// Unregisters `name`, or NotFound. The entry's storage lives on until
  /// the last outstanding StreamHandle releases it.
  Status Erase(const std::string& name);

  /// All registered names, sorted.
  std::vector<std::string> List() const;

  /// Handles to every registered stream, sorted by name. The handles pin
  /// their entries, so the caller can iterate without registry locks.
  std::vector<StreamHandle> Handles() const;

  /// Atomically-enough replaces the whole registry contents (LOAD): every
  /// shard is locked exclusively for the swap, so no lookup ever observes a
  /// half-replaced registry. In-flight handles to old entries keep working.
  void ReplaceAll(std::map<std::string, ManagedStream> streams);

  /// Number of registered streams.
  size_t size() const;

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::map<std::string, std::shared_ptr<StreamHandle::Entry>> entries;
  };

  Shard& ShardFor(const std::string& name);
  const Shard& ShardFor(const std::string& name) const;

  std::array<Shard, kNumShards> shards_;
};

}  // namespace streamhist

#endif  // STREAMHIST_ENGINE_STREAM_REGISTRY_H_
