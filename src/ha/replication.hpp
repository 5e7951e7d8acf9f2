// Streaming replication of WAL batches and snapshot chunks from the HA
// master to its standby, over a dedicated ReliableTransport.
//
// The replicator owns one transport instance (its own derived rng
// stream, so enabling HA never perturbs other subsystems' backoff
// jitter) and pushes strictly in order: one outstanding item at a time,
// the next starting only after the previous one's ack.  The commit
// watermark therefore always covers a *prefix* of the WAL -- the
// standby can never hold record N durable while missing N-1.
//
// The standby side is a ReplicaStore: decoded WAL records keyed by
// sequence number plus the last installed snapshot.  Promotion reads
// ONLY this store -- the dead master's in-memory state is never
// consulted -- which is what makes the recovery tests honest.
//
// If the standby stays unreachable past the transport's full retry
// schedule, the master commits anyway (availability over strict
// synchrony) and counts the batch as degraded; ha.replication_degraded
// makes the weakened guarantee measurable.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "ha/options.hpp"
#include "ha/wal.hpp"
#include "net/transport.hpp"

namespace eslurm::telemetry {
class Counter;
class Gauge;
}  // namespace eslurm::telemetry

namespace eslurm::ha {

/// HA protocol message types (RM range 200-299; 220+ reserved for HA).
inline constexpr net::MessageType kMsgWalReplicate = 220;
inline constexpr net::MessageType kMsgSnapshotChunk = 221;
inline constexpr net::MessageType kMsgStandbyHeartbeat = 222;

/// The standby's durable view: everything that arrived and acked.
class ReplicaStore {
 public:
  /// Stores one replicated WAL segment (concatenated CRC frames).
  /// Undecodable bytes are dropped and counted, never stored.
  void ingest_wal(const std::string& frames);
  /// Stores one snapshot chunk; when all `total` chunks of `snapshot_id`
  /// have arrived the snapshot installs and records <= `last_wal_seq`
  /// are pruned.
  void ingest_snapshot_chunk(std::uint64_t snapshot_id, std::uint32_t index,
                             std::uint32_t total, std::uint64_t last_wal_seq,
                             const std::string& data);

  bool has_snapshot() const { return has_snapshot_; }
  const std::string& snapshot() const { return snapshot_; }
  std::uint64_t snapshot_seq() const { return snapshot_seq_; }
  /// Records with seq > snapshot_seq(), ascending -- the replay input.
  const std::map<std::uint64_t, WalRecord>& records() const { return records_; }
  std::uint64_t highest_seq() const { return highest_seq_; }
  std::size_t wal_bytes() const { return wal_bytes_; }
  std::uint64_t corrupt_segments() const { return corrupt_segments_; }

  void clear();

 private:
  struct PartialSnapshot {
    std::uint64_t last_wal_seq = 0;
    std::map<std::uint32_t, std::string> chunks;
    std::uint32_t total = 0;
  };

  std::map<std::uint64_t, WalRecord> records_;
  std::size_t wal_bytes_ = 0;
  std::uint64_t highest_seq_ = 0;
  std::string snapshot_;
  std::uint64_t snapshot_seq_ = 0;
  bool has_snapshot_ = false;
  std::map<std::uint64_t, PartialSnapshot> partial_;
  std::uint64_t corrupt_segments_ = 0;
};

class HaReplicator {
 public:
  HaReplicator(sim::Engine& engine, net::Network& network, HaOptions options,
               Rng rng);
  ~HaReplicator();
  HaReplicator(const HaReplicator&) = delete;
  HaReplicator& operator=(const HaReplicator&) = delete;

  /// (Re)binds the replication stream master -> standby; only the
  /// standby ingests it.  kNoNode standby = solo mode: pushes confirm
  /// immediately (local commit only).
  void set_endpoints(net::NodeId master, net::NodeId standby);
  net::NodeId standby() const { return standby_; }
  bool has_standby() const { return standby_ != net::kNoNode; }

  /// WAL sink: ships `frames` and confirms via `done` once acked (or
  /// degraded).  Matches WriteAheadLog::Sink.
  void replicate(std::string frames, std::uint64_t first_seq,
                 std::uint64_t last_seq, std::function<void(bool)> done);
  /// Ships a full snapshot image in chunks; `done(ok)` after the final
  /// chunk acks.
  void replicate_snapshot(std::string image, std::uint64_t snapshot_id,
                          std::uint64_t last_wal_seq,
                          std::function<void(bool)> done);

  /// Aborts queued and in-flight pushes (master crash).  The standby
  /// keeps whatever already arrived.
  void abort_all();

  ReplicaStore& store() { return store_; }
  const ReplicaStore& store() const { return store_; }
  const net::ReliableTransport& transport() const { return transport_; }

  std::uint64_t batches_acked() const { return batches_acked_; }
  std::uint64_t degraded_commits() const { return degraded_commits_; }
  std::uint64_t snapshot_pushes() const { return snapshot_pushes_; }
  /// Highest WAL seq the standby has acked (the replication watermark).
  std::uint64_t acked_seq() const { return acked_seq_; }

 private:
  struct QueueItem {
    net::Message msg;
    std::uint64_t last_seq = 0;  ///< 0 for snapshot chunks
    std::function<void(bool)> done;  ///< set on the last chunk / the batch
    std::shared_ptr<bool> fail_flag;  ///< shared across one snapshot's chunks
  };

  void pump();

  sim::Engine& engine_;
  net::ReliableTransport transport_;
  HaOptions options_;
  net::NodeId master_ = net::kNoNode;
  net::NodeId standby_ = net::kNoNode;

  ReplicaStore store_;
  std::deque<QueueItem> queue_;
  bool busy_ = false;
  std::uint64_t epoch_ = 0;  ///< bumped by abort_all
  std::uint64_t next_snapshot_msg_id_ = 1;

  std::uint64_t batches_acked_ = 0;
  std::uint64_t degraded_commits_ = 0;
  std::uint64_t snapshot_pushes_ = 0;
  std::uint64_t acked_seq_ = 0;
  std::uint64_t last_enqueued_seq_ = 0;

  telemetry::Counter* batches_counter_ = nullptr;
  telemetry::Counter* degraded_counter_ = nullptr;
  telemetry::Counter* snapshot_counter_ = nullptr;
  telemetry::Gauge* lag_gauge_ = nullptr;
};

}  // namespace eslurm::ha
