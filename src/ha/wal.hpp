// Append-only write-ahead log of RM state transitions.
//
// Every job/node state change on the HA master appends one record; the
// log group-commits in simulated time (a batch flushes when it reaches
// `group_commit_bytes` or `group_commit_interval` after its first
// append, whichever comes first) and hands each flushed batch to a sink
// -- in production the replication stream to the standby.  A record is
// *committed* only when its batch's sink confirms (for the HA master:
// the standby acked the batch), and only then do commit callbacks run;
// user-visible acknowledgements (job-submission acks) hang off those
// callbacks, so an acked job is by construction recoverable from the
// standby.
//
// Records travel as CRC32-framed byte strings ([length][crc][payload]),
// the same encoding the standby stores and the promotion replay decodes,
// so a corrupted or truncated frame is detected rather than silently
// replayed.  Periodic snapshots bound the log: once a snapshot covering
// sequence numbers <= S is installed at the standby, truncate_through(S)
// drops those records from the retained log.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "ha/options.hpp"
#include "sim/engine.hpp"

namespace eslurm::telemetry {
class Counter;
class Histogram;
}  // namespace eslurm::telemetry

namespace eslurm::ha {

/// CRC32 (IEEE, reflected 0xEDB88320) over `size` bytes.
std::uint32_t crc32(const void* data, std::size_t size);

enum class WalRecordType : std::uint8_t {
  JobSubmitted = 1,  ///< blob: serialized job (snapshot job-line format)
  JobStarted = 2,    ///< blob: space-separated allocated node ids
  JobFinished = 3,   ///< aux: terminal sched::JobState value
  JobReleased = 4,   ///< resources reclaimed; the job leaves live state
  JobRequeued = 5,   ///< launch failed; job back at the queue head
  NodeDown = 6,      ///< id: node the master now believes dead
  NodeUp = 7,        ///< id: node back in service
  SnapshotMark = 8,  ///< aux: last WAL seq covered by snapshot `id`
  /// A node death killed the job's allocation and it re-entered the
  /// queue under its retry budget.  aux: retry count after the failure;
  /// blob: durable checkpoint progress (decimal SimTime).  Promotion
  /// replay preserves both, so a failover never resets a retry budget.
  JobNodeFailed = 9,
};

struct WalRecord {
  std::uint64_t seq = 0;   ///< global append order, starts at 1
  SimTime time = 0;        ///< sim time of the append
  WalRecordType type = WalRecordType::JobSubmitted;
  std::uint64_t id = 0;    ///< job id or node id
  std::uint64_t aux = 0;   ///< type-specific scalar
  std::string blob;        ///< type-specific body
};

/// [u32 length][u32 crc32(payload)][payload] with a text payload; frames
/// concatenate into segments.  decode_frames appends the decoded records
/// to `out` and returns false on any length/CRC/parse violation (the
/// already-decoded prefix stays in `out`).
std::string encode_frame(const WalRecord& record);
bool decode_frames(const std::string& bytes, std::vector<WalRecord>* out);

class WriteAheadLog {
 public:
  using CommitFn = std::function<void()>;
  /// Ships one flushed batch toward durability; must invoke `done`
  /// exactly once (ok=false still commits, counted as degraded by the
  /// caller).  Without a sink, batches commit at flush -- a local-disk
  /// log with no replica.
  using Sink = std::function<void(std::string frames, std::uint64_t first_seq,
                                  std::uint64_t last_seq,
                                  std::function<void(bool)> done)>;

  WriteAheadLog(sim::Engine& engine, HaOptions options);
  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Appends one record to the open batch; returns its sequence number.
  /// `on_commit` runs when the record's batch is confirmed durable.
  std::uint64_t append(WalRecordType type, std::uint64_t id,
                       std::uint64_t aux = 0, std::string blob = {},
                       CommitFn on_commit = {});

  /// Flushes the open batch now (group-commit timer does this normally).
  void flush();

  /// Drops retained (committed) records with seq <= `seq`: an installed
  /// snapshot now covers them.
  void truncate_through(std::uint64_t seq);

  struct LossReport {
    std::uint64_t records = 0;
    std::uint64_t job_submits = 0;  ///< JobSubmitted among the lost
  };
  /// Crash at the master: the open batch and every flushed-but-unacked
  /// batch die with it (the standby may still hold copies -- that is the
  /// lost-ack case promotion recovers).  Halts the log; resume() re-arms.
  LossReport lose_uncommitted();
  void resume();
  bool halted() const { return halted_; }

  std::uint64_t appended_seq() const { return next_seq_ - 1; }
  std::uint64_t committed_seq() const { return committed_seq_; }
  std::uint64_t appended_records() const { return appended_records_; }
  std::uint64_t committed_records() const { return committed_records_; }
  std::uint64_t batches_committed() const { return batches_committed_; }
  /// Bytes / records of the retained (committed, not yet truncated) log
  /// -- the replay debt a crash right now would impose.
  std::size_t retained_bytes() const { return retained_bytes_; }
  std::uint64_t retained_records() const { return retained_records_; }
  std::uint64_t truncated_records() const { return truncated_records_; }

 private:
  struct Batch {
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = 0;
    std::uint64_t records = 0;
    std::uint64_t submits = 0;
    SimTime opened_at = 0;
    std::string frames;
    std::vector<CommitFn> callbacks;
  };

  void arm_flush_timer();
  void batch_confirmed(Batch batch);

  sim::Engine& engine_;
  HaOptions options_;
  Sink sink_;

  std::uint64_t next_seq_ = 1;
  Batch open_;
  bool open_active_ = false;
  sim::EventId flush_event_ = sim::kInvalidEvent;
  /// Bumped on lose_uncommitted(); in-flight sink confirmations from a
  /// previous life are ignored.
  std::uint64_t epoch_ = 0;
  bool halted_ = false;

  std::uint64_t committed_seq_ = 0;
  std::uint64_t inflight_records_ = 0;
  std::uint64_t inflight_submits_ = 0;
  std::uint64_t appended_records_ = 0;
  std::uint64_t committed_records_ = 0;
  std::uint64_t batches_committed_ = 0;
  std::size_t retained_bytes_ = 0;
  std::uint64_t retained_records_ = 0;
  std::uint64_t truncated_records_ = 0;
  /// Committed segments (last_seq, bytes, records) for truncation.
  std::deque<std::tuple<std::uint64_t, std::size_t, std::uint64_t>> retained_;

  telemetry::Counter* records_counter_ = nullptr;
  telemetry::Counter* batches_counter_ = nullptr;
  telemetry::Counter* bytes_counter_ = nullptr;
  telemetry::Counter* truncated_counter_ = nullptr;
  telemetry::Counter* lost_counter_ = nullptr;
  telemetry::Histogram* commit_latency_ms_ = nullptr;
};

}  // namespace eslurm::ha
