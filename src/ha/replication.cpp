#include "ha/replication.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace eslurm::ha {

namespace {

struct WalBatchBody {
  std::uint64_t first_seq = 0;
  std::uint64_t last_seq = 0;
  std::string frames;
};

struct SnapshotChunkBody {
  std::uint64_t snapshot_id = 0;
  std::uint32_t index = 0;
  std::uint32_t total = 0;
  std::uint64_t last_wal_seq = 0;
  std::string data;
};

}  // namespace

void ReplicaStore::ingest_wal(const std::string& frames) {
  std::vector<WalRecord> decoded;
  if (!decode_frames(frames, &decoded)) {
    ++corrupt_segments_;
    return;  // a CRC-bad segment is discarded whole; retransmit re-ships it
  }
  for (WalRecord& record : decoded) {
    highest_seq_ = std::max(highest_seq_, record.seq);
    if (record.seq <= snapshot_seq_) continue;  // snapshot already covers it
    const std::size_t frame_bytes = encode_frame(record).size();
    const auto [it, inserted] = records_.emplace(record.seq, std::move(record));
    (void)it;
    if (inserted) wal_bytes_ += frame_bytes;
  }
}

void ReplicaStore::ingest_snapshot_chunk(std::uint64_t snapshot_id,
                                         std::uint32_t index,
                                         std::uint32_t total,
                                         std::uint64_t last_wal_seq,
                                         const std::string& data) {
  PartialSnapshot& partial = partial_[snapshot_id];
  partial.total = total;
  partial.last_wal_seq = last_wal_seq;
  partial.chunks[index] = data;
  if (partial.chunks.size() < partial.total) return;

  // Complete: install, prune covered records, drop stale partials.
  std::string image;
  for (auto& [i, chunk] : partial.chunks) {
    (void)i;
    image.append(chunk);
  }
  snapshot_ = std::move(image);
  snapshot_seq_ = partial.last_wal_seq;
  has_snapshot_ = true;
  auto it = records_.begin();
  while (it != records_.end() && it->first <= snapshot_seq_)
    it = records_.erase(it);
  partial_.erase(partial_.begin(), partial_.upper_bound(snapshot_id));
}

void ReplicaStore::clear() {
  records_.clear();
  wal_bytes_ = 0;
  highest_seq_ = 0;
  snapshot_.clear();
  snapshot_seq_ = 0;
  has_snapshot_ = false;
  partial_.clear();
}

HaReplicator::HaReplicator(sim::Engine& engine, net::Network& network,
                           HaOptions options, Rng rng)
    : engine_(engine),
      transport_(network, std::move(rng), net::TransportOptions{}, "ha"),
      options_(options) {
  if (auto* t = engine_.telemetry()) {
    batches_counter_ = &t->metrics.counter("ha.replication.batches_acked");
    degraded_counter_ = &t->metrics.counter("ha.replication.degraded");
    snapshot_counter_ = &t->metrics.counter("ha.replication.snapshots");
    lag_gauge_ = &t->metrics.gauge("ha.replication.lag_seq");
  }
  // The stream only ever targets the current standby; a frame that lands
  // on any other node (a former standby) is acked and ignored.
  network.register_handler(kMsgWalReplicate, [this](net::NodeId self, const net::Message& msg) {
    if (self != standby_) return;
    const auto& body = msg.body<WalBatchBody>();
    store_.ingest_wal(body.frames);
  });
  network.register_handler(kMsgSnapshotChunk, [this](net::NodeId self, const net::Message& msg) {
    if (self != standby_) return;
    const auto& body = msg.body<SnapshotChunkBody>();
    store_.ingest_snapshot_chunk(body.snapshot_id, body.index, body.total, body.last_wal_seq,
                                 body.data);
  });
}

HaReplicator::~HaReplicator() {
  transport_.network().unregister_handler(kMsgWalReplicate);
  transport_.network().unregister_handler(kMsgSnapshotChunk);
}

void HaReplicator::set_endpoints(net::NodeId master, net::NodeId standby) {
  master_ = master;
  standby_ = standby;
}

void HaReplicator::replicate(std::string frames, std::uint64_t first_seq,
                             std::uint64_t last_seq,
                             std::function<void(bool)> done) {
  if (!has_standby()) {
    // Solo mode (standby dead or not yet adopted): local commit only.
    // Still asynchronous so callers never observe re-entrant commits.
    ++degraded_commits_;
    if (degraded_counter_) degraded_counter_->inc();
    engine_.schedule_after(0, [done = std::move(done)] {
      if (done) done(true);
    });
    return;
  }
  QueueItem item;
  item.msg.type = kMsgWalReplicate;
  item.msg.bytes = 64 + frames.size();
  item.msg.payload = WalBatchBody{first_seq, last_seq, std::move(frames)};
  item.last_seq = last_seq;
  item.done = std::move(done);
  last_enqueued_seq_ = last_seq;
  queue_.push_back(std::move(item));
  if (lag_gauge_)
    lag_gauge_->set(static_cast<double>(last_enqueued_seq_ - acked_seq_));
  pump();
}

void HaReplicator::replicate_snapshot(std::string image,
                                      std::uint64_t snapshot_id,
                                      std::uint64_t last_wal_seq,
                                      std::function<void(bool)> done) {
  if (!has_standby()) {
    engine_.schedule_after(0, [done = std::move(done)] {
      if (done) done(true);
    });
    return;
  }
  const std::size_t chunk_size = std::max<std::size_t>(options_.snapshot_chunk_bytes, 1);
  const auto total = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, (image.size() + chunk_size - 1) / chunk_size));
  // Any chunk failing permanently poisons the push: the final `done`
  // must not report an installable snapshot the standby cannot assemble.
  auto failed = std::make_shared<bool>(false);
  for (std::uint32_t i = 0; i < total; ++i) {
    const std::size_t offset = static_cast<std::size_t>(i) * chunk_size;
    SnapshotChunkBody body;
    body.snapshot_id = snapshot_id;
    body.index = i;
    body.total = total;
    body.last_wal_seq = last_wal_seq;
    body.data = image.substr(offset, chunk_size);
    QueueItem item;
    item.msg.type = kMsgSnapshotChunk;
    item.msg.bytes = 64 + body.data.size();
    item.msg.payload = std::move(body);
    item.fail_flag = failed;
    if (i + 1 == total) item.done = std::move(done);
    queue_.push_back(std::move(item));
  }
  ++snapshot_pushes_;
  if (snapshot_counter_) snapshot_counter_->inc();
  pump();
}

void HaReplicator::pump() {
  if (busy_ || queue_.empty() || !has_standby()) return;
  busy_ = true;
  QueueItem item = std::move(queue_.front());
  queue_.pop_front();
  const std::uint64_t epoch = epoch_;
  const std::uint64_t last_seq = item.last_seq;
  auto fail_flag = item.fail_flag;
  auto done = std::move(item.done);
  transport_.send(
      master_, standby_, std::move(item.msg), options_.replication_timeout,
      [this, epoch, last_seq, fail_flag, done = std::move(done)](bool ok) {
        if (epoch != epoch_) return;  // aborted by a crash; drop silently
        if (last_seq > 0) {
          // WAL batch: ack advances the watermark; a permanent failure
          // commits degraded (standby presumed dead, availability wins).
          if (ok) {
            acked_seq_ = std::max(acked_seq_, last_seq);
            ++batches_acked_;
            if (batches_counter_) batches_counter_->inc();
          } else {
            ++degraded_commits_;
            if (degraded_counter_) degraded_counter_->inc();
          }
          if (lag_gauge_)
            lag_gauge_->set(
                static_cast<double>(last_enqueued_seq_ - acked_seq_));
          if (done) done(true);
        } else {
          if (!ok && fail_flag) *fail_flag = true;
          if (done) done(ok && !(fail_flag && *fail_flag));
        }
        busy_ = false;
        pump();
      });
}

void HaReplicator::abort_all() {
  ++epoch_;
  queue_.clear();
  busy_ = false;
}

}  // namespace eslurm::ha
