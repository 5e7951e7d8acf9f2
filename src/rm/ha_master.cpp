#include "rm/ha_master.hpp"

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace eslurm::rm {

HaMaster::HaMaster(sim::Engine& engine, net::Network& network,
                   ha::HaOptions options, Rng rng)
    : engine_(engine),
      options_(options),
      wal_(engine, options),
      replicator_(engine, network, options, std::move(rng)),
      detector_(engine, network, options) {
  wal_.set_sink([this](std::string frames, std::uint64_t first_seq,
                       std::uint64_t last_seq, std::function<void(bool)> done) {
    replicator_.replicate(std::move(frames), first_seq, last_seq,
                          std::move(done));
  });
  if (auto* t = engine_.telemetry()) {
    acked_counter_ = &t->metrics.counter("ha.jobs_acked");
    snapshots_counter_ = &t->metrics.counter("ha.snapshot.taken");
    snapshot_bytes_counter_ = &t->metrics.counter("ha.snapshot.bytes");
    promotions_counter_ = &t->metrics.counter("ha.failover.promotions");
    false_alarm_counter_ = &t->metrics.counter("ha.failover.false_alarms");
    replayed_counter_ = &t->metrics.counter("ha.failover.replayed_records");
    detect_ms_ = &t->metrics.histogram(
        "ha.failover.detect_ms", {500, 1000, 2000, 5000, 10000, 30000, 60000});
    takeover_ms_ = &t->metrics.histogram(
        "ha.failover.takeover_ms",
        {500, 1000, 2000, 5000, 10000, 30000, 60000, 120000});
  }
}

void HaMaster::set_endpoints(net::NodeId master, net::NodeId standby) {
  master_ = master;
  replicator_.set_endpoints(master, standby);
}

void HaMaster::arm_detector() {
  if (replicator_.standby() == net::kNoNode) return;
  detector_.arm(replicator_.standby(), master_, [this] {
    if (on_master_dead_) on_master_dead_();
  });
}

void HaMaster::start(SimTime horizon) {
  horizon_ = horizon;
  snapshot_task_ = std::make_unique<sim::PeriodicTask>(
      engine_, options_.snapshot_interval, [this] { take_snapshot(); });
  snapshot_task_->start(options_.snapshot_interval);
  arm_detector();
  engine_.schedule_at(horizon, [this] {
    if (snapshot_task_) snapshot_task_->stop();
    detector_.disarm();
  });
}

void HaMaster::log_job_submitted(const sched::Job& job) {
  ha::ImageJob entry;
  entry.job = job;
  const sched::JobId id = job.id;
  wal_.append(ha::WalRecordType::JobSubmitted, id, 0,
              ha::encode_job_line(entry), [this, id] {
                acked_.insert(id);
                if (acked_counter_) acked_counter_->inc();
              });
}

void HaMaster::log_job_started(sched::JobId id,
                               const std::vector<net::NodeId>& nodes) {
  std::string blob;
  for (const net::NodeId node : nodes) {
    if (!blob.empty()) blob.push_back(' ');
    blob.append(std::to_string(node));
  }
  wal_.append(ha::WalRecordType::JobStarted, id, 0, std::move(blob));
}

void HaMaster::log_job_finished(sched::JobId id, sched::JobState end_state) {
  wal_.append(ha::WalRecordType::JobFinished, id,
              static_cast<std::uint64_t>(end_state), {});
}

void HaMaster::log_job_released(sched::JobId id) {
  wal_.append(ha::WalRecordType::JobReleased, id, 0, {});
}

void HaMaster::log_job_requeued(sched::JobId id) {
  wal_.append(ha::WalRecordType::JobRequeued, id, 0, {});
}

void HaMaster::log_job_node_failed(sched::JobId id, int retry_count,
                                   SimTime checkpoint_progress) {
  wal_.append(ha::WalRecordType::JobNodeFailed, id,
              static_cast<std::uint64_t>(retry_count),
              std::to_string(checkpoint_progress));
}

void HaMaster::log_node_state(net::NodeId node, bool down) {
  wal_.append(down ? ha::WalRecordType::NodeDown : ha::WalRecordType::NodeUp,
              static_cast<std::uint64_t>(node), 0, {});
}

bool HaMaster::begin_launch(sched::JobId id,
                            const std::vector<net::NodeId>& nodes) {
  return ledger_.begin_launch(id, nodes, engine_.now());
}

void HaMaster::take_snapshot() {
  if (!capture_ || snapshot_in_progress_ || wal_.halted()) return;
  snapshot_in_progress_ = true;
  ha::StateImage image = capture_();
  image.taken_at = engine_.now();
  // The image contains the effects of every record appended so far,
  // committed or not; replay on the standby starts strictly after it.
  image.last_wal_seq = wal_.appended_seq();
  std::string bytes = ha::serialize(image);
  last_snapshot_bytes_ = bytes.size();
  const std::uint64_t snapshot_id = next_snapshot_id_++;
  const std::uint64_t last_seq = image.last_wal_seq;
  const SimTime write_cost = from_seconds(
      static_cast<double>(bytes.size()) * options_.snapshot_write_us_per_byte *
      1e-6);
  // The image is held by pointer: a std::string capture would not fit
  // the engine's inline capture budget.  Not a member buffer: a crash
  // clears snapshot_in_progress_, so after a promotion a new snapshot
  // may start while this write is still pending.
  auto write = [this, image_bytes = std::make_unique<std::string>(std::move(bytes)),
                snapshot_id, last_seq] {
    if (wal_.halted()) {  // crashed while writing
      snapshot_in_progress_ = false;
      return;
    }
    const std::size_t size = image_bytes->size();
    replicator_.replicate_snapshot(
        std::move(*image_bytes), snapshot_id, last_seq, [this, last_seq, size](bool ok) {
          snapshot_in_progress_ = false;
          if (!ok) return;  // keep the WAL; the next cadence retries
          wal_.truncate_through(last_seq);
          ++snapshots_;
          if (snapshots_counter_) snapshots_counter_->inc();
          if (snapshot_bytes_counter_)
            snapshot_bytes_counter_->inc(static_cast<double>(size));
        });
  };
  static_assert(sim::EventFn::stores_inline_v<decltype(write)>);
  engine_.schedule_after(write_cost, std::move(write));
}

void HaMaster::on_master_crashed() {
  crash_time_ = engine_.now();
  wal_.lose_uncommitted();
  replicator_.abort_all();
  if (snapshot_task_) snapshot_task_->stop();
  snapshot_in_progress_ = false;
  // The detector runs on the standby and stays armed -- it is the
  // component that turns this crash into a promotion.
}

ha::StateImage HaMaster::recovered_image(std::size_t* replay_records) const {
  ha::StateImage image;
  const ha::ReplicaStore& store = replicator_.store();
  if (store.has_snapshot()) {
    if (!ha::parse_state_image(store.snapshot(), &image)) {
      ESLURM_WARN("ha: replicated snapshot failed CRC; replaying full WAL");
      image = ha::StateImage{};
    }
  }
  std::size_t replayed = 0;
  for (const auto& [seq, record] : store.records()) {
    if (seq <= image.last_wal_seq) continue;
    ha::apply(&image, record);
    ++replayed;
  }
  if (replay_records) *replay_records = replayed;
  return image;
}

SimTime HaMaster::replay_cost(std::size_t replay_records) const {
  const std::size_t snapshot_bytes = replicator_.store().snapshot().size();
  return options_.promote_overhead +
         from_seconds(static_cast<double>(snapshot_bytes) *
                      options_.snapshot_load_us_per_byte * 1e-6) +
         from_seconds(static_cast<double>(replay_records) *
                      options_.replay_us_per_record * 1e-6);
}

void HaMaster::resume_as_master(net::NodeId master) {
  master_ = master;
  // Solo until a standby (re)joins; the store's content has either been
  // consumed by a promotion or belongs to a dead standby -- either way
  // it must not replay twice.
  replicator_.set_endpoints(master, net::kNoNode);
  replicator_.store().clear();
  detector_.disarm();
  wal_.resume();
  if (snapshot_task_ && engine_.now() < horizon_)
    snapshot_task_->start(options_.snapshot_interval);
}

void HaMaster::finish_takeover(net::NodeId new_master, SimTime detection,
                               SimTime takeover,
                               std::size_t replay_records) {
  resume_as_master(new_master);
  ++promotions_;
  last_detection_ = detection;
  last_takeover_ = takeover;
  last_replay_records_ = replay_records;
  if (promotions_counter_) promotions_counter_->inc();
  if (replayed_counter_)
    replayed_counter_->inc(static_cast<double>(replay_records));
  if (detect_ms_) detect_ms_->observe(to_seconds(detection) * 1e3);
  if (takeover_ms_) takeover_ms_->observe(to_seconds(takeover) * 1e3);
}

void HaMaster::adopt_standby(net::NodeId node) {
  replicator_.set_endpoints(master_, node);
  // A full snapshot brings the fresh standby up to date (and truncates
  // the WAL backlog accumulated while solo).
  take_snapshot();
  arm_detector();
}

void HaMaster::note_false_alarm() {
  ++false_alarms_;
  if (false_alarm_counter_) false_alarm_counter_->inc();
  arm_detector();
}

}  // namespace eslurm::rm
