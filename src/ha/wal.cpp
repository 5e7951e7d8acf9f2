#include "ha/wal.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "telemetry/telemetry.hpp"

namespace eslurm::ha {

namespace {

struct Crc32Table {
  std::uint32_t entries[256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      entries[i] = c;
    }
  }
};

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t get_u32(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  return v;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const Crc32Table table;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = table.entries[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string encode_frame(const WalRecord& record) {
  char head[128];
  const int n = std::snprintf(
      head, sizeof(head), "%" PRIu64 " %" PRId64 " %u %" PRIu64 " %" PRIu64 " %zu|",
      record.seq, static_cast<std::int64_t>(record.time),
      static_cast<unsigned>(record.type), record.id, record.aux,
      record.blob.size());
  std::string payload;
  payload.reserve(static_cast<std::size_t>(n) + record.blob.size());
  payload.append(head, static_cast<std::size_t>(n));
  payload.append(record.blob);

  std::string frame;
  frame.reserve(8 + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, crc32(payload.data(), payload.size()));
  frame.append(payload);
  return frame;
}

bool decode_frames(const std::string& bytes, std::vector<WalRecord>* out) {
  std::size_t at = 0;
  while (at < bytes.size()) {
    if (bytes.size() - at < 8) return false;  // truncated header
    const std::uint32_t length = get_u32(bytes, at);
    const std::uint32_t crc = get_u32(bytes, at + 4);
    at += 8;
    if (bytes.size() - at < length) return false;  // truncated payload
    if (crc32(bytes.data() + at, length) != crc) return false;

    WalRecord record;
    std::int64_t time = 0;
    unsigned type = 0;
    std::size_t blob_len = 0;
    int consumed = 0;
    // The payload is not NUL-terminated inside `bytes`; copy the bounded
    // text head out before scanning.
    char head[160];
    const std::size_t head_len =
        std::min<std::size_t>(length, sizeof(head) - 1);
    std::memcpy(head, bytes.data() + at, head_len);
    head[head_len] = '\0';
    if (std::sscanf(head,
                    "%" SCNu64 " %" SCNd64 " %u %" SCNu64 " %" SCNu64 " %zu|%n",
                    &record.seq, &time, &type, &record.id, &record.aux,
                    &blob_len, &consumed) != 6 ||
        consumed <= 0)
      return false;
    record.time = time;
    record.type = static_cast<WalRecordType>(type);
    const std::size_t head_size = static_cast<std::size_t>(consumed);
    if (head_size + blob_len != length) return false;
    record.blob.assign(bytes, at + head_size, blob_len);
    at += length;
    out->push_back(std::move(record));
  }
  return true;
}

WriteAheadLog::WriteAheadLog(sim::Engine& engine, HaOptions options)
    : engine_(engine), options_(options) {
  if (auto* t = engine_.telemetry()) {
    records_counter_ = &t->metrics.counter("ha.wal.records");
    batches_counter_ = &t->metrics.counter("ha.wal.batches");
    bytes_counter_ = &t->metrics.counter("ha.wal.bytes");
    truncated_counter_ = &t->metrics.counter("ha.wal.truncated_records");
    lost_counter_ = &t->metrics.counter("ha.wal.lost_records");
    commit_latency_ms_ = &t->metrics.histogram(
        "ha.wal.commit_latency_ms",
        {1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000});
  }
}

WriteAheadLog::~WriteAheadLog() {
  if (flush_event_ != sim::kInvalidEvent) engine_.cancel(flush_event_);
}

void WriteAheadLog::arm_flush_timer() {
  if (halted_ || flush_event_ != sim::kInvalidEvent) return;
  flush_event_ =
      engine_.schedule_after(options_.group_commit_interval, [this] {
        flush_event_ = sim::kInvalidEvent;
        flush();
      });
}

std::uint64_t WriteAheadLog::append(WalRecordType type, std::uint64_t id,
                                    std::uint64_t aux, std::string blob,
                                    CommitFn on_commit) {
  WalRecord record;
  record.seq = next_seq_++;
  record.time = engine_.now();
  record.type = type;
  record.id = id;
  record.aux = aux;
  record.blob = std::move(blob);

  if (!open_active_) {
    open_ = Batch{};
    open_.first_seq = record.seq;
    open_.opened_at = engine_.now();
    open_active_ = true;
  }
  open_.last_seq = record.seq;
  ++open_.records;
  if (type == WalRecordType::JobSubmitted) ++open_.submits;
  open_.frames.append(encode_frame(record));
  if (on_commit) open_.callbacks.push_back(std::move(on_commit));

  ++appended_records_;
  if (records_counter_) records_counter_->inc();

  if (open_.frames.size() >= options_.group_commit_bytes) {
    flush();
  } else {
    arm_flush_timer();
  }
  return record.seq;
}

void WriteAheadLog::flush() {
  if (halted_ || !open_active_) return;
  if (flush_event_ != sim::kInvalidEvent) {
    engine_.cancel(flush_event_);
    flush_event_ = sim::kInvalidEvent;
  }
  Batch batch = std::move(open_);
  open_ = Batch{};
  open_active_ = false;

  if (!sink_) {
    batch_confirmed(std::move(batch));
    return;
  }
  const std::uint64_t epoch = epoch_;
  inflight_records_ += batch.records;
  inflight_submits_ += batch.submits;
  // The sink consumes the frame bytes; keep a copy for the retained log.
  std::string frames = batch.frames;
  const std::uint64_t first = batch.first_seq;
  const std::uint64_t last = batch.last_seq;
  auto done = [this, epoch, batch = std::move(batch)](bool /*ok*/) mutable {
    // A confirmation racing a crash belongs to the dead master; the
    // standby's copy (if any) is what promotion recovers.
    if (epoch != epoch_) return;
    inflight_records_ -= batch.records;
    inflight_submits_ -= batch.submits;
    batch_confirmed(std::move(batch));
  };
  sink_(std::move(frames), first, last, std::move(done));
}

void WriteAheadLog::batch_confirmed(Batch batch) {
  committed_seq_ = batch.last_seq;
  committed_records_ += batch.records;
  ++batches_committed_;
  retained_bytes_ += batch.frames.size();
  retained_records_ += batch.records;
  retained_.emplace_back(batch.last_seq, batch.frames.size(), batch.records);
  if (batches_counter_) batches_counter_->inc();
  if (bytes_counter_)
    bytes_counter_->inc(static_cast<double>(batch.frames.size()));
  if (commit_latency_ms_)
    commit_latency_ms_->observe(to_seconds(engine_.now() - batch.opened_at) *
                                1e3);
  for (auto& cb : batch.callbacks) cb();
}

void WriteAheadLog::truncate_through(std::uint64_t seq) {
  while (!retained_.empty() && std::get<0>(retained_.front()) <= seq) {
    retained_bytes_ -= std::get<1>(retained_.front());
    retained_records_ -= std::get<2>(retained_.front());
    truncated_records_ += std::get<2>(retained_.front());
    if (truncated_counter_)
      truncated_counter_->inc(static_cast<double>(std::get<2>(retained_.front())));
    retained_.pop_front();
  }
}

WriteAheadLog::LossReport WriteAheadLog::lose_uncommitted() {
  LossReport report;
  if (open_active_) {
    report.records += open_.records;
    report.job_submits += open_.submits;
  }
  open_ = Batch{};
  open_active_ = false;
  report.records += inflight_records_;
  report.job_submits += inflight_submits_;
  inflight_records_ = 0;
  inflight_submits_ = 0;
  if (flush_event_ != sim::kInvalidEvent) {
    engine_.cancel(flush_event_);
    flush_event_ = sim::kInvalidEvent;
  }
  ++epoch_;  // orphan in-flight sink confirmations
  halted_ = true;
  if (lost_counter_ && report.records)
    lost_counter_->inc(static_cast<double>(report.records));
  return report;
}

void WriteAheadLog::resume() {
  halted_ = false;
  if (open_active_) arm_flush_timer();
}

}  // namespace eslurm::ha
