#include "store/record_core.h"

#include <algorithm>
#include <cstring>

#include "common/checksum.h"
#include "common/timer.h"
#include "store/fault_device.h"

namespace pieces {

RecordCore::RecordCore(std::unique_ptr<OrderedIndex> index, size_t value_size,
                       size_t slots_per_page, size_t page_bytes)
    : index_(std::move(index)),
      value_size_(value_size),
      slots_per_page_(slots_per_page),
      page_bytes_(page_bytes) {}

RecordHeader RecordCore::MakeHeader(const uint8_t* payload) {
  RecordHeader header;
  header.seqno = next_seqno_.fetch_add(1, std::memory_order_relaxed);
  header.crc = Crc32c(payload, PayloadBytes());
  header.magic = kRecordCommitMagic;
  return header;
}

bool RecordCore::BulkLoad(const std::vector<Key>& keys) {
  return BulkLoad(keys, [this](Key key, uint8_t* buf) {
    FillSyntheticRecordValue(key, buf, value_size_);
  });
}

bool RecordCore::BulkLoad(const std::vector<Key>& keys,
                          const std::function<void(Key, uint8_t*)>& fill) {
  std::vector<KeyValue> entries;
  entries.reserve(keys.size());
  std::vector<uint8_t> record(record_bytes());
  // One barrier per page span instead of one per record, or one global
  // fence at the end (which would leave the whole load volatile until
  // the last record).
  for (size_t i = 0; i < keys.size();) {
    SlotRun run;
    if (!ClaimRun(keys.size() - i, &run)) return false;
    for (uint32_t j = 0; j < run.count; ++j, ++i) {
      const Key key = keys[i];
      std::memcpy(record.data(), &key, sizeof(Key));
      fill(key, record.data() + sizeof(Key));
      const RecordHeader header = MakeHeader(record.data());
      std::memcpy(record.data() + PayloadBytes(), &header, sizeof(header));
      WriteBytes(run.bytes + j * record.size(), record.data(), record.size());
      entries.push_back({key, PackHandle(run.page, run.first + j)});
    }
    Barrier({&run, 1}, 0, record.size());
    ReleaseRun(run);
  }
  index_->BulkLoad(entries);
  size_.store(keys.size(), std::memory_order_relaxed);
  return true;
}

void RecordCore::Stage(Key key, const uint8_t* value, PendingRecord* record) {
  std::vector<uint8_t> payload(PayloadBytes());
  std::memcpy(payload.data(), &key, sizeof(Key));
  std::memcpy(payload.data() + sizeof(Key), value, value_size_);
  WriteBytes(record->slot.bytes, payload.data(), payload.size());
  record->key = key;
  record->value = value;
  record->header = MakeHeader(payload.data());
}

void RecordCore::Commit(std::span<PendingRecord* const> batch) {
  std::vector<SlotRun> slots;
  slots.reserve(batch.size());
  for (const PendingRecord* r : batch) slots.push_back(r->slot);
  // The records not yet committed. Once a record is kCommitted its owner
  // may return (and free it) while a later barrier runs, so after the
  // swings only the revoked ones are touched.
  std::span<PendingRecord* const> open = batch;
  std::vector<PendingRecord*> revoked;
  try {
    Barrier(slots, 0, PayloadBytes());
    for (const PendingRecord* r : batch) {
      WriteBytes(r->slot.bytes + PayloadBytes(), &r->header,
                 sizeof(r->header));
    }
    Barrier(slots, PayloadBytes(), sizeof(RecordHeader));
    // Swings in seqno (= batch) order, so a key written twice in one run
    // ends with its highest seqno live, as recovery would rebuild it.
    for (PendingRecord* r : batch) {
      if (!index_->Insert(r->key, PackHandle(r->slot.page, r->slot.first))) {
        revoked.push_back(r);
        continue;
      }
      r->state = PendingRecord::State::kCommitted;
      size_.fetch_add(1, std::memory_order_relaxed);
      // Durable and visible, not yet acked: the replication tap must see
      // it before the caller does.
      EmitCommit(r->header.seqno, r->key, r->value, value_size_);
    }
    open = revoked;
    if (!revoked.empty()) {
      // Durable but never acknowledged: zero the headers under one more
      // barrier. kRejected lands only once that barrier is durable; a
      // crash here surfaces as a crash, not as a promise that recovery
      // will not resurrect the put.
      const RecordHeader zero;
      std::vector<SlotRun> revoked_slots;
      for (const PendingRecord* r : revoked) {
        WriteBytes(r->slot.bytes + PayloadBytes(), &zero, sizeof(zero));
        revoked_slots.push_back(r->slot);
      }
      Barrier(revoked_slots, PayloadBytes(), sizeof(RecordHeader));
      for (PendingRecord* r : revoked) {
        r->state = PendingRecord::State::kRejected;
      }
    }
  } catch (const SimulatedCrash&) {
    // Slots stay claimed: recovery reopens the medium anyway.
    for (PendingRecord* r : open) r->state = PendingRecord::State::kCrashed;
    throw;
  }
  for (const SlotRun& slot : slots) ReleaseRun(slot);
}

bool RecordCore::Put(Key key, const uint8_t* value) {
  PendingRecord record;
  if (!ClaimRun(1, &record.slot)) return false;
  Stage(key, value, &record);
  PendingRecord* batch[] = {&record};
  Commit(batch);
  return record.state == PendingRecord::State::kCommitted;
}

bool RecordCore::PutSynthetic(Key key) {
  std::vector<uint8_t> value(value_size_);
  FillSyntheticRecordValue(key, value.data(), value_size_);
  return Put(key, value.data());
}

uint64_t RecordCore::Recover() {
  Timer timer;
  // Nothing from the pre-crash DRAM state is trusted. Zeroed (never
  // written or rolled back) slots fail the magic check, a torn header
  // cannot complete the trailing magic, a torn payload fails the CRC.
  const size_t num_pages = ReopenForRecovery();
  struct Recovered {
    Key key;
    Value handle;
    uint64_t seqno;
  };
  std::vector<Recovered> records;
  records.reserve(num_pages * slots_per_page_);
  std::vector<uint8_t> page(page_bytes_);
  uint64_t max_seqno = 0;
  for (uint32_t p = 0; p < num_pages; ++p) {
    ReadPage(p, page.data());
    for (uint32_t s = 0; s < slots_per_page_; ++s) {
      const uint8_t* rec = page.data() + s * record_bytes();
      RecordHeader header;
      std::memcpy(&header, rec + PayloadBytes(), sizeof(header));
      if (header.magic != kRecordCommitMagic || header.seqno == 0) continue;
      if (Crc32c(rec, PayloadBytes()) != header.crc) continue;
      Key key;
      std::memcpy(&key, rec, sizeof(Key));
      records.push_back({key, PackHandle(p, s), header.seqno});
      max_seqno = std::max(max_seqno, header.seqno);
    }
  }
  // Out-of-place updates leave several committed records per key; the
  // highest seqno wins.
  std::sort(records.begin(), records.end(),
            [](const Recovered& a, const Recovered& b) {
              return a.key != b.key ? a.key < b.key : a.seqno < b.seqno;
            });
  std::vector<KeyValue> unique;
  unique.reserve(records.size());
  for (const Recovered& r : records) {
    if (!unique.empty() && unique.back().key == r.key) {
      unique.back().value = r.handle;
    } else {
      unique.push_back({r.key, r.handle});
    }
  }
  index_->BulkLoad(unique);
  size_.store(unique.size(), std::memory_order_relaxed);
  next_seqno_.store(max_seqno + 1, std::memory_order_relaxed);
  return timer.ElapsedNanos();
}

}  // namespace pieces
