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

template <typename Fill>
void RecordCore::WriteRecord(uint8_t* dst, Key key, Fill fill) {
  // Composed in the writer thread's own scratch (grown once, reused), so
  // a put allocates nothing and the medium sees one write per record.
  thread_local std::vector<uint8_t> record;
  if (record.size() < record_bytes()) record.resize(record_bytes());
  std::memcpy(record.data(), &key, sizeof(Key));
  fill(record.data() + sizeof(Key));
  RecordHeader header;
  header.seqno = next_seqno_.fetch_add(1, std::memory_order_relaxed);
  header.crc = Crc32c(record.data(), PayloadBytes());
  header.magic = kRecordCommitMagic;
  std::memcpy(record.data() + PayloadBytes(), &header, sizeof(header));
  WriteBytes(dst, record.data(), record_bytes());
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
  // One barrier per page span instead of one per record, or one global
  // fence at the end (which would leave the whole load volatile until
  // the last record).
  for (size_t i = 0; i < keys.size();) {
    SlotRun run;
    if (!ClaimRun(keys.size() - i, &run)) return false;
    for (uint32_t j = 0; j < run.count; ++j, ++i) {
      const Key key = keys[i];
      WriteRecord(run.bytes + j * record_bytes(), key,
                  [&](uint8_t* value) { fill(key, value); });
      entries.push_back({key, PackHandle(run.page, run.first + j)});
    }
    Barrier({&run, 1});
    ReleaseRun(run);
  }
  index_->BulkLoad(entries);
  size_.store(keys.size(), std::memory_order_relaxed);
  return true;
}

bool RecordCore::Put(Key key, const uint8_t* value) {
  SlotRun slot;
  if (!ClaimRun(1, &slot)) return false;
  // The seqno taken here fixes the record's commit order. A power cut at
  // the barrier propagates as SimulatedCrash with the slot still claimed
  // (recovery reopens the medium anyway); whatever it tore of the record
  // fails the magic or the CRC.
  WriteRecord(slot.bytes, key, [&](uint8_t* dst) {
    std::memcpy(dst, value, value_size_);
  });
  Barrier({&slot, 1});
  const bool swung = index_->Insert(key, PackHandle(slot.page, slot.first));
  if (swung) {
    size_.fetch_add(1, std::memory_order_relaxed);
    // Durable and visible, not yet acked: the replication tap must see
    // it before the caller does.
    EmitCommit(key, value, value_size_);
  } else {
    // Durable but never acknowledged: zero the header under one more
    // barrier, so the false return lands only once recovery can no
    // longer resurrect the put.
    const RecordHeader zero;
    WriteBytes(slot.bytes + PayloadBytes(), &zero, sizeof(zero));
    Barrier({&slot, 1});
  }
  ReleaseRun(slot);
  return swung;
}

bool RecordCore::PutSynthetic(Key key) {
  std::vector<uint8_t> value(value_size_);
  FillSyntheticRecordValue(key, value.data(), value_size_);
  return Put(key, value.data());
}

uint64_t RecordCore::Recover() {
  Timer timer;
  // Nothing from the pre-crash DRAM state is trusted. Zeroed (never
  // written or rolled back) slots fail the magic check, a record torn
  // short of its tail cannot complete the trailing magic, and one whose
  // header landed without all of its payload fails the CRC.
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
