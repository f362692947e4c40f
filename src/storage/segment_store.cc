#include "storage/segment_store.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "io/checkpoint.h"

namespace himpact {
namespace {

/// mkdir -p: creates every missing component of `dir`.
Status MakeDirs(const std::string& dir) {
  std::string partial;
  std::size_t start = 0;
  while (start <= dir.size()) {
    std::size_t slash = dir.find('/', start);
    if (slash == std::string::npos) slash = dir.size();
    partial = dir.substr(0, slash);
    if (!partial.empty() && ::mkdir(partial.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      return Status::Internal("mkdir(" + partial +
                              "): " + std::strerror(errno));
    }
    start = slash + 1;
  }
  return Status::OK();
}

/// Parses "<prefix><gen>.seg" -> gen; false for foreign filenames.
bool ParseGeneration(const std::string& name, const std::string& prefix,
                     std::uint64_t* generation) {
  const std::string suffix = ".seg";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  std::uint64_t out = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *generation = out;
  return true;
}

}  // namespace

std::string SegmentStore::SegmentPath(std::uint64_t generation) const {
  return options_.dir + "/stripe-" + std::to_string(options_.stripe) +
         "-gen-" + std::to_string(generation) + ".seg";
}

StatusOr<std::unique_ptr<SegmentStore>> SegmentStore::Open(
    const SegmentStoreOptions& options, std::uint64_t generation_bound) {
  Status made = MakeDirs(options.dir);
  if (!made.ok()) return made;
  auto store = std::unique_ptr<SegmentStore>(new SegmentStore());
  store->options_ = options;

  // Adopt existing generations in ascending order so later records win
  // the index.
  const std::string prefix =
      "stripe-" + std::to_string(options.stripe) + "-gen-";
  std::vector<std::uint64_t> generations;
  DIR* dir = ::opendir(options.dir.c_str());
  if (dir == nullptr) {
    return Status::Internal("opendir(" + options.dir +
                            "): " + std::strerror(errno));
  }
  while (const struct dirent* entry = ::readdir(dir)) {
    std::uint64_t generation = 0;
    if (ParseGeneration(entry->d_name, prefix, &generation) &&
        generation < generation_bound) {
      generations.push_back(generation);
    }
  }
  ::closedir(dir);
  std::sort(generations.begin(), generations.end());
  for (const std::uint64_t generation : generations) {
    StatusOr<SegmentReader> reader =
        SegmentReader::Open(store->SegmentPath(generation));
    if (!reader.ok()) {
      // A damaged generation costs its records (they degrade to frozen
      // floors), never the whole store.
      ++store->counters_.corrupt_segments;
      continue;
    }
    store->AdoptSegment(std::move(reader).value());
    store->next_generation_ = generation + 1;
  }
  if (generation_bound != kAllSegmentGenerations) {
    store->next_generation_ = generation_bound;
  }
  return store;
}

void SegmentStore::AdoptSegment(SegmentReader reader) {
  const std::uint32_t segment = static_cast<std::uint32_t>(segments_.size());
  segment_bytes_ += reader.file_bytes();
  for (const SegmentRecord& record : reader.records()) {
    auto [it, inserted] = index_.try_emplace(record.id);
    // Newest generation wins; a superseded copy stays on disk as dead
    // space until a restore rebuilds the store (compaction fodder).
    if (!inserted) dead_record_bytes_ += it->second.len;
    it->second = Loc{segment, record.len};
  }
  segments_.push_back(std::move(reader));
}

void SegmentStore::Put(std::uint64_t id, std::vector<std::uint8_t> record) {
  ++counters_.appends;
  auto [it, inserted] = pending_.try_emplace(id);
  if (!inserted) pending_bytes_ -= it->second.size();
  pending_bytes_ += record.size();
  it->second = std::move(record);
  // A failed seal is counted and keeps the record pending for a retry.
  if (pending_bytes_ >= options_.seal_threshold_bytes) (void)Flush();
}

Status SegmentStore::Flush() {
  if (pending_.empty()) return Status::OK();
  SegmentWriter writer(options_.stripe, next_generation_,
                       options_.block_bytes);
  for (const auto& [id, record] : pending_) {
    writer.Add(id, record);  // copies: a failed seal must keep pending intact
  }
  const std::string path = SegmentPath(next_generation_);
  Status written = WriteFileAtomic(path, writer.Seal());
  if (written.ok()) {
    StatusOr<SegmentReader> reader = SegmentReader::Open(path);
    if (reader.ok()) {
      AdoptSegment(std::move(reader).value());
      ++next_generation_;
      ++counters_.seals;
      pending_.clear();
      pending_bytes_ = 0;
      return Status::OK();
    }
    written = reader.status();
  }
  // The seal failed before the records became readable: they stay
  // pending and the next Put/Flush retries into the same generation.
  ++counters_.flush_failures;
  return written;
}

StatusOr<std::vector<std::uint8_t>> SegmentStore::Get(std::uint64_t id) {
  const auto pending = pending_.find(id);
  if (pending != pending_.end()) {
    ++counters_.cache_hits;
    return pending->second;
  }
  const auto it = index_.find(id);
  if (it == index_.end()) {
    // The caller paged this id out, so a miss is a lost record (its
    // segment was skipped as corrupt, or never restored with the
    // checkpoint that references it): a failed page-in like any other.
    ++counters_.page_in_failures;
    return Status::Unavailable("no segment record for this id");
  }
  StatusOr<std::vector<std::uint8_t>> bytes =
      segments_[it->second.segment].ReadRecord(id);
  if (bytes.ok()) {
    ++counters_.page_ins;
  } else {
    ++counters_.page_in_failures;
  }
  return bytes;
}

bool SegmentStore::Contains(std::uint64_t id) const {
  return pending_.count(id) > 0 || index_.count(id) > 0;
}

void SegmentStore::Forget(std::uint64_t id) {
  const auto pending = pending_.find(id);
  if (pending != pending_.end()) {
    pending_bytes_ -= pending->second.size();
    pending_.erase(pending);
  }
  const auto sealed = index_.find(id);
  if (sealed != index_.end()) {
    // The sealed copy is unreachable from here on (a re-demotion
    // re-Puts a fresh record), so its bytes are dead, not merely stale.
    dead_record_bytes_ += sealed->second.len;
    index_.erase(sealed);
  }
}

}  // namespace himpact
