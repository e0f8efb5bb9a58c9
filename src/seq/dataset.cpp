#include "seq/dataset.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/check.hpp"
#include "seq/view.hpp"

namespace pimwfa::seq {
namespace {

constexpr char kMagic[4] = {'P', 'W', 'F', 'A'};
constexpr u32 kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  PIMWFA_CHECK(is.good(), "short read in dataset file");
  return value;
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod<u32>(os, static_cast<u32>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const u32 len = read_pod<u32>(is);
  std::string s(len, '\0');
  is.read(s.data(), len);
  PIMWFA_CHECK(is.good(), "short read in dataset file");
  return s;
}

}  // namespace

#if PIMWFA_CHECKED_VIEWS
// Borrow-checked special members (see seq/lifetime.hpp). A copy starts a
// fresh control block: spans over the source keep tracking the source.
// Move transfers the storage, so every span over the moved-from set is
// invalidated (its data now belongs to the destination, which may mutate
// or die on its own schedule); the destination starts a fresh block.
ReadPairSet::ReadPairSet(const ReadPairSet& other)
    : seed(other.seed),
      error_rate(other.error_rate),
      nominal_read_length(other.nominal_read_length),
      pairs_(other.pairs_) {}

ReadPairSet& ReadPairSet::operator=(const ReadPairSet& other) {
  if (this != &other) {
    invalidate_views();  // the old contents are replaced
    seed = other.seed;
    error_rate = other.error_rate;
    nominal_read_length = other.nominal_read_length;
    pairs_ = other.pairs_;
  }
  return *this;
}

ReadPairSet::ReadPairSet(ReadPairSet&& other)
    : seed(other.seed),
      error_rate(other.error_rate),
      nominal_read_length(other.nominal_read_length),
      pairs_(std::move(other.pairs_)) {
  other.invalidate_views();
}

ReadPairSet& ReadPairSet::operator=(ReadPairSet&& other) {
  if (this != &other) {
    invalidate_views();        // the old contents are replaced
    other.invalidate_views();  // the source's storage was taken
    seed = other.seed;
    error_rate = other.error_rate;
    nominal_read_length = other.nominal_read_length;
    pairs_ = std::move(other.pairs_);
  }
  return *this;
}

ReadPairSet::~ReadPairSet() { control_->retire(); }
#endif  // PIMWFA_CHECKED_VIEWS

DatasetStats ReadPairSet::stats() const {
  DatasetStats s;
  s.pairs = pairs_.size();
  if (pairs_.empty()) return s;
  s.min_length = pairs_.front().pattern.size();
  double pattern_total = 0.0;
  double text_total = 0.0;
  for (const auto& pair : pairs_) {
    const usize shorter = std::min(pair.pattern.size(), pair.text.size());
    const usize longer = std::max(pair.pattern.size(), pair.text.size());
    s.min_length = std::min(s.min_length, shorter);
    s.max_length = std::max(s.max_length, longer);
    pattern_total += static_cast<double>(pair.pattern.size());
    text_total += static_cast<double>(pair.text.size());
    s.total_bases += pair.pattern.size() + pair.text.size();
  }
  s.mean_pattern_length = pattern_total / static_cast<double>(pairs_.size());
  s.mean_text_length = text_total / static_cast<double>(pairs_.size());
  return s;
}

usize ReadPairSet::max_pattern_length() const noexcept {
  usize longest = 0;
  for (const auto& pair : pairs_) longest = std::max(longest, pair.pattern.size());
  return longest;
}

usize ReadPairSet::max_text_length() const noexcept {
  usize longest = 0;
  for (const auto& pair : pairs_) longest = std::max(longest, pair.text.size());
  return longest;
}

void ReadPairSet::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw IoError("cannot open '" + path + "' for writing");
  os.write(kMagic, sizeof(kMagic));
  write_pod<u32>(os, kVersion);
  write_pod<u64>(os, seed);
  write_pod<double>(os, error_rate);
  write_pod<u64>(os, static_cast<u64>(nominal_read_length));
  write_pod<u64>(os, static_cast<u64>(pairs_.size()));
  for (const auto& pair : pairs_) {
    write_string(os, pair.pattern);
    write_string(os, pair.text);
  }
  if (!os) throw IoError("write failure on '" + path + "'");
}

ReadPairSet ReadPairSet::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw IoError("cannot open '" + path + "' for reading");
  char magic[4];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw IoError("'" + path + "' is not a pimwfa dataset (bad magic)");
  }
  const u32 version = read_pod<u32>(is);
  if (version != kVersion) {
    throw IoError("unsupported dataset version " + std::to_string(version));
  }
  ReadPairSet set;
  set.seed = read_pod<u64>(is);
  set.error_rate = read_pod<double>(is);
  set.nominal_read_length = static_cast<usize>(read_pod<u64>(is));
  const u64 count = read_pod<u64>(is);
  set.pairs_.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    ReadPair pair;
    pair.pattern = read_string(is);
    pair.text = read_string(is);
    set.pairs_.push_back(std::move(pair));
  }
  return set;
}

ReadPairSet ReadPairSet::sample_every(usize stride) const {
  PIMWFA_ARG_CHECK(stride >= 1, "sample stride must be >= 1");
  ReadPairSet out;
  out.seed = seed;
  out.error_rate = error_rate;
  out.nominal_read_length = nominal_read_length;
  out.reserve((pairs_.size() + stride - 1) / stride);
  for (usize i = 0; i < pairs_.size(); i += stride) {
    bases_copied_counter().fetch_add(
        pairs_[i].pattern.size() + pairs_[i].text.size(),
        std::memory_order_relaxed);
    out.add(pairs_[i]);
  }
  return out;
}

}  // namespace pimwfa::seq
