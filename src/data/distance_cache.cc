#include "src/data/distance_cache.h"

#include "src/util/serialize.h"

namespace qse {

namespace {
constexpr uint32_t kCacheMagic = 0x51534543;  // "QSEC"
}  // namespace

double CachingOracle::Distance(size_t i, size_t j) const {
  uint64_t key = Key(i, j);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  // Evaluate outside the lock so concurrent misses don't serialize on one
  // expensive DX; two threads racing on the same pair just recompute it.
  double d = inner_->Distance(i, j);
  std::lock_guard<std::mutex> lock(mu_);
  cache_.emplace(key, d);
  return d;
}

Status CachingOracle::Save(const std::string& path) const {
  ByteWriter w;
  {
    std::lock_guard<std::mutex> lock(mu_);
    w.WriteU32(kCacheMagic);
    w.WriteString(fingerprint_);
    w.WriteU64(size());
    w.WriteU64(cache_.size());
    for (const auto& [key, value] : cache_) {
      w.WriteU64(key);
      w.WriteDouble(value);
    }
  }
  return WriteFileBytes(path, w.bytes());
}

Status CachingOracle::Load(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileBytes(path);
  QSE_RETURN_IF_ERROR(bytes.status());
  ByteReader r(bytes.value());
  uint32_t magic = 0;
  QSE_RETURN_IF_ERROR(r.ReadU32(&magic));
  if (magic != kCacheMagic) {
    return Status::IOError("bad magic in cache file: " + path);
  }
  std::string fingerprint;
  QSE_RETURN_IF_ERROR(r.ReadString(&fingerprint));
  if (fingerprint != fingerprint_) {
    return Status::FailedPrecondition(
        "cache fingerprint mismatch: file has '" + fingerprint +
        "', oracle expects '" + fingerprint_ + "'");
  }
  uint64_t n = 0;
  QSE_RETURN_IF_ERROR(r.ReadU64(&n));
  if (n != size()) {
    return Status::FailedPrecondition("cache universe size mismatch");
  }
  uint64_t pairs = 0;
  QSE_RETURN_IF_ERROR(r.ReadU64(&pairs));
  // Every (key, value) pair is 16 bytes, and they end the file: check
  // both before reserving or inserting anything.
  QSE_RETURN_IF_ERROR(r.CheckCount(pairs, 16));
  if (r.remaining() != pairs * 16) {
    return Status::DataLoss("cache file has trailing bytes after its pairs");
  }
  std::lock_guard<std::mutex> lock(mu_);
  cache_.reserve(cache_.size() + pairs);
  for (uint64_t k = 0; k < pairs; ++k) {
    uint64_t key = 0;
    double value = 0.0;
    QSE_RETURN_IF_ERROR(r.ReadU64(&key));
    QSE_RETURN_IF_ERROR(r.ReadDouble(&value));
    cache_[key] = value;
  }
  return Status::OK();
}

}  // namespace qse
