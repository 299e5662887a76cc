#ifndef QSE_UTIL_SERIALIZE_H_
#define QSE_UTIL_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"
#include "src/util/statusor.h"

namespace qse {

/// The one byte layout of every format here (model and distance-cache
/// files, WAL, snapshots, wire frames): raw host-order fields and u64
/// length prefixes.  Files are only intended to be read back on the
/// machine (or architecture family) that wrote them, which is the
/// standard contract for local model/cache files.
///
/// ByteWriter appends fields to one string; `reserve` sizes it up front
/// when the caller knows the encoded size.
class ByteWriter {
 public:
  explicit ByteWriter(size_t reserve = 0) { out_.reserve(reserve); }

  void WriteU8(uint8_t v) { Put(v); }
  void WriteU16(uint16_t v) { Put(v); }
  void WriteU32(uint32_t v) { Put(v); }
  void WriteU64(uint64_t v) { Put(v); }
  void WriteDouble(double v) { Put(v); }
  /// Length-prefixed (u64 count) fields.
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    out_.append(s);
  }
  void WriteDoubleVec(const std::vector<double>& v) {
    WriteU64(v.size());
    WriteBytes(v.data(), v.size() * sizeof(double));
  }
  /// Raw bytes, no length prefix (callers that already framed the size).
  void WriteBytes(const void* data, size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }

  /// The bytes written so far.
  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  template <typename T>
  void Put(T v) {
    out_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }

  std::string out_;
};

/// Bounds-checked sequential reader over an in-memory buffer, the decode
/// side of every format.  The buffer's total size is known up front, so
/// every length prefix is validated against the bytes actually remaining
/// BEFORE any allocation.  A hostile length prefix therefore costs
/// nothing; it can never over-allocate.  All failures are kDataLoss (the
/// buffer contradicts its own framing).  Borrows the buffer; does not
/// copy.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit ByteReader(const std::string& buf)
      : ByteReader(buf.data(), buf.size()) {}

  Status ReadU8(uint8_t* v);
  Status ReadU16(uint16_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadDouble(double* v);
  /// Length-prefixed (u64 count) reads; the count is validated against
  /// remaining() before the destination is resized, so a corrupt prefix
  /// fails without allocating.  `max_elems` tightens the cap further for
  /// fields with a known plausible bound (0 = remaining-bytes cap only).
  Status ReadString(std::string* s, uint64_t max_elems = 0);
  Status ReadDoubleVec(std::vector<double>* v, uint64_t max_elems = 0);
  Status ReadU64Vec(std::vector<uint64_t>* v, uint64_t max_elems = 0);

  /// Validates the count of a repeated group whose elements take at
  /// least `elem_size` bytes each, before the caller reserves for it:
  /// kDataLoss when the elements cannot fit in remaining() or the count
  /// exceeds `max_elems` (0 = no cap).
  Status CheckCount(uint64_t count, size_t elem_size,
                    uint64_t max_elems = 0) const;

  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }
  /// kDataLoss unless every byte has been consumed: a well-formed buffer
  /// ends exactly where its fields do.
  Status RequireExhausted() const;

 private:
  Status ReadRaw(void* dst, size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// The whole file at `path`, read once for decoding with ByteReader.
/// kNotFound when it cannot be opened, kIOError when a read fails.
StatusOr<std::string> ReadFileBytes(const std::string& path);

/// Writes `bytes` to `path`, replacing any file there.  kIOError on any
/// failure.
Status WriteFileBytes(const std::string& path, const std::string& bytes);

}  // namespace qse

#endif  // QSE_UTIL_SERIALIZE_H_
