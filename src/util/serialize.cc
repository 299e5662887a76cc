#include "src/util/serialize.h"

#include <cstring>
#include <fstream>

namespace qse {

Status ByteReader::ReadRaw(void* dst, size_t n) {
  if (n > size_ - pos_) {
    return Status::DataLoss("truncated buffer: need " + std::to_string(n) +
                            " bytes, have " + std::to_string(size_ - pos_));
  }
  std::memcpy(dst, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::CheckCount(uint64_t count, size_t elem_size,
                              uint64_t max_elems) const {
  // remaining() bounds the count unconditionally: the elements must be
  // physically present behind the prefix, so a hostile count can demand
  // at most the bytes the caller already holds.
  if (count > remaining() / elem_size) {
    return Status::DataLoss("length prefix exceeds remaining bytes: " +
                            std::to_string(count) + " elements of " +
                            std::to_string(elem_size) + " bytes, " +
                            std::to_string(remaining()) + " bytes left");
  }
  if (max_elems != 0 && count > max_elems) {
    return Status::DataLoss("length prefix exceeds field cap: " +
                            std::to_string(count) + " > " +
                            std::to_string(max_elems));
  }
  return Status::OK();
}

Status ByteReader::RequireExhausted() const {
  if (remaining() != 0) {
    return Status::DataLoss(std::to_string(remaining()) +
                            " trailing bytes after the last field");
  }
  return Status::OK();
}

Status ByteReader::ReadU8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }
Status ByteReader::ReadU16(uint16_t* v) { return ReadRaw(v, sizeof(*v)); }
Status ByteReader::ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
Status ByteReader::ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
Status ByteReader::ReadDouble(double* v) { return ReadRaw(v, sizeof(*v)); }

Status ByteReader::ReadString(std::string* s, uint64_t max_elems) {
  uint64_t n = 0;
  QSE_RETURN_IF_ERROR(ReadU64(&n));
  QSE_RETURN_IF_ERROR(CheckCount(n, 1, max_elems));
  s->resize(n);
  return n == 0 ? Status::OK() : ReadRaw(&(*s)[0], n);
}

Status ByteReader::ReadDoubleVec(std::vector<double>* v, uint64_t max_elems) {
  uint64_t n = 0;
  QSE_RETURN_IF_ERROR(ReadU64(&n));
  QSE_RETURN_IF_ERROR(CheckCount(n, sizeof(double), max_elems));
  v->resize(n);
  return n == 0 ? Status::OK() : ReadRaw(v->data(), n * sizeof(double));
}

Status ByteReader::ReadU64Vec(std::vector<uint64_t>* v, uint64_t max_elems) {
  uint64_t n = 0;
  QSE_RETURN_IF_ERROR(ReadU64(&n));
  QSE_RETURN_IF_ERROR(CheckCount(n, sizeof(uint64_t), max_elems));
  v->resize(n);
  return n == 0 ? Status::OK() : ReadRaw(v->data(), n * sizeof(uint64_t));
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  const std::streamoff size = in.tellg();
  if (size < 0 || !in.seekg(0)) return Status::IOError("cannot size " + path);
  std::string bytes(static_cast<size_t>(size), '\0');
  if (!in.read(bytes.data(), size)) {
    return Status::IOError("read failed: " + path);
  }
  return bytes;
}

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace qse
