#include "src/persist/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/obs/metric_registry.h"
#include "src/util/crc32.h"
#include "src/util/serialize.h"
#include "src/util/timer.h"

namespace qse {
namespace persist {
namespace {

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

/// Decodes one record payload (the bytes the CRC already vouched for).
/// Structural violations are kDataLoss, exactly like the wire codec.
Status DecodeWalPayload(const char* payload, size_t size, WalRecord* out) {
  ByteReader reader(payload, size);
  uint16_t version = 0;
  uint16_t op = 0;
  QSE_RETURN_IF_ERROR(reader.ReadU16(&version));
  if (version != kWalVersion) {
    return Status::DataLoss("unknown WAL record version " +
                            std::to_string(version));
  }
  QSE_RETURN_IF_ERROR(reader.ReadU16(&op));
  QSE_RETURN_IF_ERROR(reader.ReadU64(&out->seq));
  QSE_RETURN_IF_ERROR(reader.ReadU64(&out->db_id));
  switch (static_cast<WalOp>(op)) {
    case WalOp::kInsert:
      out->op = WalOp::kInsert;
      QSE_RETURN_IF_ERROR(reader.ReadDoubleVec(&out->row, kMaxWalDims));
      break;
    case WalOp::kRemove:
      out->op = WalOp::kRemove;
      out->row.clear();
      break;
    default:
      return Status::DataLoss("unknown WAL op " + std::to_string(op));
  }
  return reader.RequireExhausted();
}

/// The file header a fresh or compacted log starts with.
std::string EncodeWalFileHeader(uint64_t base_seq) {
  ByteWriter w(kWalFileHeaderBytes);
  w.WriteU32(kWalFileMagic);
  w.WriteU16(kWalVersion);
  w.WriteU16(0);
  w.WriteU64(base_seq);
  return w.Take();
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  const bool insert = record.op == WalOp::kInsert;
  // The payload: version, op, seq and db_id, then an insert's row.
  const size_t payload_size =
      20 + (insert ? 8 + record.row.size() * sizeof(double) : 0);
  ByteWriter w(kWalRecordHeaderBytes + payload_size);
  w.WriteU32(kWalRecordMagic);
  w.WriteU32(static_cast<uint32_t>(payload_size));
  w.WriteU32(0);  // The payload's CRC, filled in once the payload is written.
  w.WriteU16(kWalVersion);
  w.WriteU16(static_cast<uint16_t>(record.op));
  w.WriteU64(record.seq);
  w.WriteU64(record.db_id);
  if (insert) w.WriteDoubleVec(record.row);
  std::string frame = w.Take();
  const uint32_t crc =
      Crc32(frame.data() + kWalRecordHeaderBytes, payload_size);
  std::memcpy(&frame[kWalRecordHeaderBytes - sizeof(crc)], &crc, sizeof(crc));
  return frame;
}

StatusOr<WalReadResult> ReadWal(const std::string& path) {
  WalReadResult result;
  StatusOr<std::string> file = ReadFileBytes(path);
  if (file.status().code() == StatusCode::kNotFound) {
    return result;  // Missing file == empty log.
  }
  QSE_RETURN_IF_ERROR(file.status());
  const std::string& bytes = file.value();
  if (bytes.empty()) return result;  // Zero-byte file == empty log.

  // The header: without a valid one there is no prefix to repair to, so
  // header corruption is kDataLoss regardless of repair policy.
  if (bytes.size() < kWalFileHeaderBytes) {
    return Status::DataLoss("WAL header truncated: " +
                            std::to_string(bytes.size()) + " bytes");
  }
  ByteReader header(bytes.data(), kWalFileHeaderBytes);
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t reserved = 0;
  QSE_RETURN_IF_ERROR(header.ReadU32(&magic));
  QSE_RETURN_IF_ERROR(header.ReadU16(&version));
  QSE_RETURN_IF_ERROR(header.ReadU16(&reserved));
  QSE_RETURN_IF_ERROR(header.ReadU64(&result.base_seq));
  if (magic != kWalFileMagic) {
    return Status::DataLoss("bad WAL file magic");
  }
  if (version != kWalVersion) {
    return Status::DataLoss("unknown WAL file version " +
                            std::to_string(version));
  }

  size_t pos = kWalFileHeaderBytes;
  result.valid_bytes = pos;
  while (pos < bytes.size()) {
    // Frame header: magic, payload length, CRC.  Anything that does not
    // check out ends the valid prefix right here.
    if (bytes.size() - pos < kWalRecordHeaderBytes) {
      result.tail_status = Status::DataLoss("torn record header at offset " +
                                            std::to_string(pos));
      break;
    }
    ByteReader frame(bytes.data() + pos, kWalRecordHeaderBytes);
    uint32_t record_magic = 0, payload_len = 0, crc = 0;
    QSE_RETURN_IF_ERROR(frame.ReadU32(&record_magic));
    QSE_RETURN_IF_ERROR(frame.ReadU32(&payload_len));
    QSE_RETURN_IF_ERROR(frame.ReadU32(&crc));
    if (record_magic != kWalRecordMagic) {
      result.tail_status = Status::DataLoss("bad record magic at offset " +
                                            std::to_string(pos));
      break;
    }
    if (payload_len > kMaxWalRecordBytes) {
      // A lying length prefix: refuse before trusting it for anything.
      result.tail_status = Status::DataLoss(
          "implausible record length " + std::to_string(payload_len) +
          " at offset " + std::to_string(pos));
      break;
    }
    if (payload_len > bytes.size() - pos - kWalRecordHeaderBytes) {
      // Torn tail: the record claims more bytes than the file holds —
      // the normal shape of a crash mid-append.
      result.tail_status = Status::DataLoss("torn record payload at offset " +
                                            std::to_string(pos));
      break;
    }
    const char* payload = bytes.data() + pos + kWalRecordHeaderBytes;
    if (Crc32(payload, payload_len) != crc) {
      result.tail_status = Status::DataLoss("record CRC mismatch at offset " +
                                            std::to_string(pos));
      break;
    }
    WalRecord record;
    Status decoded = DecodeWalPayload(payload, payload_len, &record);
    if (!decoded.ok()) {
      result.tail_status = decoded;
      break;
    }
    result.records.push_back(std::move(record));
    pos += kWalRecordHeaderBytes + payload_len;
    result.valid_bytes = pos;
  }
  result.dropped_bytes = bytes.size() - result.valid_bytes;
  return result;
}

WalWriter::WalWriter(int fd, std::string path, FsyncPolicy policy,
                     size_t fsync_every_n, uint64_t next_seq)
    : fd_(fd),
      path_(std::move(path)),
      policy_(policy),
      fsync_every_n_(fsync_every_n == 0 ? 1 : fsync_every_n),
      next_seq_(next_seq) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    // Best-effort flush of whatever the policy left unsynced.
    if (unsynced_records_ > 0 && policy_ != FsyncPolicy::kOff) {
      (void)::fsync(fd_);
    }
    ::close(fd_);
  }
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path, FsyncPolicy policy, size_t fsync_every_n,
    uint64_t offset, uint64_t base_seq, uint64_t next_seq) {
  int fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
  if (fd < 0) return ErrnoStatus("open WAL", path);
  // Drop anything past the valid prefix (a torn tail from the previous
  // incarnation) so new records append to a clean end-of-log.
  if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
    Status status = ErrnoStatus("truncate WAL", path);
    ::close(fd);
    return status;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    Status status = ErrnoStatus("seek WAL", path);
    ::close(fd);
    return status;
  }
  auto writer = std::unique_ptr<WalWriter>(
      new WalWriter(fd, path, policy, fsync_every_n, next_seq));
  if (offset == 0) {
    const std::string header = EncodeWalFileHeader(base_seq);
    QSE_RETURN_IF_ERROR(writer->WriteFully(header.data(), header.size()));
    QSE_RETURN_IF_ERROR(writer->Sync());
  }
  return StatusOr<std::unique_ptr<WalWriter>>(std::move(writer));
}

Status WalWriter::WriteFully(const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  size_t remaining = size;
  while (remaining > 0) {
    ssize_t n = ::write(fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write WAL", path_);
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  static obs::Counter* fsyncs =
      obs::MetricRegistry::Global().GetCounter("qse_persist_fsyncs_total");
  static obs::Histogram* fsync_ns =
      obs::MetricRegistry::Global().GetHistogram(
          "qse_persist_fsync_latency_ns", obs::DefaultLatencyBoundariesNs());
  const MonotonicClock::time_point start = MonotonicClock::now();
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync WAL", path_);
  fsyncs->Increment();
  fsync_ns->Record(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          MonotonicClock::now() - start)
          .count()));
  unsynced_records_ = 0;
  return Status::OK();
}

Status WalWriter::MaybeSync() {
  switch (policy_) {
    case FsyncPolicy::kEveryRecord:
      return Sync();
    case FsyncPolicy::kEveryN:
      if (unsynced_records_ >= fsync_every_n_) return Sync();
      return Status::OK();
    case FsyncPolicy::kOff:
      return Status::OK();
  }
  return Status::OK();
}

Status WalWriter::Append(WalRecord* record) {
  static obs::Counter* records_total =
      obs::MetricRegistry::Global().GetCounter("qse_persist_wal_records_total");
  static obs::Counter* bytes_total =
      obs::MetricRegistry::Global().GetCounter("qse_persist_wal_bytes_total");
  record->seq = next_seq_;
  std::string bytes = EncodeWalRecord(*record);
  QSE_RETURN_IF_ERROR(WriteFully(bytes.data(), bytes.size()));
  ++next_seq_;
  ++unsynced_records_;
  records_total->Increment();
  bytes_total->Add(bytes.size());
  return MaybeSync();
}

Status WalWriter::ResetToBase(uint64_t base_seq) {
  if (::ftruncate(fd_, 0) != 0) return ErrnoStatus("truncate WAL", path_);
  if (::lseek(fd_, 0, SEEK_SET) < 0) return ErrnoStatus("seek WAL", path_);
  const std::string header = EncodeWalFileHeader(base_seq);
  QSE_RETURN_IF_ERROR(WriteFully(header.data(), header.size()));
  next_seq_ = base_seq + 1;
  unsynced_records_ = 0;
  // The compacted log must be durable before the caller deletes or
  // overwrites anything the old log covered.
  return Sync();
}

}  // namespace persist
}  // namespace qse
