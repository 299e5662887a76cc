#include "src/persist/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/util/crc32.h"
#include "src/util/serialize.h"

namespace qse {
namespace persist {
namespace {

static_assert(sizeof(size_t) == sizeof(uint64_t),
              "snapshot id columns assume 64-bit size_t");

std::atomic<int> g_fault_point{0};

/// True exactly once after SetFaultPoint(point): the matching I/O step
/// consumes the fault.
bool ConsumeFault(testing::FaultPoint point) {
  int want = static_cast<int>(point);
  int cur = g_fault_point.load(std::memory_order_relaxed);
  return cur == want &&
         g_fault_point.compare_exchange_strong(cur, 0,
                                               std::memory_order_relaxed);
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

Status WriteFully(int fd, const void* data, size_t size,
                  const std::string& path) {
  const char* p = static_cast<const char*>(data);
  size_t remaining = size;
  while (remaining > 0) {
    ssize_t n = ::write(fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write snapshot", path);
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Validates a decoded db image's internal shape.
Status ValidateDb(const SnapshotContents::Db& db) {
  if (db.dims > kMaxSnapshotDims) {
    return Status::DataLoss("snapshot dims " + std::to_string(db.dims) +
                            " exceeds plausibility cap");
  }
  const uint64_t cells = db.rows * db.dims;
  if (db.dims != 0 && db.rows != cells / db.dims) {
    return Status::DataLoss("snapshot rows*dims overflows");
  }
  if (db.data.size() != cells) {
    return Status::DataLoss("snapshot data count contradicts rows*dims");
  }
  if (db.ids.size() != db.rows) {
    return Status::DataLoss("snapshot id count contradicts rows");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeSnapshot(uint64_t cut_seq, const std::string& model_blob,
                           const std::vector<EmbeddedDatabase::View>& dbs) {
  std::ostringstream body;
  BinaryWriter writer(&body);
  writer.WriteU32(kSnapshotMagic);
  writer.WriteU16(kSnapshotVersion);
  writer.WriteU16(0);
  writer.WriteU64(cut_seq);
  writer.WriteString(model_blob);
  writer.WriteU64(dbs.size());
  for (const EmbeddedDatabase::View& view : dbs) {
    const uint64_t rows = view.size();
    const uint64_t dims = view.dims();
    const uint64_t cells = rows * dims;
    writer.WriteU64(dims);
    writer.WriteU64(rows);
    // Vector fields are written as (u64 count + raw bytes) directly from
    // the pinned buffers — the exact frame WriteDoubleVec/ReadDoubleVec
    // use, without materializing an owning copy first.
    writer.WriteU64(cells);
    writer.WriteBytes(view.data(), cells * sizeof(double));
    writer.WriteU64(rows);
    writer.WriteBytes(view.ids(), rows * sizeof(uint64_t));
  }
  std::string payload = body.str();
  const uint32_t crc = Crc32(payload);

  std::ostringstream tail;
  BinaryWriter crc_writer(&tail);
  crc_writer.WriteU32(crc);
  payload += tail.str();
  return payload;
}

StatusOr<SnapshotContents> DecodeSnapshot(const std::string& bytes) {
  if (bytes.size() < sizeof(uint32_t)) {
    return Status::DataLoss("snapshot shorter than its CRC trailer");
  }
  const size_t payload_size = bytes.size() - sizeof(uint32_t);
  ByteReader crc_reader(bytes.data() + payload_size, sizeof(uint32_t));
  uint32_t stored_crc = 0;
  QSE_RETURN_IF_ERROR(crc_reader.ReadU32(&stored_crc));
  if (Crc32(bytes.data(), payload_size) != stored_crc) {
    return Status::DataLoss("snapshot CRC mismatch");
  }

  ByteReader reader(bytes.data(), payload_size);
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t reserved = 0;
  QSE_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kSnapshotMagic) return Status::DataLoss("bad snapshot magic");
  QSE_RETURN_IF_ERROR(reader.ReadU16(&version));
  if (version != kSnapshotVersion) {
    return Status::DataLoss("unknown snapshot version " +
                            std::to_string(version));
  }
  QSE_RETURN_IF_ERROR(reader.ReadU16(&reserved));

  SnapshotContents contents;
  QSE_RETURN_IF_ERROR(reader.ReadU64(&contents.cut_seq));
  QSE_RETURN_IF_ERROR(reader.ReadString(&contents.model_blob));
  uint64_t num_dbs = 0;
  QSE_RETURN_IF_ERROR(reader.ReadU64(&num_dbs));
  // Each db costs at least its shape header; cap the count before
  // reserving anything.
  if (num_dbs > reader.remaining()) {
    return Status::DataLoss("snapshot db count contradicts remaining bytes");
  }
  contents.dbs.reserve(num_dbs);
  for (uint64_t d = 0; d < num_dbs; ++d) {
    SnapshotContents::Db db;
    QSE_RETURN_IF_ERROR(reader.ReadU64(&db.dims));
    QSE_RETURN_IF_ERROR(reader.ReadU64(&db.rows));
    QSE_RETURN_IF_ERROR(reader.ReadDoubleVec(&db.data));
    QSE_RETURN_IF_ERROR(reader.ReadU64Vec(&db.ids));
    QSE_RETURN_IF_ERROR(ValidateDb(db));
    contents.dbs.push_back(std::move(db));
  }
  if (!reader.exhausted()) {
    return Status::DataLoss("snapshot payload has trailing bytes");
  }
  return contents;
}

Status InstallSnapshotDb(const SnapshotContents::Db& db,
                         EmbeddedDatabase* out) {
  QSE_RETURN_IF_ERROR(ValidateDb(db));
  // Dimensionalities must agree except for the one harmless case: an
  // empty image clears any database.
  if (db.dims != out->dims() && db.rows != 0) {
    return Status::FailedPrecondition(
        "snapshot dims " + std::to_string(db.dims) +
        " do not match database dims " + std::to_string(out->dims()));
  }
  out->RestoreVersion(db.rows, db.data.data(),
                      reinterpret_cast<const size_t*>(db.ids.data()));
  return Status::OK();
}

Status WriteSnapshotFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return ErrnoStatus("open snapshot temp", tmp);

  Status status;
  if (ConsumeFault(testing::FaultPoint::kSnapshotWrite)) {
    status = Status::IOError("injected fault: snapshot write " + tmp);
  } else {
    status = WriteFully(fd, bytes.data(), bytes.size(), tmp);
  }
  if (status.ok()) {
    if (ConsumeFault(testing::FaultPoint::kSnapshotFsync)) {
      status = Status::IOError("injected fault: snapshot fsync " + tmp);
    } else if (::fsync(fd) != 0) {
      status = ErrnoStatus("fsync snapshot temp", tmp);
    }
  }
  ::close(fd);
  if (!status.ok()) return status;  // The temp file is never read back.

  if (ConsumeFault(testing::FaultPoint::kSnapshotRename)) {
    return Status::IOError("injected fault: snapshot rename " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return ErrnoStatus("rename snapshot", path);
  }

  // Make the rename itself durable: fsync the containing directory.
  std::string dir = path;
  size_t slash = dir.find_last_of('/');
  dir = (slash == std::string::npos) ? std::string(".") : dir.substr(0, slash);
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

StatusOr<SnapshotContents> ReadSnapshotFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::NotFound("no snapshot at " + path);
  }
  std::ostringstream into;
  into << file.rdbuf();
  return DecodeSnapshot(into.str());
}

namespace testing {

void SetFaultPoint(FaultPoint point) {
  g_fault_point.store(static_cast<int>(point), std::memory_order_relaxed);
}

}  // namespace testing

}  // namespace persist
}  // namespace qse
