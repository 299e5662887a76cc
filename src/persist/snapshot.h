#ifndef QSE_PERSIST_SNAPSHOT_H_
#define QSE_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/retrieval/embedded_database.h"
#include "src/util/status.h"
#include "src/util/statusor.h"

namespace qse {
namespace persist {

/// Compacted snapshots: a point-in-time image of the embedding model blob
/// plus every shard's embedded matrix — float64 rows and ids, VERBATIM —
/// taken from database snapshots at a WAL sequence cut-point.  Restoring
/// a snapshot and replaying the WAL records with seq > cut_seq
/// reproduces the crashed process's answers bit-for-bit.  The int8
/// matrix the scan prescreens on is a cache of the float64 rows and is
/// not stored: RestoreVersion rebuilds it, and the prescreen is
/// lossless, so no result depends on its scales.
///
/// Payload layout (host-order little-endian, util/serialize contract):
///
///     u32 magic "QSES" | u16 version | u16 reserved | u64 cut_seq |
///     string model_blob | u64 num_dbs | num_dbs x {
///       u64 dims | u64 rows | f64vec data (rows*dims) | u64vec ids (rows)
///     }
///
/// Version 2 dropped version 1's per-db shadow mask and shadow matrices;
/// a version-1 snapshot fails kDataLoss like any unknown version.
///
/// followed by a trailing u32 CRC32 over the whole payload.  Decode runs
/// through the bounds-checked ByteReader, validates every count against
/// the declared shape, and only after the CRC has vouched for the bytes —
/// a torn or tampered snapshot fails kDataLoss, it never crashes and
/// never silently restores wrong rows.
///
/// Publication is atomic: encode in memory, write `<path>.tmp`, fsync,
/// rename over `<path>`.  Recovery reads only `<path>`, so a crash at any
/// point of the protocol leaves either the old snapshot or the new one
/// visible — never a torn hybrid.
inline constexpr uint32_t kSnapshotMagic = 0x53455351u;  // "QSES"
inline constexpr uint16_t kSnapshotVersion = 2;
/// Same dims plausibility cap as the WAL and the wire codec.
inline constexpr uint64_t kMaxSnapshotDims = 1u << 20;

/// A decoded snapshot, shaped for EmbeddedDatabase::RestoreVersion.
struct SnapshotContents {
  struct Db {
    uint64_t dims = 0;
    uint64_t rows = 0;
    std::vector<double> data;   // rows * dims.
    std::vector<uint64_t> ids;  // rows.
  };

  uint64_t cut_seq = 0;
  std::string model_blob;
  std::vector<Db> dbs;
};

/// Encodes (model blob, db views) into snapshot bytes, trailing CRC
/// included.  The views must all be alive (their snapshots held, or the
/// databases quiescent) for the duration of the call; nothing else is
/// required — published versions are immutable, so encoding runs
/// outside any mutation lock.
std::string EncodeSnapshot(uint64_t cut_seq, const std::string& model_blob,
                           const std::vector<EmbeddedDatabase::View>& dbs);

/// Decodes and fully validates snapshot bytes.  kDataLoss on any
/// structural violation (bad magic/version, CRC mismatch, count that
/// contradicts the declared shape, trailing bytes).
StatusOr<SnapshotContents> DecodeSnapshot(const std::string& bytes);

/// Installs one decoded db image into `out` (RestoreVersion: rows and ids
/// verbatim, the int8 matrix rebuilt).
/// kFailedPrecondition when the dimensionalities disagree on a non-empty
/// image; an empty image restores an empty database regardless.
Status InstallSnapshotDb(const SnapshotContents::Db& db,
                         EmbeddedDatabase* out);

/// Atomically publishes `bytes` at `path` via write-temp / fsync /
/// rename (+ directory fsync).  On any failure the previous snapshot at
/// `path`, if one exists, is untouched and still valid.
Status WriteSnapshotFile(const std::string& path, const std::string& bytes);

/// Reads and decodes the snapshot at `path`.  kNotFound when the file
/// does not exist (fresh directory — recovery proceeds WAL-only);
/// kDataLoss when it exists but fails validation.
StatusOr<SnapshotContents> ReadSnapshotFile(const std::string& path);

namespace testing {

/// Fault-injection points for the snapshot-publish protocol.  Setting a
/// point makes the NEXT matching I/O step fail with kIOError, consumed
/// once — the fsync-policy matrix test drives every point and asserts a
/// torn snapshot is never visible to recovery.
enum class FaultPoint {
  kNone = 0,
  kSnapshotWrite,
  kSnapshotFsync,
  kSnapshotRename,
};

void SetFaultPoint(FaultPoint point);

}  // namespace testing

}  // namespace persist
}  // namespace qse

#endif  // QSE_PERSIST_SNAPSHOT_H_
