#ifndef QSE_NET_WIRE_CODEC_H_
#define QSE_NET_WIRE_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/retrieval/retrieval_backend.h"
#include "src/util/status.h"
#include "src/util/top_k.h"

namespace qse {
namespace net {

/// The QSE wire protocol, version 6.  Version 2 added the kScan
/// response's rows_prescreened counter; version 3 dropped the request's
/// filter-precision byte, because the exact scan is the only one: a
/// decoded request is always kExact64, and a sender validates its
/// options first (RemoteRetrievalBackend rejects a reduced precision as
/// InvalidArgument before anything is sent).  Version 4 dropped the
/// request's priority byte and tenant string, because admission is one
/// FIFO queue.  Version 5 dropped the request's u64 num_threads, because
/// a request no longer picks its execution parallelism.  Version 6
/// dropped the server-side retrieval op (tag 2, now an unknown op), the
/// response fields only it filled (exact and embedding distance counts,
/// per-shard stats) and the request's want_stats byte: a remote read is
/// a kScan refined by the client.  A frame of any older version is
/// refused as an unsupported version.
///
/// Every message travels as one length-prefixed frame
/// (`[u32 length][payload]`, Socket::SendFrame/RecvFrame) whose payload
/// starts with a fixed preamble:
///
///     u32 magic    "QSEW"           — frame is a QSE wire payload
///     u16 version  kWireVersion     — whole-payload layout version
///     u16 tag      WireOp / kResponseTag
///
/// All integers and doubles are host-order little-endian, the same
/// contract as util/serialize (nodes of one deployment share an
/// architecture family).  Doubles cross the wire as raw bit patterns, so
/// scores round-trip bit-identically.
///
/// Decoding is defensive end to end: every length prefix is validated
/// against the bytes actually remaining in the frame BEFORE any
/// allocation (util/serialize ByteReader), plus per-field plausibility
/// caps.  Structural violations are kDataLoss; well-framed but
/// unacceptable content (bad magic, unknown version or op, out-of-range
/// enums) is kInvalidArgument.  A decoder never crashes and never
/// allocates more than the frame it was handed.
inline constexpr uint32_t kWireMagic = 0x57455351u;  // "QSEW" little-endian
inline constexpr uint16_t kWireVersion = 6;

/// Frames a conforming peer may send; anything larger is a framing error
/// (kDataLoss) and the connection is dropped without allocating.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Plausibility caps for individual fields (all far above anything the
/// serving stack produces, all small enough that a hostile prefix cannot
/// balloon memory).
inline constexpr uint64_t kMaxWireDims = 1u << 20;
inline constexpr uint64_t kMaxWireNeighbors = 1u << 22;
inline constexpr uint64_t kMaxWireSpans = 8192;
inline constexpr uint64_t kMaxWireSpanName = 256;
inline constexpr uint64_t kMaxWireMessage = 1u << 16;

/// Request operations.  Tag 2 named a removed server-side retrieval and
/// decodes as an unknown op.
enum class WireOp : uint16_t {
  /// Filter-only scan of the server's backend: `query` is the EMBEDDED
  /// query, the response carries the backend's top-p as (db id, filter
  /// score).  The client refines with its own dx — the closure that
  /// cannot cross the wire — so a scatter over kScan shards is
  /// bit-identical to an in-process engine over the same shards.
  kScan = 1,
  /// Insert `query` (an EMBEDDED row) under `db_id`.
  kInsert = 3,
  /// Remove `db_id`.
  kRemove = 4,
  /// Backend info (currently: size) — the remote size() probe.
  kInfo = 5,
};

/// The payload tag marking a response frame.
inline constexpr uint16_t kResponseTag = 0x8000;

/// One request envelope.  `options.deadline` does NOT cross the wire
/// (absolute monotonic times mean nothing to another process); the
/// REMAINING budget does, and the decoder re-anchors it: DecodeRequest
/// leaves options.deadline untouched, and RetrievalServer sets it to
/// arrival + deadline_budget_ns.  Of the options only k and p cross:
/// filter_precision is always kExact64, want_stats is the client's to
/// fill from the scan's rows, and audit_monitor is client-side only.
struct WireRequest {
  WireOp op = WireOp::kScan;
  /// Remaining deadline budget at send time, 0 = no deadline.  The
  /// server rejects a request whose budget is already exhausted on
  /// arrival with kDeadlineExceeded, before scanning anything.
  uint64_t deadline_budget_ns = 0;
  /// When true the server records spans for this request and returns
  /// them in the response, so one sampled trace covers client and
  /// server work.
  bool want_trace = false;
  RetrievalOptions options;
  /// kInsert / kRemove target.
  uint64_t db_id = 0;
  /// kScan: embedded query; kInsert: embedded row.
  std::vector<double> query;
};

/// One server-side span, times in ns relative to the SERVER's receipt of
/// the request.  The client grafts these onto its own trace at the RPC
/// span's start (clocks of two processes are never compared).  Span args
/// do not cross the wire.
struct WireSpan {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;
};

/// One response envelope: a Status plus whichever result fields the op
/// fills.  `neighbors.index` values are database ids, as on every
/// backend.
struct WireResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  /// kScan: the filter top-p candidates.
  std::vector<ScoredIndex> neighbors;
  /// kScan accounting (ScanCandidatesResult::rows / rows_pruned /
  /// rows_prescreened).
  uint64_t rows = 0;
  uint64_t rows_pruned = 0;
  uint64_t rows_prescreened = 0;
  /// kInfo, and piggybacked on successful mutations.
  uint64_t db_size = 0;
  /// Server-side spans for want_trace requests.
  std::vector<WireSpan> spans;
};

/// Serializes a request into a frame payload (preamble included, length
/// prefix excluded — the transport adds that).
std::string EncodeRequest(const WireRequest& request);

/// Parses a frame payload into `out`.  kInvalidArgument for well-framed
/// but unacceptable content, kDataLoss for structural corruption; `out`
/// is unspecified on error.
Status DecodeRequest(const std::string& payload, WireRequest* out);

std::string EncodeResponse(const WireResponse& response);
Status DecodeResponse(const std::string& payload, WireResponse* out);

}  // namespace net
}  // namespace qse

#endif  // QSE_NET_WIRE_CODEC_H_
