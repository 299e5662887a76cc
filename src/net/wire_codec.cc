#include "src/net/wire_codec.h"

#include <sstream>

#include "src/util/serialize.h"

namespace qse {
namespace net {
namespace {

/// Writes the shared preamble.
void WritePreamble(BinaryWriter* w, uint16_t tag) {
  w->WriteU32(kWireMagic);
  w->WriteU16(kWireVersion);
  w->WriteU16(tag);
}

/// Checks magic and version, returns the tag.  Bad magic / version are
/// kInvalidArgument: the frame arrived intact (framing said so), its
/// content is what we refuse.
Status ReadPreamble(ByteReader* r, uint16_t* tag) {
  uint32_t magic = 0;
  uint16_t version = 0;
  QSE_RETURN_IF_ERROR(r->ReadU32(&magic));
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad wire magic");
  }
  QSE_RETURN_IF_ERROR(r->ReadU16(&version));
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(version) + " (speaking " +
                                   std::to_string(kWireVersion) + ")");
  }
  return r->ReadU16(tag);
}

/// A well-formed frame ends exactly where its fields do.
Status RequireExhausted(const ByteReader& r) {
  if (!r.exhausted()) {
    return Status::DataLoss(std::to_string(r.remaining()) +
                            " trailing bytes in frame");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeRequest(const WireRequest& request) {
  std::ostringstream out;
  BinaryWriter w(&out);
  WritePreamble(&w, static_cast<uint16_t>(request.op));
  w.WriteU64(request.deadline_budget_ns);
  w.WriteU8(request.want_trace ? 1 : 0);
  w.WriteU64(request.options.k);
  w.WriteU64(request.options.p);
  w.WriteU8(request.options.want_stats ? 1 : 0);
  w.WriteU64(request.db_id);
  w.WriteDoubleVec(request.query);
  return out.str();
}

Status DecodeRequest(const std::string& payload, WireRequest* out) {
  ByteReader r(payload);
  uint16_t tag = 0;
  QSE_RETURN_IF_ERROR(ReadPreamble(&r, &tag));
  if (tag < static_cast<uint16_t>(WireOp::kScan) ||
      tag > static_cast<uint16_t>(WireOp::kInfo)) {
    return Status::InvalidArgument("unknown wire op " + std::to_string(tag));
  }
  out->op = static_cast<WireOp>(tag);
  QSE_RETURN_IF_ERROR(r.ReadU64(&out->deadline_budget_ns));
  uint8_t want_trace = 0;
  QSE_RETURN_IF_ERROR(r.ReadU8(&want_trace));
  if (want_trace > 1) {
    return Status::InvalidArgument("want_trace flag out of range");
  }
  out->want_trace = want_trace != 0;
  uint64_t k = 0, p = 0;
  QSE_RETURN_IF_ERROR(r.ReadU64(&k));
  QSE_RETURN_IF_ERROR(r.ReadU64(&p));
  out->options.k = static_cast<size_t>(k);
  out->options.p = static_cast<size_t>(p);
  uint8_t want_stats = 0;
  QSE_RETURN_IF_ERROR(r.ReadU8(&want_stats));
  if (want_stats > 1) {
    return Status::InvalidArgument("want_stats flag out of range");
  }
  out->options.want_stats = want_stats != 0;
  QSE_RETURN_IF_ERROR(r.ReadU64(&out->db_id));
  QSE_RETURN_IF_ERROR(r.ReadDoubleVec(&out->query, kMaxWireDims));
  return RequireExhausted(r);
}

std::string EncodeResponse(const WireResponse& response) {
  std::ostringstream out;
  BinaryWriter w(&out);
  WritePreamble(&w, kResponseTag);
  w.WriteU8(static_cast<uint8_t>(response.code));
  w.WriteString(response.message);
  w.WriteU64(response.exact_distances);
  w.WriteU64(response.embedding_distances);
  w.WriteU64(response.rows);
  w.WriteU64(response.rows_pruned);
  w.WriteU64(response.rows_prescreened);
  w.WriteU64(response.db_size);
  w.WriteU64(response.neighbors.size());
  for (const ScoredIndex& n : response.neighbors) {
    w.WriteU64(n.index);
    w.WriteDouble(n.score);
  }
  w.WriteU64(response.shard_stats.size());
  for (const ShardScanStats& s : response.shard_stats) {
    w.WriteU64(s.rows);
    w.WriteU64(s.candidates);
  }
  w.WriteU64(response.spans.size());
  for (const WireSpan& s : response.spans) {
    w.WriteString(s.name);
    w.WriteU64(s.start_ns);
    w.WriteU64(s.dur_ns);
    w.WriteU32(s.tid);
  }
  return out.str();
}

Status DecodeResponse(const std::string& payload, WireResponse* out) {
  ByteReader r(payload);
  uint16_t tag = 0;
  QSE_RETURN_IF_ERROR(ReadPreamble(&r, &tag));
  if (tag != kResponseTag) {
    return Status::InvalidArgument("frame is not a response (tag " +
                                   std::to_string(tag) + ")");
  }
  uint8_t code = 0;
  QSE_RETURN_IF_ERROR(r.ReadU8(&code));
  if (code > static_cast<uint8_t>(StatusCode::kDataLoss)) {
    return Status::InvalidArgument("unknown status code " +
                                   std::to_string(code));
  }
  out->code = static_cast<StatusCode>(code);
  QSE_RETURN_IF_ERROR(r.ReadString(&out->message, kMaxWireMessage));
  QSE_RETURN_IF_ERROR(r.ReadU64(&out->exact_distances));
  QSE_RETURN_IF_ERROR(r.ReadU64(&out->embedding_distances));
  QSE_RETURN_IF_ERROR(r.ReadU64(&out->rows));
  QSE_RETURN_IF_ERROR(r.ReadU64(&out->rows_pruned));
  QSE_RETURN_IF_ERROR(r.ReadU64(&out->rows_prescreened));
  QSE_RETURN_IF_ERROR(r.ReadU64(&out->db_size));

  // Repeated groups: validate each count against both its plausibility
  // cap and the bytes still in the frame before reserving anything.
  uint64_t num_neighbors = 0;
  QSE_RETURN_IF_ERROR(r.ReadU64(&num_neighbors));
  if (num_neighbors > kMaxWireNeighbors ||
      num_neighbors > r.remaining() / 16) {
    return Status::DataLoss("neighbor count implausible: " +
                            std::to_string(num_neighbors));
  }
  out->neighbors.clear();
  out->neighbors.reserve(num_neighbors);
  for (uint64_t i = 0; i < num_neighbors; ++i) {
    uint64_t index = 0;
    double score = 0;
    QSE_RETURN_IF_ERROR(r.ReadU64(&index));
    QSE_RETURN_IF_ERROR(r.ReadDouble(&score));
    out->neighbors.push_back({static_cast<size_t>(index), score});
  }

  uint64_t num_stats = 0;
  QSE_RETURN_IF_ERROR(r.ReadU64(&num_stats));
  if (num_stats > kMaxWireShardStats || num_stats > r.remaining() / 16) {
    return Status::DataLoss("shard stat count implausible: " +
                            std::to_string(num_stats));
  }
  out->shard_stats.clear();
  out->shard_stats.reserve(num_stats);
  for (uint64_t i = 0; i < num_stats; ++i) {
    uint64_t rows = 0, candidates = 0;
    QSE_RETURN_IF_ERROR(r.ReadU64(&rows));
    QSE_RETURN_IF_ERROR(r.ReadU64(&candidates));
    out->shard_stats.push_back(
        {static_cast<size_t>(rows), static_cast<size_t>(candidates)});
  }

  uint64_t num_spans = 0;
  QSE_RETURN_IF_ERROR(r.ReadU64(&num_spans));
  // A span is at least 28 bytes (8-byte name length + 8 + 8 + 4).
  if (num_spans > kMaxWireSpans || num_spans > r.remaining() / 28) {
    return Status::DataLoss("span count implausible: " +
                            std::to_string(num_spans));
  }
  out->spans.clear();
  out->spans.reserve(num_spans);
  for (uint64_t i = 0; i < num_spans; ++i) {
    WireSpan span;
    QSE_RETURN_IF_ERROR(r.ReadString(&span.name, kMaxWireSpanName));
    QSE_RETURN_IF_ERROR(r.ReadU64(&span.start_ns));
    QSE_RETURN_IF_ERROR(r.ReadU64(&span.dur_ns));
    QSE_RETURN_IF_ERROR(r.ReadU32(&span.tid));
    out->spans.push_back(std::move(span));
  }
  return RequireExhausted(r);
}

}  // namespace net
}  // namespace qse
