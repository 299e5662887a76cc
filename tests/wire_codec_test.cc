// Wire codec tests: envelope round-trip fidelity (bit-identical doubles,
// empty envelopes) plus fuzz-ish robustness — truncation
// at every byte boundary, oversized length prefixes, version/magic
// mismatch, and seeded random garbage must yield kInvalidArgument or
// kDataLoss, never a crash and never an allocation beyond the frame.
#include "src/net/wire_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/util/random.h"
#include "src/util/serialize.h"

namespace qse {
namespace net {
namespace {

WireRequest MakeRequest() {
  WireRequest request;
  request.op = WireOp::kScan;
  request.deadline_budget_ns = 1234567890123ull;
  request.want_trace = true;
  request.options.k = 7;
  request.options.p = 99;
  request.db_id = 0xDEADBEEFull;
  request.query = {0.1, -2.5, 1e300, -0.0,
                   std::numeric_limits<double>::denorm_min()};
  return request;
}

WireResponse MakeResponse() {
  WireResponse response;
  response.code = StatusCode::kOk;
  response.neighbors = {{41, 0.125}, {7, 0.25}, {1ull << 40, 1e-300}};
  response.rows = 150;
  response.rows_pruned = 31;
  response.rows_prescreened = 29;
  response.db_size = 150;
  response.spans = {{"server_scan", 100, 2000, 1}, {"filter", 150, 800, 2}};
  return response;
}

TEST(WireCodecTest, RequestRoundTripIsExact) {
  WireRequest want = MakeRequest();
  std::string payload = EncodeRequest(want);
  WireRequest got;
  ASSERT_TRUE(DecodeRequest(payload, &got).ok());
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.deadline_budget_ns, want.deadline_budget_ns);
  EXPECT_EQ(got.want_trace, want.want_trace);
  EXPECT_EQ(got.options.k, want.options.k);
  EXPECT_EQ(got.options.p, want.options.p);
  // No precision crosses the wire: the exact scan is the only one.
  EXPECT_EQ(got.options.filter_precision, FilterPrecision::kExact64);
  EXPECT_EQ(got.db_id, want.db_id);
  ASSERT_EQ(got.query.size(), want.query.size());
  for (size_t i = 0; i < want.query.size(); ++i) {
    // Bit patterns, not values: -0.0 and denormals must survive.
    uint64_t want_bits = 0, got_bits = 0;
    std::memcpy(&want_bits, &want.query[i], 8);
    std::memcpy(&got_bits, &got.query[i], 8);
    EXPECT_EQ(got_bits, want_bits) << "dim " << i;
  }
}

TEST(WireCodecTest, ResponseRoundTripIsExact) {
  WireResponse want = MakeResponse();
  std::string payload = EncodeResponse(want);
  WireResponse got;
  ASSERT_TRUE(DecodeResponse(payload, &got).ok());
  EXPECT_EQ(got.code, want.code);
  EXPECT_EQ(got.message, want.message);
  ASSERT_EQ(got.neighbors.size(), want.neighbors.size());
  for (size_t i = 0; i < want.neighbors.size(); ++i) {
    EXPECT_EQ(got.neighbors[i].index, want.neighbors[i].index);
    uint64_t want_bits = 0, got_bits = 0;
    std::memcpy(&want_bits, &want.neighbors[i].score, 8);
    std::memcpy(&got_bits, &got.neighbors[i].score, 8);
    EXPECT_EQ(got_bits, want_bits) << "neighbor " << i;
  }
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.rows_pruned, want.rows_pruned);
  EXPECT_EQ(got.rows_prescreened, want.rows_prescreened);
  EXPECT_EQ(got.db_size, want.db_size);
  ASSERT_EQ(got.spans.size(), want.spans.size());
  for (size_t i = 0; i < want.spans.size(); ++i) {
    EXPECT_EQ(got.spans[i].name, want.spans[i].name);
    EXPECT_EQ(got.spans[i].start_ns, want.spans[i].start_ns);
    EXPECT_EQ(got.spans[i].dur_ns, want.spans[i].dur_ns);
    EXPECT_EQ(got.spans[i].tid, want.spans[i].tid);
  }
}

std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 0xF];
  }
  return hex;
}

TEST(WireCodecTest, VersionSixBytesArePinned) {
  // The exact v6 layout, field by field: any change to the bytes a peer
  // sees must bump kWireVersion, and this fixture makes that visible.
  WireRequest request;
  request.op = WireOp::kScan;
  request.deadline_budget_ns = 0x0102030405060708ull;
  request.want_trace = true;
  request.options.k = 3;
  request.options.p = 40;
  request.db_id = 9;
  request.query = {1.5, -0.25};
  EXPECT_EQ(ToHex(EncodeRequest(request)),
            "51534557" "0600" "0100"    // magic, version, op kScan
            "0807060504030201"          // deadline_budget_ns
            "01"                        // want_trace
            "0300000000000000"          // k
            "2800000000000000"          // p
            "0900000000000000"          // db_id
            "0200000000000000"          // query: 2 doubles
            "000000000000f83f" "000000000000d0bf");

  WireResponse response;
  response.code = StatusCode::kNotFound;
  response.message = "partial";
  response.rows = 100;
  response.rows_pruned = 60;
  response.rows_prescreened = 30;
  response.db_size = 200;
  response.neighbors = {{17, 0.5}, {4, 2.0}};
  response.spans = {{"scan", 10, 250, 7}};
  EXPECT_EQ(ToHex(EncodeResponse(response)),
            "51534557" "0600" "0080"    // magic, version, kResponseTag
            "02"                        // code
            "0700000000000000"          // message "partial"
            "7061727469616c"
            "6400000000000000"          // rows
            "3c00000000000000"          // rows_pruned
            "1e00000000000000"          // rows_prescreened
            "c800000000000000"          // db_size
            "0200000000000000"          // 2 neighbours: (id, score)
            "1100000000000000" "000000000000e03f"
            "0400000000000000" "0000000000000040"
            "0100000000000000"          // 1 span
            "0400000000000000"          // name "scan"
            "7363616e"
            "0a00000000000000"          // start_ns
            "fa00000000000000"          // dur_ns
            "07000000");                // tid
}

TEST(WireCodecTest, EmptyEnvelopesRoundTrip) {
  // The OK-empty scan result (empty remote shard) and an error response
  // with no payload both matter for the serving contract.
  WireResponse empty;
  WireResponse got;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(empty), &got).ok());
  EXPECT_EQ(got.code, StatusCode::kOk);
  EXPECT_TRUE(got.neighbors.empty());
  EXPECT_TRUE(got.spans.empty());
  EXPECT_EQ(got.rows, 0u);

  WireResponse error;
  error.code = StatusCode::kFailedPrecondition;
  error.message = "embedded database is empty";
  ASSERT_TRUE(DecodeResponse(EncodeResponse(error), &got).ok());
  EXPECT_EQ(got.code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(got.message, "embedded database is empty");

  WireRequest info;
  info.op = WireOp::kInfo;
  WireRequest got_req;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(info), &got_req).ok());
  EXPECT_EQ(got_req.op, WireOp::kInfo);
  EXPECT_TRUE(got_req.query.empty());
}

TEST(WireCodecTest, EveryStatusCodeSurvivesTheWire) {
  for (uint8_t c = 0; c <= static_cast<uint8_t>(StatusCode::kDataLoss); ++c) {
    WireResponse response;
    response.code = static_cast<StatusCode>(c);
    response.message = "m";
    WireResponse got;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(response), &got).ok());
    EXPECT_EQ(got.code, response.code);
  }
}

TEST(WireCodecTest, TruncationAtEveryBoundaryIsAnError) {
  const std::string request = EncodeRequest(MakeRequest());
  for (size_t len = 0; len < request.size(); ++len) {
    WireRequest out;
    Status status = DecodeRequest(request.substr(0, len), &out);
    ASSERT_FALSE(status.ok()) << "prefix length " << len;
    EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
                status.code() == StatusCode::kInvalidArgument)
        << "prefix length " << len << ": " << status.message();
  }
  const std::string response = EncodeResponse(MakeResponse());
  for (size_t len = 0; len < response.size(); ++len) {
    WireResponse out;
    Status status = DecodeResponse(response.substr(0, len), &out);
    ASSERT_FALSE(status.ok()) << "prefix length " << len;
    EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
                status.code() == StatusCode::kInvalidArgument)
        << "prefix length " << len << ": " << status.message();
  }
}

TEST(WireCodecTest, TrailingBytesAreDataLoss) {
  std::string payload = EncodeRequest(MakeRequest()) + "x";
  WireRequest out;
  EXPECT_EQ(DecodeRequest(payload, &out).code(), StatusCode::kDataLoss);
  std::string response = EncodeResponse(MakeResponse()) + std::string(3, '\0');
  WireResponse rout;
  EXPECT_EQ(DecodeResponse(response, &rout).code(), StatusCode::kDataLoss);
}

TEST(WireCodecTest, BadMagicAndVersionAreInvalidArgument) {
  std::string payload = EncodeRequest(MakeRequest());
  std::string bad_magic = payload;
  bad_magic[0] ^= 0xFF;
  WireRequest out;
  EXPECT_EQ(DecodeRequest(bad_magic, &out).code(),
            StatusCode::kInvalidArgument);

  std::string bad_version = payload;
  bad_version[4] = 99;  // u16 version follows the u32 magic
  EXPECT_EQ(DecodeRequest(bad_version, &out).code(),
            StatusCode::kInvalidArgument);

  // Version 5 still carried a want_stats byte and a server-side
  // retrieval op; a peer speaking it is refused by version, whatever its
  // body holds.
  std::string version_five = payload;
  version_five[4] = 5;
  version_five[5] = 0;
  EXPECT_EQ(DecodeRequest(version_five, &out).code(),
            StatusCode::kInvalidArgument);

  std::string bad_op = payload;
  bad_op[6] = 77;  // u16 tag follows the version
  EXPECT_EQ(DecodeRequest(bad_op, &out).code(), StatusCode::kInvalidArgument);
  // Tag 2 named the removed server-side retrieval: an unknown op now.
  bad_op[6] = 2;
  Status retrieve = DecodeRequest(bad_op, &out);
  EXPECT_EQ(retrieve.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(retrieve.message().find("unknown wire op 2"), std::string::npos)
      << retrieve;

  // A response frame handed to the request decoder (and vice versa).
  WireResponse rout;
  EXPECT_EQ(DecodeResponse(payload, &rout).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeRequest(EncodeResponse(MakeResponse()), &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, OutOfRangeEnumsAreInvalidArgument) {
  // Patch encoded enum bytes past their ranges; offsets derived by
  // re-encoding with a sentinel is brittle, so rebuild by hand instead:
  // preamble(8) + budget(8) = 16 is want_trace.
  std::string payload = EncodeRequest(MakeRequest());
  WireRequest out;
  std::string bad = payload;
  bad[16] = 2;  // want_trace flag
  EXPECT_EQ(DecodeRequest(bad, &out).code(), StatusCode::kInvalidArgument);

  std::string response = EncodeResponse(MakeResponse());
  WireResponse rout;
  response[8] = 121;  // status code byte right after the preamble
  EXPECT_EQ(DecodeResponse(response, &rout).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, VersionTwoFrameNamingAReducedPrecisionIsInvalidArgument) {
  // Version 2 carried a filter-precision byte after the priority; a peer
  // still speaking it cannot smuggle kFilter8 into a version-6 server.
  ByteWriter w;
  w.WriteU32(kWireMagic);
  w.WriteU16(2);
  w.WriteU16(static_cast<uint16_t>(WireOp::kScan));
  w.WriteU64(0);  // budget
  w.WriteU8(0);   // want_trace
  w.WriteU64(1);  // k
  w.WriteU64(1);  // p
  w.WriteU64(0);  // num_threads
  w.WriteU8(0);   // want_stats
  w.WriteU8(0);   // priority
  w.WriteU8(static_cast<uint8_t>(FilterPrecision::kFilter8));
  w.WriteString("");
  w.WriteU64(0);  // db_id
  w.WriteDoubleVec(std::vector<double>{0.5});
  WireRequest req;
  Status status = DecodeRequest(w.bytes(), &req);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version"), std::string::npos) << status;
}

TEST(WireCodecTest, OversizedLengthPrefixesNeverAllocate) {
  // A frame whose vector claims 2^60 doubles: the decoder must refuse
  // from the length prefix alone.  If it tried to allocate first, this
  // test would OOM rather than fail an expectation.
  ByteWriter w;
  w.WriteU32(kWireMagic);
  w.WriteU16(kWireVersion);
  w.WriteU16(static_cast<uint16_t>(WireOp::kScan));
  w.WriteU64(0);  // budget
  w.WriteU8(0);   // want_trace
  w.WriteU64(1);  // k
  w.WriteU64(1);  // p
  w.WriteU64(0);            // db_id
  w.WriteU64(1ull << 60);   // query length prefix, then nothing
  WireRequest req;
  EXPECT_EQ(DecodeRequest(w.bytes(), &req).code(), StatusCode::kDataLoss);

  // Same for the response's neighbor count.
  ByteWriter rw;
  rw.WriteU32(kWireMagic);
  rw.WriteU16(kWireVersion);
  rw.WriteU16(kResponseTag);
  rw.WriteU8(0);  // kOk
  rw.WriteString("");
  for (int i = 0; i < 4; ++i) rw.WriteU64(0);  // counters
  rw.WriteU64(1ull << 59);                     // neighbor count
  WireResponse wr;
  EXPECT_EQ(DecodeResponse(rw.bytes(), &wr).code(), StatusCode::kDataLoss);
}

TEST(WireCodecTest, FieldCapsAreEnforcedEvenWhenBytesMatch) {
  // A dimension count over kMaxWireDims whose byte length is honest is
  // still refused: plausibility caps bound decoded allocations by
  // policy, not only by frame size.
  ByteWriter w;
  w.WriteU32(kWireMagic);
  w.WriteU16(kWireVersion);
  w.WriteU16(static_cast<uint16_t>(WireOp::kScan));
  w.WriteU64(0);
  w.WriteU8(0);
  w.WriteU64(1);
  w.WriteU64(1);
  w.WriteU64(0);
  w.WriteDoubleVec(std::vector<double>(kMaxWireDims + 1, 0.5));
  WireRequest req;
  EXPECT_EQ(DecodeRequest(w.bytes(), &req).code(), StatusCode::kDataLoss);
}

TEST(WireCodecTest, RandomGarbageNeverCrashes) {
  Rng rng(20260808);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 256));
    std::string garbage(len, '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    WireRequest req;
    WireResponse resp;
    Status rs = DecodeRequest(garbage, &req);
    Status ps = DecodeResponse(garbage, &resp);
    // Random bytes essentially never form a valid frame (the magic
    // alone is a 2^-32 accident); both failure codes are acceptable.
    if (!rs.ok()) {
      EXPECT_TRUE(rs.code() == StatusCode::kDataLoss ||
                  rs.code() == StatusCode::kInvalidArgument);
    }
    if (!ps.ok()) {
      EXPECT_TRUE(ps.code() == StatusCode::kDataLoss ||
                  ps.code() == StatusCode::kInvalidArgument);
    }
  }
}

TEST(WireCodecTest, MutatedValidFramesNeverCrash) {
  // Flip bytes in valid frames — the adversarial neighborhood of real
  // traffic, where decoders that trust any internal length die.
  Rng rng(77);
  const std::string request = EncodeRequest(MakeRequest());
  const std::string response = EncodeResponse(MakeResponse());
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = (iter % 2 == 0) ? request : response;
    const int flips = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int f = 0; f < flips; ++f) {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    WireRequest req;
    WireResponse resp;
    // Decode both ways; outcomes may be OK (the flip hit a don't-care
    // byte) or either error code — anything but a crash or hang.
    (void)DecodeRequest(mutated, &req);
    (void)DecodeResponse(mutated, &resp);
  }
}

TEST(ByteReaderTest, ScalarsAndBounds) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0xCDEF);
  w.WriteU32(0x12345678);
  w.WriteU64(1ull << 50);
  const std::string buf = w.bytes();
  ByteReader r(buf);
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  EXPECT_EQ(r.remaining(), buf.size());
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU16(&u16).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xCDEF);
  EXPECT_EQ(u32, 0x12345678u);
  EXPECT_EQ(u64, 1ull << 50);
  EXPECT_TRUE(r.RequireExhausted().ok());
  // One more read past the end: kDataLoss, not UB.
  EXPECT_EQ(r.ReadU8(&u8).code(), StatusCode::kDataLoss);
}

TEST(ByteReaderTest, LengthPrefixValidatedBeforeResize) {
  ByteWriter w;
  w.WriteU64(1ull << 61);  // claims more doubles than bytes exist
  const std::string buf = w.bytes();
  ByteReader r(buf);
  std::vector<double> v;
  EXPECT_EQ(r.ReadDoubleVec(&v).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(v.empty());
}

TEST(ByteReaderTest, MaxElemsCapApplies) {
  ByteWriter w;
  w.WriteString("abcdefgh");
  const std::string buf = w.bytes();
  ByteReader ok_reader(buf);
  std::string s;
  EXPECT_TRUE(ok_reader.ReadString(&s, 8).ok());
  EXPECT_EQ(s, "abcdefgh");
  ByteReader capped_reader(buf);
  EXPECT_EQ(capped_reader.ReadString(&s, 7).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace net
}  // namespace qse
