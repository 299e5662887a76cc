#include "src/util/status.h"

#include <sstream>

#include <gtest/gtest.h>

#include "src/util/statusor.h"

namespace qse {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Status::InvalidArgument("bad").message(), "bad");
}

TEST(StatusTest, EveryEnumeratorRoundTripsThroughFactoryAndName) {
  // One row per enumerator: keep this table in sync with StatusCode so a
  // new code cannot land without a factory and a stable name.
  const struct {
    Status status;
    StatusCode code;
    const char* name;
  } kCases[] = {
      {Status::OK(), StatusCode::kOk, "OK"},
      {Status::InvalidArgument("m"), StatusCode::kInvalidArgument,
       "INVALID_ARGUMENT"},
      {Status::NotFound("m"), StatusCode::kNotFound, "NOT_FOUND"},
      {Status::OutOfRange("m"), StatusCode::kOutOfRange, "OUT_OF_RANGE"},
      {Status::FailedPrecondition("m"), StatusCode::kFailedPrecondition,
       "FAILED_PRECONDITION"},
      {Status::Internal("m"), StatusCode::kInternal, "INTERNAL"},
      {Status::IOError("m"), StatusCode::kIOError, "IO_ERROR"},
      // No factory: only the wire decodes this code.
      {Status(StatusCode::kUnimplemented, "m"), StatusCode::kUnimplemented,
       "UNIMPLEMENTED"},
      {Status::DeadlineExceeded("m"), StatusCode::kDeadlineExceeded,
       "DEADLINE_EXCEEDED"},
      {Status::ResourceExhausted("m"), StatusCode::kResourceExhausted,
       "RESOURCE_EXHAUSTED"},
      {Status::Unavailable("m"), StatusCode::kUnavailable, "UNAVAILABLE"},
      {Status::DataLoss("m"), StatusCode::kDataLoss, "DATA_LOSS"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(c.status.code(), c.code) << c.name;
    EXPECT_STREQ(StatusCodeToString(c.code), c.name);
    if (c.status.ok()) {
      EXPECT_EQ(c.status.ToString(), "OK");
    } else {
      EXPECT_EQ(c.status.message(), "m") << c.name;
      EXPECT_EQ(c.status.ToString(), std::string(c.name) + ": m");
    }
  }
  // Names are pairwise distinct: ToString never aliases two codes.
  for (const auto& a : kCases) {
    for (const auto& b : kCases) {
      if (a.code != b.code) EXPECT_STRNE(a.name, b.name);
    }
  }
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  Status s = Status::NotFound("missing file");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing file");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_NE(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_NE(Status::NotFound("a"), Status::Internal("a"));
  EXPECT_EQ(Status::OK(), Status());
}

TEST(StatusTest, StreamInsertion) {
  std::ostringstream os;
  os << Status::Internal("boom");
  EXPECT_EQ(os.str(), "INTERNAL: boom");
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIOError), "IO_ERROR");
}

Status FailsThenPropagates(bool fail) {
  QSE_RETURN_IF_ERROR(fail ? Status::Internal("inner") : Status::OK());
  return Status::NotFound("outer");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThenPropagates(true).code(), StatusCode::kInternal);
  EXPECT_EQ(FailsThenPropagates(false).code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, OkStatusWithoutValueBecomesInternal) {
  StatusOr<int> v = Status::OK();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> s = std::string("hello");
  std::string moved = std::move(s).value();
  EXPECT_EQ(moved, "hello");
}

TEST(StatusOrTest, ArrowOperator) {
  StatusOr<std::string> s = std::string("hello");
  EXPECT_EQ(s->size(), 5u);
}

StatusOr<int> MaybeDouble(StatusOr<int> in) {
  QSE_ASSIGN_OR_RETURN(int v, in);
  return 2 * v;
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  StatusOr<int> ok = MaybeDouble(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  StatusOr<int> bad = MaybeDouble(Status::OutOfRange("x"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace qse
