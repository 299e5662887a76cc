#include "src/retrieval/embedded_database.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "src/retrieval/filter_precision.h"
#include "src/util/logging.h"

namespace qse {

namespace {
/// Buffers below this size are not worth a madvise syscall.
constexpr size_t kHugePageAdviseBytes = 8u << 20;
/// Smallest row capacity a copy-on-write growth allocates.
constexpr size_t kMinCapacityRows = 4;

/// Asks the kernel to back `bytes` at `p` with transparent huge pages
/// once the buffer is large enough to care (Linux, THP=madvise systems;
/// no-op elsewhere).  A multi-hundred-MB scan through 4 KiB pages pays a
/// TLB walk every two rows at d = 256 — measured ~8% of the whole filter
/// step.  Version buffers never move after allocation, so advising once
/// at construction covers their lifetime.
void MaybeAdviseHugePages(const void* p, size_t bytes) {
#ifdef __linux__
  if (bytes < kHugePageAdviseBytes) return;
  // madvise wants page-aligned addresses; round the buffer inward.  Ask
  // the OS for the page size — arm64 kernels commonly run 16K/64K pages
  // and a hardcoded 4096 would make every madvise fail with EINVAL.
  static const uintptr_t kPage =
      static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  uintptr_t begin = reinterpret_cast<uintptr_t>(p);
  uintptr_t end = begin + bytes;
  uintptr_t aligned_begin = (begin + kPage - 1) & ~(kPage - 1);
  uintptr_t aligned_end = end & ~(kPage - 1);
  if (aligned_end > aligned_begin) {
    // Best effort: kernels without THP simply refuse.
    (void)madvise(reinterpret_cast<void*>(aligned_begin),
                  aligned_end - aligned_begin, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}
}  // namespace

EmbeddedDatabase::Version::Version(size_t dims, size_t capacity)
    : capacity_rows(capacity) {
  // Capacity is reserved up front and never exceeded, so data()/ids()
  // pointers handed to pinned readers stay stable for the version's
  // whole lifetime.  The int8 matrix follows the same discipline.
  data.reserve(capacity * dims);
  ids.reserve(capacity);
  i8.reserve(capacity * dims);
}

EmbeddedDatabase::EmbeddedDatabase(size_t dims) : dims_(dims) {
  current_.store(NewVersion(0), std::memory_order_relaxed);
}

EmbeddedDatabase::~EmbeddedDatabase() {
  delete current_.load(std::memory_order_relaxed);
  // epoch_'s destructor drains retired versions (and checks that no
  // reader is still pinned).
}

EmbeddedDatabase::EmbeddedDatabase(const EmbeddedDatabase& other)
    : dims_(other.dims_) {
  // The int8 matrix copies verbatim (scales included), so a copy
  // prescreens exactly like its source.
  const Version* src = other.current();
  size_t n = src->size.load(std::memory_order_acquire);
  current_.store(CopyVersion(src, n, n), std::memory_order_relaxed);
  rows_.store(n, std::memory_order_relaxed);
}

EmbeddedDatabase& EmbeddedDatabase::operator=(const EmbeddedDatabase& other) {
  if (this == &other) return *this;
  EmbeddedDatabase copy(other);
  return *this = std::move(copy);
}

EmbeddedDatabase::EmbeddedDatabase(EmbeddedDatabase&& other) noexcept
    : dims_(other.dims_) {
  current_.store(other.current_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  rows_.store(other.rows_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  // Leave the source valid (and destructible): fresh empty version.
  // Versions it already retired stay in its own epoch manager.
  other.current_.store(other.NewVersion(0), std::memory_order_relaxed);
  other.rows_.store(0, std::memory_order_relaxed);
}

EmbeddedDatabase& EmbeddedDatabase::operator=(
    EmbeddedDatabase&& other) noexcept {
  if (this == &other) return *this;
  dims_ = other.dims_;
  PublishAndRetire(other.current_.load(std::memory_order_relaxed));
  rows_.store(other.rows_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  other.current_.store(other.NewVersion(0), std::memory_order_relaxed);
  other.rows_.store(0, std::memory_order_relaxed);
  epoch_.ReclaimDrained();
  return *this;
}

EmbeddedDatabase::Snapshot EmbeddedDatabase::snapshot() const {
  // Pin first, then load: a version observed after the pin cannot be
  // reclaimed until the guard is released (see EpochManager's protocol
  // note for why the writer cannot miss this pin and free early).
  EpochManager::Guard guard = epoch_.Pin();
  const Version* v = current();
  size_t rows = v->size.load(std::memory_order_acquire);
  return Snapshot(ViewOf(v, rows), std::move(guard));
}

EmbeddedDatabase::View EmbeddedDatabase::PeekView() const {
  const Version* v = current();
  return ViewOf(v, v->size.load(std::memory_order_acquire));
}

EmbeddedDatabase::View EmbeddedDatabase::ViewOf(const Version* v,
                                                size_t rows) const {
  View view(v->data.data(), v->ids.data(), rows, dims_);
  if (v->i8_valid.load(std::memory_order_relaxed)) {
    view.i8_ = v->i8.data();
    view.i8_scale_ = v->i8_scale.data();
    view.has_i8_ = true;
  }
  return view;
}

EmbeddedDatabase::Version* EmbeddedDatabase::NewVersion(
    size_t capacity_rows) const {
  Version* v = new Version(dims_, capacity_rows);
  // No rows yet: every dimension is dead.
  v->i8_scale.assign(dims_, 0.0f);
  MaybeAdviseHugePages(v->data.data(),
                       capacity_rows * dims_ * sizeof(double));
  return v;
}

EmbeddedDatabase::Version* EmbeddedDatabase::CopyVersion(
    const Version* v, size_t rows, size_t capacity_rows) const {
  Version* next = NewVersion(capacity_rows);
  next->data.assign(v->data.data(), v->data.data() + rows * dims_);
  next->ids.assign(v->ids.begin(), v->ids.begin() + rows);
  if (v->i8_valid.load(std::memory_order_relaxed)) {
    next->i8.assign(v->i8.data(), v->i8.data() + rows * dims_);
    next->i8_scale = v->i8_scale;
  } else {
    next->i8_valid.store(false, std::memory_order_relaxed);
  }
  next->size.store(rows, std::memory_order_relaxed);
  next->high_water = rows;
  return next;
}

void EmbeddedDatabase::PublishAndRetire(Version* next) {
  Version* old = current_.load(std::memory_order_relaxed);
  current_.store(next, std::memory_order_seq_cst);
  epoch_.Retire([old] { delete old; });
}

Vector EmbeddedDatabase::RowVector(size_t i) const {
  QSE_CHECK(i < size());
  const double* r = row(i);
  return Vector(r, r + dims_);
}

size_t EmbeddedDatabase::id_of(size_t i) const {
  QSE_CHECK(i < size());
  return current()->ids[i];
}

std::vector<size_t> EmbeddedDatabase::ids() const {
  const Version* v = current();
  return v->ids;
}

bool EmbeddedDatabase::RowFitsI8(const Version* v, const double* row) const {
  if (!v->i8_valid.load(std::memory_order_relaxed)) return true;
  for (size_t j = 0; j < dims_; ++j) {
    if (!FitsInt8(row[j], v->i8_scale[j])) return false;
  }
  return true;
}

void EmbeddedDatabase::FillI8Row(Version* v, size_t i) const {
  const double* row = v->data.data() + i * dims_;
  int8_t* dst = v->i8.data() + i * dims_;
  for (size_t j = 0; j < dims_; ++j) {
    dst[j] = QuantizeToInt8(row[j], v->i8_scale[j]);
  }
}

void EmbeddedDatabase::RequantizeI8(Version* v, size_t n,
                                    double headroom) const {
  std::vector<double> maxabs(dims_, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* r = v->data.data() + i * dims_;
    for (size_t j = 0; j < dims_; ++j) {
      double a = std::fabs(r[j]);
      // NaN is sticky, so a dimension holding one gets a NaN scale.
      if (a > maxabs[j] || std::isnan(a)) maxabs[j] = a;
    }
  }
  v->i8_scale.assign(dims_, 0.0f);
  for (size_t j = 0; j < dims_; ++j) {
    if (maxabs[j] == 0.0) continue;
    // ±inf and NaN give a non-finite scale, which bounds nothing: the
    // prescreen margin comes out +inf.
    float scale = static_cast<float>(maxabs[j] * headroom / 127.0);
    // The float can round below the real quotient.  For normal floats
    // the half-step slack of FitsInt8 (127.5 vs 127) dwarfs that
    // half-ulp; a subnormal quotient rounds coarsely enough to need the
    // next float up.
    if (!(maxabs[j] <= 127.5 * static_cast<double>(scale))) {
      scale = std::nextafterf(scale, std::numeric_limits<float>::infinity());
    }
    v->i8_scale[j] = scale;
  }
  v->i8.resize(n * dims_);
  for (size_t i = 0; i < n; ++i) FillI8Row(v, i);
  v->i8_valid.store(true, std::memory_order_relaxed);
}

void EmbeddedDatabase::RebuildPrescreenMatrix() {
  Version* v = current();
  // Rebuild in place (quiescent): reserve to the version's capacity so
  // subsequent in-place Appends never reallocate the int8 buffer.
  v->i8.reserve(v->capacity_rows * dims_);
  RequantizeI8(v, v->size.load(std::memory_order_relaxed), 1.0);
}

void EmbeddedDatabase::Reserve(size_t rows) {
  if (dims_ == 0) return;
  Version* v = current();
  if (rows <= v->capacity_rows) return;
  PublishAndRetire(
      CopyVersion(v, v->size.load(std::memory_order_relaxed), rows));
}

void EmbeddedDatabase::Resize(size_t rows) {
  Version* v = current();
  size_t n = v->size.load(std::memory_order_relaxed);
  if (rows > v->capacity_rows) {
    Version* next = CopyVersion(v, n, rows);
    // New rows are all-zero: they quantize to 0 under any scale, so
    // extending the int8 matrix with zeros keeps it consistent without
    // touching the scales.
    next->data.resize(rows * dims_, 0.0);
    for (size_t i = n; i < rows; ++i) next->ids.push_back(i);
    if (next->i8_valid.load(std::memory_order_relaxed)) {
      next->i8.resize(rows * dims_, 0);
    }
    next->size.store(rows, std::memory_order_relaxed);
    next->high_water = rows;
    PublishAndRetire(next);
    rows_.store(rows, std::memory_order_release);
    return;
  }
  // Quiescent in-place resize within capacity: shrink, or grow into
  // slots no pinned reader can be scanning (the API contract).
  v->data.resize(rows * dims_, 0.0);
  size_t old_ids = v->ids.size();
  v->ids.resize(rows);
  for (size_t i = old_ids; i < rows; ++i) v->ids[i] = i;
  if (v->i8_valid.load(std::memory_order_relaxed)) {
    v->i8.resize(rows * dims_, 0);
  }
  v->size.store(rows, std::memory_order_release);
  v->high_water = std::max(v->high_water, rows);
  rows_.store(rows, std::memory_order_release);
}

size_t EmbeddedDatabase::Append(const Vector& row, size_t id) {
  QSE_CHECK_MSG(row.size() == dims_,
                "row has " << row.size() << " dims, database has " << dims_);
  return Append(row.data(), id);
}

size_t EmbeddedDatabase::Append(const Vector& row) {
  QSE_CHECK_MSG(row.size() == dims_,
                "row has " << row.size() << " dims, database has " << dims_);
  return Append(row.data(), size());
}

size_t EmbeddedDatabase::Append(const double* row) {
  return Append(row, size());
}

size_t EmbeddedDatabase::Append(const double* row, size_t id) {
  Version* v = current();
  size_t n = v->size.load(std::memory_order_relaxed);
  const bool fits = RowFitsI8(v, row);
  const bool i8 = v->i8_valid.load(std::memory_order_relaxed);
  // In-place fast path: the target slot has never been published from
  // this version (n == high_water) and capacity remains.  A slot below
  // high_water may still be visible to a reader pinned at the old count
  // — SwapRemove defers that physical reuse to a fresh version instead
  // of overwriting under the reader.  A row the int8 scales cannot
  // absorb takes the copy-on-write path below instead, because scales
  // are immutable while a version is visible.
  if (n < v->capacity_rows && n == v->high_water && fits) {
    v->data.resize((n + 1) * dims_);  // Within capacity: never moves.
    std::copy(row, row + dims_, v->data.data() + n * dims_);
    if (i8) {
      // The int8 row lands before the release below, so a reader that
      // acquires the grown count sees it whole too.
      v->i8.resize((n + 1) * dims_);
      FillI8Row(v, n);
    }
    v->ids.push_back(id);
    // Release: a reader that acquires the grown count sees the whole
    // row; one that reads the old count ignores the slot entirely.
    v->size.store(n + 1, std::memory_order_release);
    v->high_water = n + 1;
    rows_.store(n + 1, std::memory_order_release);
    return n;
  }
  // Copy-on-write: amortized doubling when full, the same capacity when
  // only a re-quantization or a reused slot forces the copy.  `row` may
  // point into the current version's own buffer (duplicating a row);
  // that buffer stays intact until retirement, so the copy below is
  // safe.
  size_t capacity = n < v->capacity_rows
                        ? v->capacity_rows
                        : std::max({v->capacity_rows * 2, n + 1,
                                    kMinCapacityRows});
  Version* next = CopyVersion(v, n, capacity);
  next->data.resize((n + 1) * dims_);
  std::copy(row, row + dims_, next->data.data() + n * dims_);
  next->ids.push_back(id);
  if (!fits) {
    // The new row falls outside the quantization range: re-quantize the
    // whole matrix into the unpublished version with headroom.
    RequantizeI8(next, n + 1, kRequantHeadroom);
  } else if (i8) {
    next->i8.resize((n + 1) * dims_);
    FillI8Row(next, n);
  }
  next->size.store(n + 1, std::memory_order_relaxed);
  next->high_water = n + 1;
  PublishAndRetire(next);
  rows_.store(n + 1, std::memory_order_release);
  return n;
}

void EmbeddedDatabase::SetRow(size_t i, const Vector& row) {
  QSE_CHECK(i < size());
  QSE_CHECK_MSG(row.size() == dims_,
                "row has " << row.size() << " dims, database has " << dims_);
  Version* v = current();
  std::copy(row.begin(), row.end(), v->data.data() + i * dims_);
  if (!v->i8_valid.load(std::memory_order_relaxed)) return;
  // Quiescent API, so rewriting the int8 matrix (and scales) in place is
  // fine.
  if (!RowFitsI8(v, row.data())) {
    RequantizeI8(v, v->size.load(std::memory_order_relaxed),
                 kRequantHeadroom);
  } else {
    FillI8Row(v, i);
  }
}

void EmbeddedDatabase::AssignIds(const std::vector<size_t>& ids) {
  Version* v = current();
  QSE_CHECK_MSG(ids.size() == v->size.load(std::memory_order_relaxed),
                "got " << ids.size() << " ids for " << size() << " rows");
  std::copy(ids.begin(), ids.end(), v->ids.begin());
}

size_t EmbeddedDatabase::SwapRemove(size_t i) {
  Version* v = current();
  size_t n = v->size.load(std::memory_order_relaxed);
  QSE_CHECK(i < n);
  size_t last = n - 1;
  if (i == last) {
    // Removing the last row moves nothing: shrink the published count
    // and stop.  The vacated slot stays below high_water, so it is
    // never rewritten in place while a reader pinned at the old count
    // could still be scanning it.
    v->size.store(last, std::memory_order_release);
    v->data.resize(last * dims_);
    v->ids.resize(last);
    if (v->i8_valid.load(std::memory_order_relaxed)) {
      v->i8.resize(last * dims_);
    }
    rows_.store(last, std::memory_order_release);
    return last;
  }
  // Interior removal: copy-on-write with the last row moved into the
  // gap — same layout an in-place swap would produce, but readers
  // pinned on the old version keep scanning untouched memory.  Removal
  // never violates the scale invariant; scales may merely end up looser
  // than a fresh fit, which only widens the prescreen margin.
  Version* next = CopyVersion(v, last, std::max(v->capacity_rows, last));
  std::copy(v->data.data() + last * dims_, v->data.data() + n * dims_,
            next->data.data() + i * dims_);
  next->ids[i] = v->ids[last];
  if (next->i8_valid.load(std::memory_order_relaxed)) {
    std::copy(v->i8.data() + last * dims_, v->i8.data() + n * dims_,
              next->i8.data() + i * dims_);
  }
  PublishAndRetire(next);
  rows_.store(last, std::memory_order_release);
  return last;
}

void EmbeddedDatabase::RestoreVersion(size_t rows, const double* data,
                                      const size_t* ids) {
  Version* next = NewVersion(rows);
  next->data.assign(data, data + rows * dims_);
  next->ids.assign(ids, ids + rows);
  RequantizeI8(next, rows, kRequantHeadroom);
  next->size.store(rows, std::memory_order_relaxed);
  next->high_water = rows;
  PublishAndRetire(next);
  rows_.store(rows, std::memory_order_release);
  epoch_.ReclaimDrained();
}

EmbeddedDatabase EmbeddedDatabase::FromRows(const std::vector<Vector>& rows) {
  EmbeddedDatabase db(rows.empty() ? 0 : rows[0].size());
  db.Reserve(rows.size());
  for (const Vector& r : rows) db.Append(r);
  return db;
}

}  // namespace qse
