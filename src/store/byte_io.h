#ifndef DPGRID_STORE_BYTE_IO_H_
#define DPGRID_STORE_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dpgrid {

// Little-endian binary encoding primitives for the snapshot format.
//
// ByteWriter appends to a growing buffer and cannot fail. ByteReader is the
// untrusted-input side: every read is bounds-checked, the first failure
// latches (ok() goes false and stays false), and no read ever aborts —
// corrupt snapshot files must surface as clean errors, never crashes.
// Multi-byte values are stored in the host byte order of the x86-64 targets
// this library builds for (little-endian); the header's magic would reject
// a byte-swapped file as corrupt rather than misload it.

class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts `reuse`'s storage (cleared) so encoding into a long-lived
  /// buffer allocates nothing once the buffer has grown to working size;
  /// retrieve the result with std::move(w).Take().
  explicit ByteWriter(std::string&& reuse) : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Bool(bool v) { U32(v ? 1 : 0); }

  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  void F64Vec(std::span<const double> v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(double));
  }

  void SizeVec(const std::vector<size_t>& v) {
    U64(v.size());
    for (size_t x : v) U64(static_cast<uint64_t>(x));
  }

  size_t size() const { return buf_.size(); }
  const std::string& buffer() const { return buf_; }
  std::string Take() && { return std::move(buf_); }

 private:
  void Raw(const void* p, size_t n) {
    if (n > 0) buf_.append(static_cast<const char*>(p), n);
  }

  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v), "u32"); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v), "u64"); }
  bool I32(int32_t* v) { return Raw(v, sizeof(*v), "i32"); }
  bool F64(double* v) { return Raw(v, sizeof(*v), "f64"); }

  bool Bool(bool* v) {
    uint32_t raw = 0;
    if (!U32(&raw)) return false;
    if (raw > 1) return Fail("boolean field out of range");
    *v = raw == 1;
    return true;
  }

  bool Str(std::string* s) {
    uint32_t len = 0;
    if (!U32(&len)) return false;
    if (len > remaining()) return Fail("string length exceeds payload");
    s->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool F64Vec(std::vector<double>* v) {
    uint64_t len = 0;
    if (!U64(&len)) return false;
    if (len > remaining() / sizeof(double)) {
      return Fail("double array length exceeds payload");
    }
    v->resize(static_cast<size_t>(len));
    return Raw(v->data(), static_cast<size_t>(len) * sizeof(double),
               "double array");
  }

  bool SizeVec(std::vector<size_t>* v) {
    uint64_t len = 0;
    if (!U64(&len)) return false;
    if (len > remaining() / sizeof(uint64_t)) {
      return Fail("size array length exceeds payload");
    }
    v->resize(static_cast<size_t>(len));
    for (size_t i = 0; i < v->size(); ++i) {
      uint64_t x = 0;
      if (!U64(&x)) return false;
      (*v)[i] = static_cast<size_t>(x);
    }
    return true;
  }

  /// Latches a semantic-validation failure (the caller read a structurally
  /// valid value that is inconsistent with the rest of the payload).
  bool Fail(const std::string& message) {
    if (ok_) {
      ok_ = false;
      error_ = message;
    }
    return false;
  }

 private:
  bool Raw(void* p, size_t n, const char* what) {
    if (!ok_) return false;
    if (n > remaining()) {
      return Fail(std::string("truncated payload reading ") + what);
    }
    if (n > 0) {  // an empty vector's data() may be null; memcpy forbids it
      std::memcpy(p, bytes_.data() + pos_, n);
      pos_ += n;
    }
    return true;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

}  // namespace dpgrid

#endif  // DPGRID_STORE_BYTE_IO_H_
