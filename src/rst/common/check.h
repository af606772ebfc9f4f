#ifndef RST_COMMON_CHECK_H_
#define RST_COMMON_CHECK_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

// Contract macros (DESIGN.md §11). RST_CHECK* fire in every build type and
// abort with file:line plus the streamed message; RST_DCHECK* compile to
// nothing in Release (NDEBUG) builds — their condition and streamed operands
// are parsed but never evaluated — so they are free on hot paths.
//
//   RST_CHECK(ptr != nullptr) << "node " << id << " lost its child";
//   RST_DCHECK_LE(entry.min_sim, entry.max_sim);
//   RST_CHECK_OK(frozen.CheckInvariants());
//
// These replace the bare assert()s the library grew up with: a failed
// contract names its location and condition in the abort message instead of
// the opaque `Assertion failed` line, and the binary-comparison forms print
// both operand values.

namespace rst::internal {

/// Collects the streamed message; the destructor prints it and aborts. Only
/// ever constructed on the failure path, so the ostringstream cost is
/// irrelevant.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* condition) {
    stream_ << file << ":" << line << ": RST_CHECK failed: " << condition;
  }

  [[noreturn]] ~CheckFailure() {
    stream_ << "\n";
    std::cerr << stream_.str() << std::flush;
    std::abort();
  }

  template <typename T>
  CheckFailure& operator<<(const T& value) {
    // One separator between the condition and the message, not one per
    // streamed chunk — `<< "node " << id` must render as "node 42".
    if (!separated_) {
      stream_ << " ";
      separated_ = true;
    }
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
  bool separated_ = false;
};

/// `operator&` binds looser than `<<` and tighter than `?:`, which lets the
/// macros stream into the temporary and still form a single void expression.
struct CheckVoidify {
  // Const ref so both a bare temporary (RST_CHECK with no message) and the
  // lvalue returned by operator<< bind.
  void operator&(const CheckFailure&) const {}
};

/// Formats both operands of a failed binary comparison.
template <typename A, typename B>
std::string CheckOpMessage(const A& a, const B& b) {
  std::ostringstream out;
  out << "(" << a << " vs " << b << ")";
  return out.str();
}

/// Works for Status and Result<T> alike (anything with ok()/ToString() or
/// ok()/status()); templated so this header stays independent of status.h —
/// which lets status.h itself use RST_DCHECK in Result's accessors.
template <typename StatusLike>
void CheckOk(const StatusLike& status, const char* file, int line,
             const char* expr) {
  if (!status.ok()) {
    CheckFailure failure(file, line, expr);
    if constexpr (requires { status.ToString(); }) {
      failure << status.ToString();
    } else {
      failure << status.status().ToString();
    }
  }
}

}  // namespace rst::internal

#define RST_CHECK(condition)                                          \
  (condition) ? (void)0                                               \
              : ::rst::internal::CheckVoidify() &                     \
                    ::rst::internal::CheckFailure(__FILE__, __LINE__, \
                                                  #condition)

#define RST_CHECK_OP_IMPL(op, a, b)                                 \
  ((a)op(b)) ? (void)0                                              \
             : ::rst::internal::CheckVoidify() &                    \
                   ::rst::internal::CheckFailure(__FILE__, __LINE__, \
                                                 #a " " #op " " #b) \
                       << ::rst::internal::CheckOpMessage((a), (b))

#define RST_CHECK_EQ(a, b) RST_CHECK_OP_IMPL(==, a, b)
#define RST_CHECK_NE(a, b) RST_CHECK_OP_IMPL(!=, a, b)
#define RST_CHECK_LE(a, b) RST_CHECK_OP_IMPL(<=, a, b)
#define RST_CHECK_LT(a, b) RST_CHECK_OP_IMPL(<, a, b)
#define RST_CHECK_GE(a, b) RST_CHECK_OP_IMPL(>=, a, b)
#define RST_CHECK_GT(a, b) RST_CHECK_OP_IMPL(>, a, b)

/// Aborts with the Status message when `expr` is not OK. `expr` is evaluated
/// exactly once.
#define RST_CHECK_OK(expr) \
  ::rst::internal::CheckOk((expr), __FILE__, __LINE__, #expr)

#ifndef NDEBUG

#define RST_DCHECK(condition) RST_CHECK(condition)
#define RST_DCHECK_EQ(a, b) RST_CHECK_EQ(a, b)
#define RST_DCHECK_NE(a, b) RST_CHECK_NE(a, b)
#define RST_DCHECK_LE(a, b) RST_CHECK_LE(a, b)
#define RST_DCHECK_LT(a, b) RST_CHECK_LT(a, b)
#define RST_DCHECK_GE(a, b) RST_CHECK_GE(a, b)
#define RST_DCHECK_GT(a, b) RST_CHECK_GT(a, b)
#define RST_DCHECK_OK(expr) RST_CHECK_OK(expr)

#else  // NDEBUG

// Release: `while (false)` keeps the condition and any streamed operands
// compiling (so Release builds cannot rot) without ever evaluating them.
#define RST_DCHECK(condition) \
  while (false) RST_CHECK(condition)
#define RST_DCHECK_EQ(a, b) \
  while (false) RST_CHECK_EQ(a, b)
#define RST_DCHECK_NE(a, b) \
  while (false) RST_CHECK_NE(a, b)
#define RST_DCHECK_LE(a, b) \
  while (false) RST_CHECK_LE(a, b)
#define RST_DCHECK_LT(a, b) \
  while (false) RST_CHECK_LT(a, b)
#define RST_DCHECK_GE(a, b) \
  while (false) RST_CHECK_GE(a, b)
#define RST_DCHECK_GT(a, b) \
  while (false) RST_CHECK_GT(a, b)
#define RST_DCHECK_OK(expr) \
  while (false) RST_CHECK_OK(expr)

#endif  // NDEBUG

#endif  // RST_COMMON_CHECK_H_
