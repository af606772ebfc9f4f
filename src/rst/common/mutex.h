#ifndef RST_COMMON_MUTEX_H_
#define RST_COMMON_MUTEX_H_

/// Capability-annotated synchronization wrappers (DESIGN.md §16).
///
/// libstdc++'s std::mutex carries no thread-safety attributes, so clang's
/// capability analysis cannot reason about it. These thin wrappers add the
/// annotations with zero runtime cost; all locking in the project goes
/// through them (tools/rst_lint.py rule raw-sync-primitive bans the std
/// types everywhere else — this header is the single exemption, which is
/// also why the manual .lock()/.unlock() calls below are allowed to exist).
///
/// Idiom:
///
///   class Worklist {
///    public:
///     void Push(Item item) RST_EXCLUDES(mu_) {
///       MutexLock lock(&mu_);
///       items_.push_back(std::move(item));
///       cv_.NotifyOne();
///     }
///    private:
///     Mutex mu_;
///     CondVar cv_;
///     std::vector<Item> items_ RST_GUARDED_BY(mu_);
///   };
///
/// Note on CondVar: predicate waits are written as explicit
/// `while (!cond) cv_.Wait(mu_);` loops rather than the
/// `cv.wait(lock, pred)` lambda form — the analysis does not propagate
/// capabilities into lambda bodies, so the lambda form produces spurious
/// warnings on every guarded field the predicate reads.

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "rst/common/thread_annotations.h"

namespace rst {

/// Exclusive mutex (std::mutex) declared as a capability.
class RST_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() RST_ACQUIRE() { mu_.lock(); }
  void Unlock() RST_RELEASE() { mu_.unlock(); }
  bool TryLock() RST_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped primitive, for CondVar interop only.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII exclusive lock over Mutex.
class RST_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) RST_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RST_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable usable with rst::Mutex. Wait* atomically release the
/// caller-held mutex and reacquire it before returning, exactly like
/// std::condition_variable over std::unique_lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) RST_REQUIRES(mu) {
    // Adopt the already-held native mutex for the duration of the wait;
    // release() afterwards hands ownership back to the caller's guard
    // without unlocking.
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(Mutex& mu,
                           const std::chrono::time_point<Clock, Duration>&
                               deadline) RST_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& rel_time)
      RST_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, rel_time);
    lock.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace rst

#endif  // RST_COMMON_MUTEX_H_
