#ifndef RST_COMMON_THREAD_ANNOTATIONS_H_
#define RST_COMMON_THREAD_ANNOTATIONS_H_

/// Clang thread-safety ("capability") analysis attributes (DESIGN.md §16).
///
/// Under clang with `-Wthread-safety -Wthread-safety-beta` these macros turn
/// the project's locking conventions into compile-time contracts: a field
/// tagged RST_GUARDED_BY(mu_) cannot be touched without `mu_` held, and a
/// private `...Locked()` helper tagged RST_REQUIRES(mu_) cannot be called
/// from an unlocked context. On GCC/MSVC every macro expands to nothing, so
/// the annotations are zero-cost no-ops (proven by the
/// thread_annotations_noop_compile ctest entry).
///
/// The analysis only understands types declared as capabilities, so code
/// must use the annotated wrappers in rst/common/mutex.h (rst::Mutex,
/// rst::MutexLock, rst::CondVar) rather than raw std::mutex — enforced by
/// the raw-sync-primitive rule in tools/rst_lint.py.

#if defined(__clang__)
#define RST_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define RST_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op outside clang
#endif

/// Declares a class to be a capability (lockable) type. The string names the
/// capability kind in diagnostics, e.g. RST_CAPABILITY("mutex").
#define RST_CAPABILITY(x) RST_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Declares an RAII class whose constructor acquires and destructor releases
/// a capability (MutexLock and friends).
#define RST_SCOPED_CAPABILITY RST_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Data members: reads/writes require the named capability held.
#define RST_GUARDED_BY(x) RST_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// Pointer members: dereferencing the pointee requires the capability (the
/// pointer itself may be read freely).
#define RST_PT_GUARDED_BY(x) RST_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Lock-ordering declaration between mutex members (deadlock prevention;
/// checked under -Wthread-safety-beta).
#define RST_ACQUIRED_BEFORE(...) \
  RST_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))

/// Functions: caller must hold the capability. This is the contract for
/// private `...Locked()` helpers.
#define RST_REQUIRES(...) \
  RST_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/// Functions: acquire/release the capability.
#define RST_ACQUIRE(...) \
  RST_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define RST_RELEASE(...) \
  RST_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// Functions: caller must NOT hold the capability (non-reentrancy contract
/// for public methods that take the lock themselves).
#define RST_EXCLUDES(...) \
  RST_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

#endif  // RST_COMMON_THREAD_ANNOTATIONS_H_
