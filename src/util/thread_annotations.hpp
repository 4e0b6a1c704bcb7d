// Compile-time lock-discipline annotations.
//
// Thin macro layer over Clang's capability analysis attributes
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), so the
// locking conventions that used to live in comments ("guarded by mu_",
// "commit_mu_ must already be held") become machine-checked invariants:
// a Clang build with -Werror=thread-safety (CI's clang-thread-safety
// job; enabled automatically whenever the compiler is Clang) refuses to
// compile an access to a BP_GUARDED_BY member without its lock, a call
// to a BP_REQUIRES function without the named capability, or a lock
// released on one path but not another. Under GCC (which has no
// capability analysis) every macro expands to nothing, so annotations
// are free for the default toolchain.
//
// The annotated types these macros are meant for live in
// util/mutex.hpp (Mutex / SharedMutex and their RAII scoped locks);
// std::mutex itself cannot carry a capability attribute.
//
// Conventions used across the codebase:
//   BP_GUARDED_BY(mu)   on a data member: every read and write needs mu.
//   BP_REQUIRES(mu)     on a function: callers must already hold mu
//                       (the "...Locked()" naming convention, enforced).
//   BP_EXCLUDES(mu)     on a function: callers must NOT hold mu (the
//                       function acquires it itself; catches
//                       self-deadlock on non-recursive mutexes).
//   BP_ACQUIRE/RELEASE  on lock primitives and scoped-lock members.
//
// tests/negative_compile/ proves the annotations are live, not
// decorative: a CMake try_compile asserts that a guarded access
// without the lock FAILS the Clang build.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define BP_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef BP_THREAD_ANNOTATION
#define BP_THREAD_ANNOTATION(x)  // not Clang: annotations compile away
#endif

// --- type annotations ------------------------------------------------

// Marks a type as a lockable capability ("mutex", "shared_mutex", ...).
#define BP_CAPABILITY(x) BP_THREAD_ANNOTATION(capability(x))

// Marks an RAII type whose constructor acquires and destructor releases
// a capability (util::MutexLock and friends).
#define BP_SCOPED_CAPABILITY BP_THREAD_ANNOTATION(scoped_lockable)

// --- data-member annotations -----------------------------------------

// The member may only be accessed while holding the given capability.
#define BP_GUARDED_BY(x) BP_THREAD_ANNOTATION(guarded_by(x))

// The data POINTED TO by this member needs the capability (the pointer
// itself may be read freely).
#define BP_PT_GUARDED_BY(x) BP_THREAD_ANNOTATION(pt_guarded_by(x))

// Lock-ordering declarations (deadlock prevention between capabilities).
#define BP_ACQUIRED_BEFORE(...) \
  BP_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define BP_ACQUIRED_AFTER(...) \
  BP_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// --- function annotations --------------------------------------------

// Caller must hold the capability (exclusively / shared) on entry, and
// still holds it on exit.
#define BP_REQUIRES(...) \
  BP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define BP_REQUIRES_SHARED(...) \
  BP_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// The function acquires the capability and holds it past return.
#define BP_ACQUIRE(...) BP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define BP_ACQUIRE_SHARED(...) \
  BP_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

// The function releases a capability the caller held on entry.
#define BP_RELEASE(...) BP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define BP_RELEASE_SHARED(...) \
  BP_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
// Releases however the capability was acquired (exclusive or shared) —
// what scoped-lock destructors use.
#define BP_RELEASE_GENERIC(...) \
  BP_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

// The function tries to acquire; the first argument is the return value
// that means success.
#define BP_TRY_ACQUIRE(...) \
  BP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Caller must NOT hold the capability (the function takes it itself).
#define BP_EXCLUDES(...) BP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Tells the analysis the capability IS held here without acquiring it —
// the escape hatch for holds-by-construction situations the analysis
// cannot see (e.g. a lambda invoked only while its enclosing function
// holds the lock). Backed by a runtime contract, never a plain claim.
#define BP_ASSERT_CAPABILITY(x) \
  BP_THREAD_ANNOTATION(assert_capability(x))

// The function returns a reference to the given capability.
#define BP_RETURN_CAPABILITY(x) BP_THREAD_ANNOTATION(lock_returned(x))

// Opts one function out of the analysis entirely. Every use must carry
// a justification comment (see the suppression policy in README.md).
#define BP_NO_THREAD_SAFETY_ANALYSIS \
  BP_THREAD_ANNOTATION(no_thread_safety_analysis)
