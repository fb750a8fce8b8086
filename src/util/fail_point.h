// FailPoint: named, registry-based fault injection for the I/O surface
// (ISSUE 10).
//
// A fail point is a named site in production code where a test can make
// the next syscall lie: return an errno of the test's choosing, cap how
// many bytes a single write may move (forcing the short-write resume
// paths real kernels only take under memory pressure), or report an
// fsync as failed after the data actually reached the platter (the torn
// sync that makes fsyncgate-style bugs reproducible).
//
// Design constraints, in priority order:
//
//   1. Disarmed cost is one relaxed atomic load. Every pwritev and every
//      fdatasync in the fleet passes a fail point; the hot path must not
//      notice. `bench_micro_obs` hard-gates the disarmed overhead <= 1%.
//   2. Compiled out entirely under -DINCENTAG_FAILPOINTS=OFF: the macros
//      expand to nothing and release builds carry no registry, no
//      atomics, no strings.
//   3. Deterministic. Triggers are counted (nth hit, every Nth) or drawn
//      from a seeded per-point PRNG; a torture test that records its
//      seed replays the exact same fault schedule.
//
// Usage at an injection site (one static per site, file-local):
//
//   INCENTAG_FAIL_POINT_DEFINE(g_fp_pwritev, "file_io/pwritev");
//   ...
//   util::FailPoint::Fault fault;
//   if (INCENTAG_FAIL_POINT_FIRED(g_fp_pwritev, &fault) &&
//       fault.shape == util::FailPoint::Shape::kErrno) {
//     errno = fault.err;
//     return ErrnoStatus("pwritev", path_);
//   }
//
// Arming from a test:
//
//   util::FailPoint* fp = util::FailPoint::Find("file_io/pwritev");
//   util::FailPoint::Trigger t;
//   t.mode = util::FailPoint::Mode::kNthHit;   // fire on the Nth hit
//   t.n = 3;
//   util::FailPoint::Fault f;
//   f.shape = util::FailPoint::Shape::kErrno;
//   f.err = ENOSPC;
//   fp->Arm(t, f);
//   ...
//   fp->Disarm();                 // or util::FailPoint::DisarmAll()
//
// Naming convention: "<layer>/<syscall-or-step>", e.g. "file_io/pwritev",
// "socket/read", "compactor/rename". See CONTRIBUTING.md for the full
// site list.
#ifndef INCENTAG_UTIL_FAIL_POINT_H_
#define INCENTAG_UTIL_FAIL_POINT_H_

#include <cerrno>
#include <cstdint>
#include <string>
#include <vector>

#if !defined(INCENTAG_FAILPOINTS)
#define INCENTAG_FAILPOINTS 0
#endif

#if INCENTAG_FAILPOINTS

#include <atomic>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace incentag {
namespace util {

class FailPoint {
 public:
  // What the site should pretend happened.
  enum class Shape {
    kErrno,       // The syscall fails with `err`; no bytes move.
    kShortWrite,  // One write moves at most `max_bytes` bytes.
    kTornSync,    // The sync really happens, then reports `err` anyway —
                  // the data is durable but the caller must not trust it.
  };

  struct Fault {
    Shape shape = Shape::kErrno;
    int err = EIO;
    int64_t max_bytes = 0;  // kShortWrite: per-syscall byte cap (> 0).
  };

  // When an armed point fires.
  enum class Mode {
    kAlways,       // Every hit.
    kNthHit,       // Exactly the `n`th hit after arming (1-based).
    kEveryNth,     // Hits n, 2n, 3n, ... after arming.
    kProbability,  // Each hit independently with probability
                   // `probability`, drawn from a PRNG seeded by `seed`.
  };

  struct Trigger {
    Mode mode = Mode::kAlways;
    uint64_t n = 1;            // kNthHit / kEveryNth.
    double probability = 1.0;  // kProbability, in [0, 1].
    uint64_t seed = 1;         // kProbability PRNG seed.
    // Stop firing after this many fires; 0 = unlimited. The torture test
    // uses small caps so every injected fault is recoverable.
    uint64_t max_fires = 0;
  };

  // Registers this point under `name`. Points are namespace-scope
  // statics in the TU that hosts the site; `name` must be a string
  // literal (the registry stores the pointer) and unique process-wide.
  explicit FailPoint(const char* name);
  ~FailPoint();

  FailPoint(const FailPoint&) = delete;
  FailPoint& operator=(const FailPoint&) = delete;

  const char* name() const { return name_; }

  // True when armed — the disarmed fast path is exactly this relaxed
  // load, done by the INCENTAG_FAIL_POINT_FIRED macro before anything
  // else.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // Arms the point; resets hit/fire counters and the PRNG.
  void Arm(const Trigger& trigger, const Fault& fault);
  void Disarm();

  // Records a hit and decides whether the fault fires. On true, `*out`
  // is the armed fault. Sites call this through the macro only after
  // armed() returned true, so the mutex is never touched when disarmed.
  bool Fire(Fault* out);

  // Hits and fires since the last Arm(). Counters freeze at Disarm() so
  // tests can assert accounting after the run.
  uint64_t hits() const;
  uint64_t fires() const;

  // Registry lookups. Points register at static-init time of their TU,
  // so Find() works before the site first executes.
  static FailPoint* Find(const std::string& name);
  static std::vector<FailPoint*> All();
  static void DisarmAll();

 private:
  const char* const name_;
  std::atomic<bool> armed_{false};
  mutable Mutex mu_;
  Trigger trigger_ GUARDED_BY(mu_);
  Fault fault_ GUARDED_BY(mu_);
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t fires_ GUARDED_BY(mu_) = 0;
  uint64_t prng_ GUARDED_BY(mu_) = 0;
};

}  // namespace util
}  // namespace incentag

// Defines the file-local fail point for one injection site.
#define INCENTAG_FAIL_POINT_DEFINE(var, name) \
  ::incentag::util::FailPoint var { name }

// One relaxed load when disarmed; evaluates the trigger (and fills
// `fault_ptr`) only when armed.
#define INCENTAG_FAIL_POINT_FIRED(var, fault_ptr) \
  (__builtin_expect((var).armed(), 0) && (var).Fire(fault_ptr))

#else  // !INCENTAG_FAILPOINTS

namespace incentag {
namespace util {

// Compiled-out stub: sites still define a point object and name a Fault
// to fill, but the macros evaluate to constant false and the optimizer
// deletes the dead branches — no registry, no atomics, no strings.
class FailPoint {
 public:
  enum class Shape { kErrno, kShortWrite, kTornSync };
  struct Fault {
    Shape shape = Shape::kErrno;
    int err = EIO;
    int64_t max_bytes = 0;
  };
};

}  // namespace util
}  // namespace incentag

#define INCENTAG_FAIL_POINT_DEFINE(var, name) \
  [[maybe_unused]] ::incentag::util::FailPoint var {}
#define INCENTAG_FAIL_POINT_FIRED(var, fault_ptr) \
  ((void)(var), (void)(fault_ptr), false)

#endif  // INCENTAG_FAILPOINTS

#endif  // INCENTAG_UTIL_FAIL_POINT_H_
