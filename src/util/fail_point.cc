#include "src/util/fail_point.h"

#include <map>
#include <string>

#include "src/obs/metrics.h"

namespace incentag {
namespace util {

namespace {

// splitmix64: tiny, seedable, and good enough for fault-schedule draws.
// Deterministic across platforms so a torture-test seed replays the
// same schedule everywhere.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The registry maps name -> point. Points are namespace-scope statics in
// arbitrary TUs, so registration order is unsequenced; a leaked Meyers
// singleton makes the map outlive every registrant (a point's destructor
// during static teardown must still find a live map to erase from).
struct FailPointRegistry {
  Mutex mu;
  std::map<std::string, FailPoint*> points GUARDED_BY(mu);
};

FailPointRegistry& GlobalRegistry() {
  static FailPointRegistry* registry = new FailPointRegistry;
  return *registry;
}

obs::Counter* InjectionsCounter() {
  static obs::Counter* injections = obs::Registry::Default().GetCounter(
      "incentag_fault_injections_total",
      "Faults injected by armed fail points");
  return injections;
}

}  // namespace

FailPoint::FailPoint(const char* name) : name_(name) {
  FailPointRegistry& registry = GlobalRegistry();
  MutexLock lock(&registry.mu);
  registry.points[name_] = this;
}

FailPoint::~FailPoint() {
  FailPointRegistry& registry = GlobalRegistry();
  MutexLock lock(&registry.mu);
  auto it = registry.points.find(name_);
  if (it != registry.points.end() && it->second == this) {
    registry.points.erase(it);
  }
}

void FailPoint::Arm(const Trigger& trigger, const Fault& fault) {
  MutexLock lock(&mu_);
  trigger_ = trigger;
  fault_ = fault;
  hits_ = 0;
  fires_ = 0;
  prng_ = trigger.seed;
  armed_.store(true, std::memory_order_relaxed);
}

void FailPoint::Disarm() {
  MutexLock lock(&mu_);
  armed_.store(false, std::memory_order_relaxed);
}

bool FailPoint::Fire(Fault* out) {
  MutexLock lock(&mu_);
  // Re-check under the lock: the macro's armed() load races Disarm().
  if (!armed_.load(std::memory_order_relaxed)) return false;
  ++hits_;
  if (trigger_.max_fires != 0 && fires_ >= trigger_.max_fires) return false;
  bool fire = false;
  switch (trigger_.mode) {
    case Mode::kAlways:
      fire = true;
      break;
    case Mode::kNthHit:
      fire = hits_ == trigger_.n;
      break;
    case Mode::kEveryNth:
      fire = trigger_.n != 0 && hits_ % trigger_.n == 0;
      break;
    case Mode::kProbability: {
      const double draw =
          static_cast<double>(SplitMix64(&prng_) >> 11) * 0x1.0p-53;
      fire = draw < trigger_.probability;
      break;
    }
  }
  if (!fire) return false;
  ++fires_;
  *out = fault_;
  InjectionsCounter()->Increment();
  return true;
}

uint64_t FailPoint::hits() const {
  MutexLock lock(&mu_);
  return hits_;
}

uint64_t FailPoint::fires() const {
  MutexLock lock(&mu_);
  return fires_;
}

FailPoint* FailPoint::Find(const std::string& name) {
  FailPointRegistry& registry = GlobalRegistry();
  MutexLock lock(&registry.mu);
  auto it = registry.points.find(name);
  return it == registry.points.end() ? nullptr : it->second;
}

std::vector<FailPoint*> FailPoint::All() {
  FailPointRegistry& registry = GlobalRegistry();
  MutexLock lock(&registry.mu);
  std::vector<FailPoint*> out;
  out.reserve(registry.points.size());
  for (const auto& [name, point] : registry.points) out.push_back(point);
  return out;
}

void FailPoint::DisarmAll() {
  for (FailPoint* point : All()) point->Disarm();
}

}  // namespace util
}  // namespace incentag
