// The benchmark's inputs: the four workloads' shapes, the seeded fleet
// (dataset, strategy order, budget classes, client assignment), and the
// CampaignRuntime reference reports every run is checked against.
#ifndef INCENTAG_BENCH_E2E_FLEET_H_
#define INCENTAG_BENCH_E2E_FLEET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/allocation.h"
#include "src/service/campaign_manager.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"
#include "src/util/status.h"

namespace incentag {
namespace e2e {

// Strategies of the fleet, in the order reference reports are indexed.
inline constexpr int kNumStrategies = 4;
inline constexpr const char* kStrategies[kNumStrategies] = {"RR", "FP", "MU",
                                                             "FP-MU"};

enum class Drive {
  kInline,  // the manager's in-process completion source
  kIngest,  // HTTP taggers, one campaign at a time per connection
  kMixed,   // HTTP taggers rotating over all campaigns, plus a dashboard
};

// One workload's shape. A run repeats rounds of this fleet, each on a
// fresh manager, for --seconds.
struct WorkloadSpec {
  std::string name;
  Drive drive = Drive::kInline;
  int64_t resources = 0;     // corpus size before the stability filter
  int64_t campaigns = 0;     // per round
  int64_t small_budget = 0;  // large campaigns get kLargeFactor times this
  bool journaled = false;
  bool recover = false;      // Recover the round's journals on a fresh manager
  int64_t compact_journal_bytes = 0;
  int writers = 0;           // HTTP tagger connections
};

// HTTP connections of a workload: the writers, plus http_mixed's
// read-only dashboard.
inline int LoadConnections(const WorkloadSpec& spec) {
  return spec.writers + (spec.drive == Drive::kMixed ? 1 : 0);
}

// EngineOptions::batch_size of every campaign; a tagger's pull
// (`?max=64`) takes one whole batch.
inline constexpr int64_t kBatchSize = 64;
inline constexpr int64_t kLargeFactor = 10;
// One campaign in kLargeEvery is large (3 small : 1 large).
inline constexpr int64_t kLargeEvery = 4;
inline constexpr int kManagerThreads = 2;

// The workload named `name` at benchmark or --smoke size; null if unknown.
const WorkloadSpec* FindWorkload(std::string_view name, bool smoke);

struct Dataset {
  std::unique_ptr<sim::Corpus> corpus;
  sim::PreparedDataset prepared;
};

util::Result<std::unique_ptr<Dataset>> PrepareDataset(int64_t resources,
                                                      uint64_t seed);
// True when two preparations produced the same inputs.
bool SameDataset(const sim::PreparedDataset& a, const sim::PreparedDataset& b);

struct CampaignSpec {
  int strategy = 0;  // index into kStrategies
  bool large = false;
  int client = 0;    // tagger connection that drives it (HTTP workloads)
};

// The seeded fleet. Budget classes and clients follow a fixed pattern —
// campaign i goes to connection i % writers, and every fourth campaign of
// a connection is large — and each (connection, class) group holds every
// strategy equally often, so every seed loads the connections and the
// scheduler alike. The seed decides which strategy fills each slot.
std::vector<CampaignSpec> MakeFleet(const WorkloadSpec& spec, uint64_t seed);

core::EngineOptions OptionsFor(const WorkloadSpec& spec, bool large);

service::CampaignConfig MakeConfig(const Dataset& dataset,
                                   const WorkloadSpec& spec,
                                   const CampaignSpec& campaign, size_t index);

// Rebuilds a journaled campaign for CampaignManager::Recover.
service::CampaignManager::CampaignFactory RecoveryFactory(
    const Dataset& dataset);

// Time spent inside the runtime's two step calls on the reference runs.
struct CoreTiming {
  double draw_ns = 0.0;
  double apply_ns = 0.0;
  int64_t tasks = 0;
};

// One CampaignRuntime report per (strategy, budget class).
struct References {
  core::RunReport report[kNumStrategies][2];
  CoreTiming timing[kNumStrategies];

  const core::RunReport& For(const CampaignSpec& c) const {
    return report[c.strategy][c.large ? 1 : 0];
  }
};

util::Result<References> RunReferences(const Dataset& dataset,
                                       const WorkloadSpec& spec);

// Empty when the reports agree bit for bit on allocation, checkpoints,
// final metrics, budget_spent and stopped_early (elapsed time excluded);
// otherwise the first difference.
std::string DiffReports(const core::RunReport& want,
                        const core::RunReport& got);

}  // namespace e2e
}  // namespace incentag

#endif  // INCENTAG_BENCH_E2E_FLEET_H_
