// Umbrella header: the full public API of incentag.
//
// Convenience for downstream users; each header remains individually
// includable (and that is what this repository's own code does).
#ifndef INCENTAG_INCENTAG_H_
#define INCENTAG_INCENTAG_H_

// Core: the paper's model and algorithms.
#include "src/core/allocation.h"
#include "src/core/cost_model.h"
#include "src/core/dp_planner.h"
#include "src/core/initial_state.h"
#include "src/core/ma_tracker.h"
#include "src/core/post_stream.h"
#include "src/core/quality.h"
#include "src/core/resource_state.h"
#include "src/core/rfd.h"
#include "src/core/stability.h"
#include "src/core/strategy.h"
#include "src/core/strategy_fc.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "src/core/campaign_runtime.h"
#include "src/core/tag_vocabulary.h"
#include "src/core/types.h"

// Service layer: concurrent multi-campaign execution.
#include "src/service/campaign_manager.h"
#include "src/service/completion_source.h"

// Simulation substrate: corpus, dataset pipeline, crowds.
#include "src/sim/crowd.h"
#include "src/sim/dataset_io.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/delicious_format.h"
#include "src/sim/generator.h"
#include "src/sim/load_generator.h"
#include "src/sim/preference_crowd.h"
#include "src/sim/tag_profile.h"
#include "src/sim/topic_hierarchy.h"

// IR application: similarity, top-k, rank correlation.
#include "src/ir/rank_correlation.h"
#include "src/ir/similarity.h"
#include "src/ir/topk.h"

// Utilities.
#include "src/util/status.h"

#endif  // INCENTAG_INCENTAG_H_
