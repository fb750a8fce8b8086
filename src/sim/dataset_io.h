// Persistence for prepared datasets.
//
// Dataset preparation (the stability filter + January split) is the
// expensive, fiddly part of the pipeline — the paper prepared its 5,000
// URLs once and ran every experiment against that snapshot. This module
// saves a PreparedDataset to a self-describing text file and loads it
// back, so experiment harnesses can share one preparation and external
// datasets can be prepared once and archived.
//
// Format (line-based, '#' comments, tags and urls must be
// whitespace-free):
//
//   incentag-dataset v1
//   resources <n>
//   resource <url> <year_length> <stable_point> <popularity> <source_id>
//   reference <entries> <tag> <weight> ...
//   initial <count>
//   <tag> [<tag> ...]          (one post per line)
//   future <count>
//   <tag> [<tag> ...]
//   ... next resource ...
#ifndef INCENTAG_SIM_DATASET_IO_H_
#define INCENTAG_SIM_DATASET_IO_H_

#include <string>

#include "src/core/tag_vocabulary.h"
#include "src/sim/dataset_prep.h"
#include "src/util/status.h"

namespace incentag {
namespace sim {

// A loaded dataset owns its vocabulary (tag ids are private to the file).
struct LoadedDataset {
  PreparedDataset dataset;
  core::TagVocabulary vocab;
};

// Serialises `dataset` to `path`. `vocab` must resolve every tag id used
// by the dataset's posts and references. Fails with InvalidArgument if a
// tag or url contains whitespace.
util::Status SavePreparedDataset(const std::string& path,
                                 const PreparedDataset& dataset,
                                 const core::TagVocabulary& vocab);

// Parses a file written by SavePreparedDataset. Corrupt or truncated
// files yield Corruption with a line-number message. Reference weights
// load bit for bit as written (the writer writes unit vectors), so a
// loaded dataset saves back to the same bytes; a weight that is not a
// positive finite number, or a tag listed twice in one reference, is
// Corruption.
util::Result<LoadedDataset> LoadPreparedDataset(const std::string& path);

// Text-level variants used by the file functions and by tests.
util::Result<std::string> SerializePreparedDataset(
    const PreparedDataset& dataset, const core::TagVocabulary& vocab);
util::Result<LoadedDataset> ParsePreparedDataset(std::string_view text);

}  // namespace sim
}  // namespace incentag

#endif  // INCENTAG_SIM_DATASET_IO_H_
