// Reader/writer for a del.icio.us-style post dump.
//
// The paper's corpus (Wetzker et al. 2008) is a text log of posts. This
// module defines an equivalent plain-text exchange format so that (a) the
// synthetic corpus can be exported and inspected like the real crawl, and
// (b) a real crawl, converted to this format, can be dropped into the exact
// same pipeline (ReadDump* -> PrepareFromSequences -> AllocationEngine).
//
// Format: one post per line, four tab-separated fields
//
//   <epoch_seconds> \t <user> \t <url> \t <tag> [<tag> ...]
//
// Lines starting with '#' are comments. The reader is tolerant: malformed
// lines (wrong field count, non-numeric timestamp, empty tag list) are
// counted and skipped, mirroring how crawl data actually has to be handled.
// Posts are grouped by URL and ordered by (timestamp, input order).
#ifndef INCENTAG_SIM_DELICIOUS_FORMAT_H_
#define INCENTAG_SIM_DELICIOUS_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/post_store.h"
#include "src/core/tag_vocabulary.h"
#include "src/core/types.h"
#include "src/util/status.h"

namespace incentag {
namespace sim {

// Parsed dump: per-URL post sequences over a private vocabulary.
struct RawDump {
  core::TagVocabulary vocab;
  std::vector<std::string> urls;  // first-seen order
  core::PostStore sequences;      // aligned with urls
  int64_t lines = 0;    // non-comment, non-blank lines seen
  int64_t posts = 0;    // successfully parsed posts
  int64_t skipped = 0;  // malformed lines
};

// Parses dump text (testable without touching the filesystem).
util::Result<RawDump> ReadDumpText(std::string_view text);

// Reads and parses a dump file.
util::Result<RawDump> ReadDumpFile(const std::string& path);

// Writes sequences to `path` in dump format. Posts are interleaved across
// URLs in a globally increasing timestamp order (like a real crawl log).
// `urls` and `sequences` must be index-aligned; tags resolve via `vocab`.
util::Status WriteDumpFile(const std::string& path,
                           const std::vector<std::string>& urls,
                           const core::PostStore& sequences,
                           const core::TagVocabulary& vocab);

}  // namespace sim
}  // namespace incentag

#endif  // INCENTAG_SIM_DELICIOUS_FORMAT_H_
