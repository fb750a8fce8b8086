#include "src/sim/delicious_format.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "src/util/text.h"

namespace incentag {
namespace sim {

namespace {

struct PendingPost {
  int64_t timestamp;
  int64_t order;  // input order, to break timestamp ties stably
  core::Post post;
};

}  // namespace

util::Result<RawDump> ReadDumpText(std::string_view text) {
  RawDump dump;
  std::unordered_map<std::string, size_t> url_index;
  std::vector<std::vector<PendingPost>> pending;

  int64_t order = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (pos > text.size() + 1) break;

    line = util::StripAsciiWhitespace(line);
    if (line.empty() || line[0] == '#') {
      if (eol >= text.size()) break;
      continue;
    }
    ++dump.lines;

    std::vector<std::string_view> fields = util::Split(line, '\t');
    if (fields.size() != 4) {
      ++dump.skipped;
      if (eol >= text.size()) break;
      continue;
    }
    util::Result<int64_t> ts = util::ParseInt64(
        util::StripAsciiWhitespace(fields[0]));
    std::string_view url = util::StripAsciiWhitespace(fields[2]);
    std::vector<std::string_view> tag_names =
        util::SplitWhitespace(fields[3]);
    if (!ts.ok() || url.empty() || tag_names.empty()) {
      ++dump.skipped;
      if (eol >= text.size()) break;
      continue;
    }

    std::vector<core::TagId> tags;
    tags.reserve(tag_names.size());
    for (std::string_view name : tag_names) {
      tags.push_back(dump.vocab.Intern(name));
    }
    core::Post post = core::Post::FromTags(std::move(tags));

    auto [it, inserted] =
        url_index.try_emplace(std::string(url), dump.urls.size());
    if (inserted) {
      dump.urls.emplace_back(url);
      pending.emplace_back();
    }
    pending[it->second].push_back(
        PendingPost{ts.value(), order++, std::move(post)});
    ++dump.posts;

    if (eol >= text.size()) break;
  }

  core::PostStore::Builder sequences;
  for (size_t i = 0; i < pending.size(); ++i) {
    std::sort(pending[i].begin(), pending[i].end(),
              [](const PendingPost& a, const PendingPost& b) {
                if (a.timestamp != b.timestamp) {
                  return a.timestamp < b.timestamp;
                }
                return a.order < b.order;
              });
    for (const PendingPost& p : pending[i]) sequences.AddPost(p.post);
    sequences.EndResource();
  }
  dump.sequences = std::move(sequences).Build();
  return dump;
}

util::Result<RawDump> ReadDumpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::IoError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return util::Status::IoError("read failed for " + path);
  }
  return ReadDumpText(buffer.str());
}

util::Status WriteDumpFile(
    const std::string& path, const std::vector<std::string>& urls,
    const core::PostStore& sequences, const core::TagVocabulary& vocab) {
  if (urls.size() != sequences.size()) {
    return util::Status::InvalidArgument(
        "urls and sequences sizes must match");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status::IoError("cannot create " + path);
  }
  out << "# incentag dump: epoch_seconds \\t user \\t url \\t tags\n";

  // Emit posts in a globally increasing timestamp order while preserving
  // each URL's internal order: post k of url i gets timestamp k*n + i.
  const size_t n = urls.size();
  size_t max_len = 0;
  for (core::PostSequence seq : sequences) {
    max_len = std::max(max_len, seq.size());
  }
  for (size_t k = 0; k < max_len; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (k >= sequences[i].size()) continue;
      const core::PostView post = sequences[i][k];
      const uint64_t ts = static_cast<uint64_t>(k) * n + i;
      const uint64_t user = (i * 2654435761ULL + k * 40503ULL) % 9973ULL;
      out << ts << '\t' << "user" << user << '\t' << urls[i] << '\t';
      for (size_t t = 0; t < post.tags.size(); ++t) {
        if (t > 0) out << ' ';
        out << vocab.Name(post.tags[t]);
      }
      out << '\n';
    }
  }
  out.flush();
  if (!out) {
    return util::Status::IoError("write failed for " + path);
  }
  return util::Status::OK();
}

}  // namespace sim
}  // namespace incentag
