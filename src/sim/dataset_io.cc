#include "src/sim/dataset_io.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/util/text.h"

namespace incentag {
namespace sim {

namespace {

constexpr char kMagic[] = "incentag-dataset v1";

bool HasWhitespace(std::string_view s) {
  for (char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return true;
  }
  return s.empty();
}

util::Status AppendPosts(core::PostSequence posts,
                         const core::TagVocabulary& vocab,
                         std::string* out) {
  for (core::PostView post : posts) {
    for (size_t t = 0; t < post.tags.size(); ++t) {
      const std::string& name = vocab.Name(post.tags[t]);
      if (HasWhitespace(name)) {
        return util::Status::InvalidArgument("tag not serialisable: '" +
                                             name + "'");
      }
      if (t > 0) *out += ' ';
      *out += name;
    }
    *out += '\n';
  }
  return util::Status::OK();
}

// Line-oriented cursor over the input text.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  // Next non-empty, non-comment line; false at end of input.
  bool Next(std::string_view* line) {
    while (pos_ <= text_.size()) {
      size_t eol = text_.find('\n', pos_);
      if (eol == std::string_view::npos) eol = text_.size();
      std::string_view candidate =
          util::StripAsciiWhitespace(text_.substr(pos_, eol - pos_));
      const bool at_end = pos_ >= text_.size();
      pos_ = eol + 1;
      ++line_number_;
      if (at_end) return false;
      if (candidate.empty() || candidate[0] == '#') continue;
      *line = candidate;
      return true;
    }
    return false;
  }

  int line_number() const { return line_number_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  int line_number_ = 0;
};

util::Status CorruptAt(const LineReader& reader, const std::string& what) {
  return util::Status::Corruption(
      what + " (line " + std::to_string(reader.line_number()) + ")");
}

}  // namespace

util::Result<std::string> SerializePreparedDataset(
    const PreparedDataset& dataset, const core::TagVocabulary& vocab) {
  std::string out;
  out += kMagic;
  out += '\n';
  char buf[256];
  std::snprintf(buf, sizeof(buf), "resources %zu\n", dataset.size());
  out += buf;
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (HasWhitespace(dataset.urls[i])) {
      return util::Status::InvalidArgument("url not serialisable: '" +
                                           dataset.urls[i] + "'");
    }
    std::snprintf(buf, sizeof(buf), "resource %s %" PRId64 " %" PRId64
                  " %.17g %u\n",
                  dataset.urls[i].c_str(), dataset.year_length[i],
                  dataset.references[i].stable_point, dataset.popularity[i],
                  dataset.source_ids[i]);
    out += buf;
    const core::RfdVector& rfd = dataset.references[i].stable_rfd;
    std::snprintf(buf, sizeof(buf), "reference %zu", rfd.size());
    out += buf;
    for (const auto& [tag, weight] : rfd.entries()) {
      const std::string& name = vocab.Name(tag);
      if (HasWhitespace(name)) {
        return util::Status::InvalidArgument("tag not serialisable: '" +
                                             name + "'");
      }
      std::snprintf(buf, sizeof(buf), " %s %.17g", name.c_str(), weight);
      out += buf;
    }
    out += '\n';
    std::snprintf(buf, sizeof(buf), "initial %zu\n",
                  dataset.initial_posts[i].size());
    out += buf;
    INCENTAG_RETURN_IF_ERROR(
        AppendPosts(dataset.initial_posts[i], vocab, &out));
    std::snprintf(buf, sizeof(buf), "future %zu\n",
                  dataset.future_posts[i].size());
    out += buf;
    INCENTAG_RETURN_IF_ERROR(
        AppendPosts(dataset.future_posts[i], vocab, &out));
  }
  return out;
}

util::Result<LoadedDataset> ParsePreparedDataset(std::string_view text) {
  LineReader reader(text);
  std::string_view line;
  if (!reader.Next(&line) || line != kMagic) {
    return CorruptAt(reader, "missing magic header");
  }
  if (!reader.Next(&line)) return CorruptAt(reader, "missing resources");
  std::vector<std::string_view> header = util::SplitWhitespace(line);
  if (header.size() != 2 || header[0] != "resources") {
    return CorruptAt(reader, "bad resources line");
  }
  auto count = util::ParseInt64(header[1]);
  if (!count.ok() || count.value() < 0) {
    return CorruptAt(reader, "bad resource count");
  }

  LoadedDataset loaded;
  PreparedDataset& ds = loaded.dataset;
  core::PostStore::Builder initial_posts;
  core::PostStore::Builder future_posts;
  auto read_posts = [&](int64_t posts,
                        core::PostStore::Builder* out) -> util::Status {
    for (int64_t p = 0; p < posts; ++p) {
      if (!reader.Next(&line)) return CorruptAt(reader, "missing post");
      std::vector<core::TagId> tags;
      for (std::string_view name : util::SplitWhitespace(line)) {
        tags.push_back(loaded.vocab.Intern(name));
      }
      if (tags.empty()) return CorruptAt(reader, "empty post");
      out->AddPost(core::Post::FromTags(std::move(tags)));
    }
    out->EndResource();
    return util::Status::OK();
  };

  for (int64_t i = 0; i < count.value(); ++i) {
    if (!reader.Next(&line)) return CorruptAt(reader, "missing resource");
    std::vector<std::string_view> fields = util::SplitWhitespace(line);
    if (fields.size() != 6 || fields[0] != "resource") {
      return CorruptAt(reader, "bad resource line");
    }
    auto year = util::ParseInt64(fields[2]);
    auto stable_point = util::ParseInt64(fields[3]);
    auto popularity = util::ParseDouble(fields[4]);
    auto source = util::ParseUint64(fields[5]);
    if (!year.ok() || !stable_point.ok() || !popularity.ok() ||
        !source.ok()) {
      return CorruptAt(reader, "bad resource fields");
    }
    ds.urls.emplace_back(fields[1]);
    ds.year_length.push_back(year.value());
    ds.popularity.push_back(popularity.value());
    ds.source_ids.push_back(static_cast<core::ResourceId>(source.value()));

    if (!reader.Next(&line)) return CorruptAt(reader, "missing reference");
    fields = util::SplitWhitespace(line);
    if (fields.size() < 2 || fields[0] != "reference") {
      return CorruptAt(reader, "bad reference line");
    }
    auto entries = util::ParseInt64(fields[1]);
    if (!entries.ok() || entries.value() < 0 ||
        fields.size() != 2 + 2 * static_cast<size_t>(entries.value())) {
      return CorruptAt(reader, "bad reference entry count");
    }
    std::vector<std::pair<core::TagId, double>> weights;
    for (int64_t e = 0; e < entries.value(); ++e) {
      auto weight = util::ParseDouble(fields[3 + 2 * e]);
      if (!weight.ok() || weight.value() < 0.0) {
        return CorruptAt(reader, "bad reference weight");
      }
      weights.emplace_back(loaded.vocab.Intern(fields[2 + 2 * e]),
                           weight.value());
    }
    ds.references.push_back(core::ResourceReference{
        core::RfdVector::FromWeights(std::move(weights)),
        stable_point.value()});

    if (!reader.Next(&line)) return CorruptAt(reader, "missing initial");
    fields = util::SplitWhitespace(line);
    if (fields.size() != 2 || fields[0] != "initial") {
      return CorruptAt(reader, "bad initial line");
    }
    auto initial_count = util::ParseInt64(fields[1]);
    if (!initial_count.ok() || initial_count.value() < 0) {
      return CorruptAt(reader, "bad initial count");
    }
    INCENTAG_RETURN_IF_ERROR(
        read_posts(initial_count.value(), &initial_posts));

    if (!reader.Next(&line)) return CorruptAt(reader, "missing future");
    fields = util::SplitWhitespace(line);
    if (fields.size() != 2 || fields[0] != "future") {
      return CorruptAt(reader, "bad future line");
    }
    auto future_count = util::ParseInt64(fields[1]);
    if (!future_count.ok() || future_count.value() < 0) {
      return CorruptAt(reader, "bad future count");
    }
    INCENTAG_RETURN_IF_ERROR(
        read_posts(future_count.value(), &future_posts));
  }
  ds.initial_posts = std::move(initial_posts).Build();
  ds.future_posts = std::move(future_posts).Build();
  ds.scanned = count.value();
  return loaded;
}

util::Status SavePreparedDataset(const std::string& path,
                                 const PreparedDataset& dataset,
                                 const core::TagVocabulary& vocab) {
  util::Result<std::string> text =
      SerializePreparedDataset(dataset, vocab);
  if (!text.ok()) return text.status();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return util::Status::IoError("cannot create " + path);
  out << text.value();
  out.flush();
  if (!out) return util::Status::IoError("write failed for " + path);
  return util::Status::OK();
}

util::Result<LoadedDataset> LoadPreparedDataset(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return util::Status::IoError("read failed for " + path);
  return ParsePreparedDataset(buffer.str());
}

}  // namespace sim
}  // namespace incentag
