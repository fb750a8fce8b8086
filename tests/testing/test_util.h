// Shared helpers for incentag tests: tiny deterministic post generators and
// naive reference implementations that the optimised code is checked
// against.
#ifndef INCENTAG_TESTS_TESTING_TEST_UTIL_H_
#define INCENTAG_TESTS_TESTING_TEST_UTIL_H_

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/core/post_store.h"
#include "src/core/rfd.h"
#include "src/core/types.h"
#include "src/util/random.h"

namespace incentag {
namespace testing {

// A random non-empty post over tags [0, universe).
inline core::Post RandomPost(util::Rng* rng, uint32_t universe,
                             int max_size = 4) {
  const int size =
      1 + static_cast<int>(rng->NextBounded(static_cast<uint64_t>(max_size)));
  std::vector<core::TagId> tags;
  for (int i = 0; i < size; ++i) {
    tags.push_back(static_cast<core::TagId>(rng->NextBounded(universe)));
  }
  return core::Post::FromTags(std::move(tags));
}

// A sequence of `n` random posts.
inline std::vector<core::Post> RandomSequence(util::Rng* rng, int n,
                                              uint32_t universe,
                                              int max_size = 4) {
  std::vector<core::Post> seq;
  seq.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) seq.push_back(RandomPost(rng, universe, max_size));
  return seq;
}

// A store whose one resource holds `posts`, for code that reads a
// core::PostSequence: Store(posts)[0] lives to the end of the statement.
inline core::PostStore Store(const std::vector<core::Post>& posts) {
  return core::PostStore::FromPosts({posts});
}

// `<temp dir>/<pid>_<name>`: a path no other process running the same
// test binary at once (a second build's ctest, say) also uses.
inline std::filesystem::path TempPath(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         (std::to_string(::getpid()) + "_" + name);
}

// A sequence drawn from a fixed skewed latent distribution, so rfds
// actually converge (unlike uniform RandomSequence).
inline std::vector<core::Post> ConvergingSequence(util::Rng* rng, int n,
                                                  uint32_t universe,
                                                  int max_size = 3) {
  std::vector<double> weights(universe);
  for (uint32_t t = 0; t < universe; ++t) {
    weights[t] = 1.0 / static_cast<double>((t + 1) * (t + 1));
  }
  std::vector<core::Post> seq;
  seq.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int size = 1 + static_cast<int>(rng->NextBounded(
                             static_cast<uint64_t>(max_size)));
    std::vector<core::TagId> tags;
    for (int s = 0; s < size; ++s) {
      tags.push_back(
          static_cast<core::TagId>(rng->NextWeighted(weights)));
    }
    seq.push_back(core::Post::FromTags(std::move(tags)));
  }
  return seq;
}

// Naive reference: exact tag-count map of a prefix.
inline std::map<core::TagId, int64_t> NaiveCounts(
    const std::vector<core::Post>& posts, int64_t k) {
  std::map<core::TagId, int64_t> counts;
  for (int64_t i = 0; i < k; ++i) {
    for (core::TagId t : posts[static_cast<size_t>(i)].tags) ++counts[t];
  }
  return counts;
}

// Naive reference: cosine of two count maps.
inline double NaiveCosine(const std::map<core::TagId, int64_t>& a,
                          const std::map<core::TagId, int64_t>& b) {
  if (a.empty() || b.empty()) return 0.0;
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (const auto& [t, c] : a) {
    na += static_cast<double>(c) * static_cast<double>(c);
    auto it = b.find(t);
    if (it != b.end()) {
      dot += static_cast<double>(c) * static_cast<double>(it->second);
    }
  }
  for (const auto& [t, c] : b) {
    nb += static_cast<double>(c) * static_cast<double>(c);
  }
  if (dot == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

// Naive reference: m(k, omega) straight from Definition 7 — average of the
// adjacent similarities at posts k-omega+2 .. k, each computed from scratch.
inline double NaiveMaScore(const std::vector<core::Post>& posts, int64_t k,
                           int omega) {
  double sum = 0.0;
  for (int64_t j = k - omega + 2; j <= k; ++j) {
    sum += NaiveCosine(NaiveCounts(posts, j - 1), NaiveCounts(posts, j));
  }
  return sum / static_cast<double>(omega - 1);
}

}  // namespace testing
}  // namespace incentag

#endif  // INCENTAG_TESTS_TESTING_TEST_UTIL_H_
