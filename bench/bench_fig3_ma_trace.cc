// Figure 3: adjacent similarity and MA score along one post sequence, with
// the practically-stable point under (omega, tau).
//
// The paper's figure (omega = 20, tau = 0.99) shows the adjacent
// similarity jittering while the MA score climbs smoothly and crosses tau
// at the stable point; the stable rfd is the snapshot taken there.
#include <cstdio>
#include <string>

#include "bench/common/bench_common.h"
#include "src/core/stability.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace incentag;

  int64_t n = 300;
  int64_t seed = 42;
  int64_t omega = 20;
  double tau = 0.99;
  std::string subject_url = "www.myphysicslab.example";
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources to generate");
  flags.AddInt("seed", &seed, "corpus seed");
  flags.AddInt("omega", &omega, "MA window");
  flags.AddDouble("tau", &tau, "stability threshold");
  flags.AddString("subject", &subject_url, "resource to trace");
  INCENTAG_CHECK(flags.Parse(argc, argv).ok());
  bench::RequireValidOmega("omega", omega);

  auto bench_ds = bench::MakeDataset(n, static_cast<uint64_t>(seed));
  const sim::Corpus& corpus = *bench_ds->corpus;
  auto subject = corpus.FindUrl(subject_url);
  INCENTAG_CHECK(subject.ok());
  const sim::ResourceInfo& info = corpus.resource(subject.value());

  core::StabilityParams params{static_cast<int>(omega), tau};
  const core::PostStore posts = core::PostStore::FromPosts(
      {corpus.MaterializeSequence(subject.value(), info.year_length)});
  std::vector<core::StabilityTracePoint> trace =
      core::StabilityTrace(posts[0], params);

  std::printf("Figure 3: MA score trace of %s (omega=%lld, tau=%.4f)\n",
              info.url.c_str(), static_cast<long long>(omega), tau);
  std::printf("%6s  %10s  %10s\n", "posts", "adjacent", "ma");
  int64_t stable_point = -1;
  for (const core::StabilityTracePoint& point : trace) {
    if (stable_point < 0 && point.ma_defined && point.ma_score > tau) {
      stable_point = point.k;
    }
    if (point.k % 10 == 0 || point.k == stable_point) {
      std::printf("%6lld  %10.4f  %10s%s\n",
                  static_cast<long long>(point.k),
                  point.adjacent_similarity,
                  point.ma_defined
                      ? std::to_string(point.ma_score).substr(0, 8).c_str()
                      : "-",
                  point.k == stable_point ? "   <- stable point" : "");
    }
    if (stable_point > 0 && point.k > stable_point + 40) break;
  }
  if (stable_point < 0) {
    std::printf("sequence did not reach m(k, omega) > tau within %zu "
                "posts\n",
                trace.size());
  } else {
    std::printf("\npractically-stable rfd = F(%lld); MA first exceeded "
                "tau=%.4f there (paper: ~100 posts at omega=20, "
                "tau=0.99)\n",
                static_cast<long long>(stable_point), tau);
  }
  return 0;
}
