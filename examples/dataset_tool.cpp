// Dataset tool: export a synthetic corpus as a del.icio.us-style dump,
// re-import it, and print corpus statistics (the numbers behind the
// paper's Figure 1(b) and its Section I analysis).
//
// Modes:
//   --mode=export --out=posts.tsv        generate a corpus, write the dump
//   --mode=stats  --in=posts.tsv         read a dump, print statistics
//   --mode=roundtrip                      export + import + prep, in /tmp
//
// A real del.icio.us crawl converted to the four-column format (epoch,
// user, url, tags) can be fed to --mode=stats unchanged.
#include <cstdio>
#include <string>
#include <vector>

#include "src/sim/dataset_prep.h"
#include "src/sim/delicious_format.h"
#include "src/sim/generator.h"
#include "src/util/flags.h"
#include "src/util/stats.h"

namespace {

using incentag::sim::RawDump;

int PrintDumpStats(const RawDump& dump) {
  std::printf("dump: %lld lines, %lld posts, %lld skipped, %zu urls, "
              "%zu tags\n",
              static_cast<long long>(dump.lines),
              static_cast<long long>(dump.posts),
              static_cast<long long>(dump.skipped), dump.urls.size(),
              dump.vocab.size());

  incentag::util::LogHistogram histogram;
  incentag::util::RunningStats posts_per_url;
  for (const auto& seq : dump.sequences) {
    histogram.Add(seq.size());
    posts_per_url.Add(static_cast<double>(seq.size()));
  }
  std::printf("\nposts-per-resource distribution (Figure 1(b) shape):\n%s",
              histogram.ToString().c_str());
  std::printf("mean=%.1f min=%.0f max=%.0f\n", posts_per_url.mean(),
              posts_per_url.min(), posts_per_url.max());

  // Dataset preparation summary (stable rfds, stable points).
  incentag::sim::PrepConfig prep_config;
  auto prep = incentag::sim::PrepareFromSequences(dump.sequences, dump.urls,
                                                  prep_config);
  if (!prep.ok()) {
    std::printf("\nprep: %s\n", prep.status().ToString().c_str());
    return 0;  // stats mode still succeeded
  }
  std::vector<double> stable_points;
  for (const auto& ref : prep.value().references) {
    stable_points.push_back(static_cast<double>(ref.stable_point));
  }
  std::printf("\nprep: kept %zu stable resources (dropped %lld)\n",
              prep.value().size(),
              static_cast<long long>(prep.value().dropped_unstable));
  std::printf("stable points: p25=%.0f median=%.0f p75=%.0f\n",
              incentag::util::Percentile(stable_points, 25),
              incentag::util::Percentile(stable_points, 50),
              incentag::util::Percentile(stable_points, 75));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace incentag;

  std::string mode = "roundtrip";
  std::string in_path;
  std::string out_path = "/tmp/incentag_posts.tsv";
  int64_t n = 300;
  int64_t seed = 42;
  util::FlagSet flags;
  flags.AddString("mode", &mode, "export | stats | roundtrip");
  flags.AddString("in", &in_path, "dump file to read (stats mode)");
  flags.AddString("out", &out_path, "dump file to write (export mode)");
  flags.AddInt("n", &n, "resources to generate (export mode)");
  flags.AddInt("seed", &seed, "corpus seed");
  util::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\nusage:\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 1;
  }

  auto export_corpus = [&](const std::string& path) -> util::Status {
    sim::CorpusConfig config;
    config.num_resources = n;
    config.seed = static_cast<uint64_t>(seed);
    auto corpus = sim::Corpus::Generate(config);
    if (!corpus.ok()) return corpus.status();
    std::vector<std::string> urls;
    core::PostStore::Builder sequences;
    for (core::ResourceId i = 0; i < corpus.value().num_resources(); ++i) {
      urls.push_back(corpus.value().resource(i).url);
      for (const core::Post& post : corpus.value().MaterializeSequence(
               i, corpus.value().resource(i).year_length)) {
        sequences.AddPost(post);
      }
      sequences.EndResource();
    }
    INCENTAG_RETURN_IF_ERROR(sim::WriteDumpFile(
        path, urls, std::move(sequences).Build(), corpus.value().vocab()));
    std::printf("wrote %zu resources to %s\n", urls.size(), path.c_str());
    return util::Status::OK();
  };

  if (mode == "export") {
    util::Status status = export_corpus(out_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (mode == "stats") {
    if (in_path.empty()) {
      std::fprintf(stderr, "--mode=stats requires --in=<dump>\n");
      return 1;
    }
    auto dump = sim::ReadDumpFile(in_path);
    if (!dump.ok()) {
      std::fprintf(stderr, "%s\n", dump.status().ToString().c_str());
      return 1;
    }
    return PrintDumpStats(dump.value());
  }
  if (mode == "roundtrip") {
    util::Status status = export_corpus(out_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    auto dump = sim::ReadDumpFile(out_path);
    if (!dump.ok()) {
      std::fprintf(stderr, "%s\n", dump.status().ToString().c_str());
      return 1;
    }
    return PrintDumpStats(dump.value());
  }
  std::fprintf(stderr, "unknown --mode=%s\n", mode.c_str());
  return 1;
}
