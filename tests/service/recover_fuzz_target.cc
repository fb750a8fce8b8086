// Fuzz target for crash recovery as a whole. The input is one journal
// file; a fresh deterministic manager recovers the directory holding it.
// Recovery is all or nothing: either Recover refuses the directory with
// no campaign registered, or the campaign is registered and driven to a
// terminal state. Its first pass checks every frame and record, so the
// replay never meets a record it cannot read: a campaign failed with
// "journal replay read failed" is a finding. Built into
// service_recover_fuzz_test (a gtest driver with a seed corpus) and,
// with clang's -fsanitize=fuzzer, alone.
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/service/campaign_manager.h"
#include "src/util/logging.h"
#include "tests/testing/campaign_spec.h"

namespace {

namespace fs = std::filesystem;
using incentag::service::CampaignConfig;

}  // namespace

// Rebuilds a campaign over a small dataset from its submit record.
// Journals the fuzzer invents can ask for anything, so the factory refuses
// campaigns outside a small envelope (as a service would refuse a bad
// submit).
incentag::util::Result<CampaignConfig> RecoverFuzzFactory(
    const incentag::persist::SubmitRecord& record) {
  const incentag::core::EngineOptions& options = record.options;
  if (options.budget < 0 || options.budget > 400 || options.batch_size < 1 ||
      options.batch_size > 64 || options.checkpoints.size() > 8 ||
      !std::is_sorted(options.checkpoints.begin(),
                      options.checkpoints.end()) ||
      (!options.checkpoints.empty() &&
       (options.checkpoints.front() < 0 ||
        options.checkpoints.back() > options.budget))) {
    return incentag::util::Status::InvalidArgument("outside the envelope");
  }
  return incentag::testing::BuildConfig(
      incentag::testing::Dataset(24, 20261020),
      incentag::testing::SpecOf(record));
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const fs::path dir =
      fs::temp_directory_path() /
      ("recover_fuzz_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path journal = dir / "campaign-1.journal";
  std::ofstream(journal, std::ios::binary)
      .write(reinterpret_cast<const char*>(data),
             static_cast<std::streamsize>(size));

  {
    incentag::service::ManagerOptions options;
    options.deterministic = true;
    incentag::service::CampaignManager manager(options);
    auto ids = manager.Recover(dir.string(), RecoverFuzzFactory);
    if (!ids.ok()) {
      INCENTAG_CHECK(manager.num_campaigns() == 0);
    } else {
      INCENTAG_CHECK(ids.value().size() <= 1);
      for (incentag::service::CampaignId id : ids.value()) {
        auto status = manager.Status(id);
        INCENTAG_CHECK(status.ok());
        INCENTAG_CHECK(incentag::service::IsTerminal(status.value().state));
        INCENTAG_CHECK(status.value().error.find(
                           "journal replay read failed") ==
                       std::string::npos);
      }
    }
  }
  fs::remove_all(dir);
  return 0;
}
