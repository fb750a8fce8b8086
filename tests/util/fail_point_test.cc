// util::FailPoint registry and trigger semantics (ISSUE 10): site
// registration, nth-hit / every-Nth / seeded-probability triggers,
// max_fires caps, deterministic replay of a seeded schedule, and the
// disarm/accounting contract the torture test relies on.
#include "src/util/fail_point.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <vector>

namespace incentag {
namespace util {
namespace {

INCENTAG_FAIL_POINT_DEFINE(g_test_point, "fail_point_test/site");
INCENTAG_FAIL_POINT_DEFINE(g_other_point, "fail_point_test/other");

// Production-site registration (file_io/pwritev etc.) is asserted by the
// integration suites that actually link those TUs — see
// tests/persist/fault_recovery_test.cc. This binary references nothing
// in file_io.cc/socket.cc, so the linker is free to drop those objects
// along with their static registrations; only the locally defined
// points are guaranteed visible here.
TEST(FailPointTest, RegistersAtStaticInitAndIsFindable) {
  FailPoint* found = FailPoint::Find("fail_point_test/site");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &g_test_point);
  EXPECT_STREQ(found->name(), "fail_point_test/site");
  EXPECT_EQ(FailPoint::Find("fail_point_test/other"), &g_other_point);
  EXPECT_EQ(FailPoint::Find("no/such/site"), nullptr);
}

TEST(FailPointTest, DisarmedNeverFires) {
  EXPECT_FALSE(g_test_point.armed());
  FailPoint::Fault fault;
  EXPECT_FALSE(INCENTAG_FAIL_POINT_FIRED(g_test_point, &fault));
}

TEST(FailPointTest, NthHitFiresExactlyOnce) {
  FailPoint::Trigger trigger;
  trigger.mode = FailPoint::Mode::kNthHit;
  trigger.n = 3;
  FailPoint::Fault armed;
  armed.shape = FailPoint::Shape::kErrno;
  armed.err = ENOSPC;
  g_test_point.Arm(trigger, armed);
  FailPoint::Fault fault;
  EXPECT_FALSE(INCENTAG_FAIL_POINT_FIRED(g_test_point, &fault));
  EXPECT_FALSE(INCENTAG_FAIL_POINT_FIRED(g_test_point, &fault));
  EXPECT_TRUE(INCENTAG_FAIL_POINT_FIRED(g_test_point, &fault));
  EXPECT_EQ(fault.err, ENOSPC);
  EXPECT_EQ(fault.shape, FailPoint::Shape::kErrno);
  EXPECT_FALSE(INCENTAG_FAIL_POINT_FIRED(g_test_point, &fault));
  EXPECT_EQ(g_test_point.hits(), 4u);
  EXPECT_EQ(g_test_point.fires(), 1u);
  g_test_point.Disarm();
}

TEST(FailPointTest, EveryNthFiresPeriodically) {
  FailPoint::Trigger trigger;
  trigger.mode = FailPoint::Mode::kEveryNth;
  trigger.n = 2;
  g_test_point.Arm(trigger, FailPoint::Fault{});
  FailPoint::Fault fault;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (INCENTAG_FAIL_POINT_FIRED(g_test_point, &fault)) ++fired;
  }
  EXPECT_EQ(fired, 5);
  g_test_point.Disarm();
}

TEST(FailPointTest, MaxFiresCapsTheSchedule) {
  FailPoint::Trigger trigger;
  trigger.mode = FailPoint::Mode::kAlways;
  trigger.max_fires = 2;
  g_test_point.Arm(trigger, FailPoint::Fault{});
  FailPoint::Fault fault;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (INCENTAG_FAIL_POINT_FIRED(g_test_point, &fault)) ++fired;
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(g_test_point.fires(), 2u);
  EXPECT_EQ(g_test_point.hits(), 10u);
  g_test_point.Disarm();
}

TEST(FailPointTest, SeededProbabilityReplaysIdentically) {
  auto run = [](uint64_t seed) {
    FailPoint::Trigger trigger;
    trigger.mode = FailPoint::Mode::kProbability;
    trigger.probability = 0.3;
    trigger.seed = seed;
    g_test_point.Arm(trigger, FailPoint::Fault{});
    std::vector<bool> schedule;
    FailPoint::Fault fault;
    for (int i = 0; i < 200; ++i) {
      schedule.push_back(INCENTAG_FAIL_POINT_FIRED(g_test_point, &fault));
    }
    g_test_point.Disarm();
    return schedule;
  };
  const std::vector<bool> a = run(42);
  const std::vector<bool> b = run(42);
  const std::vector<bool> c = run(7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // ~30% of 200 draws; generous bounds, deterministic given the seed.
  const int fires_a = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires_a, 20);
  EXPECT_LT(fires_a, 120);
}

TEST(FailPointTest, DisarmAllCoversEveryRegisteredPoint) {
  g_test_point.Arm(FailPoint::Trigger{}, FailPoint::Fault{});
  FailPoint::Fault short_write;
  short_write.shape = FailPoint::Shape::kShortWrite;
  short_write.max_bytes = 1;
  g_other_point.Arm(FailPoint::Trigger{}, short_write);
  EXPECT_TRUE(g_test_point.armed());
  EXPECT_TRUE(g_other_point.armed());
  FailPoint::DisarmAll();
  EXPECT_FALSE(g_test_point.armed());
  EXPECT_FALSE(g_other_point.armed());
  // All() enumerates at least the points defined in this TU.
  const std::vector<FailPoint*> all = FailPoint::All();
  EXPECT_GE(all.size(), 2u);
}

}  // namespace
}  // namespace util
}  // namespace incentag
