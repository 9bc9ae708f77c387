#include "faultinject/faultinject.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"

namespace sasynth {
namespace {

/// Every test starts disarmed with metrics on (the injection/degradation
/// counters are part of the contract) and leaves no armed site behind.
class FaultInjectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm_all();
    obs::set_metrics_enabled(true);
    injected_before_ = counter("faults_injected_total").value();
    degraded_before_ = counter("degraded_total").value();
  }

  void TearDown() override {
    fault::disarm_all();
    ::unsetenv("SASYNTH_FAULTS");
  }

  static obs::Counter& counter(const char* name) {
    return obs::MetricsRegistry::global().counter(name);
  }

  std::int64_t injected_delta() const {
    return counter("faults_injected_total").value() - injected_before_;
  }
  std::int64_t degraded_delta() const {
    return counter("degraded_total").value() - degraded_before_;
  }

 private:
  std::int64_t injected_before_ = 0;
  std::int64_t degraded_before_ = 0;
};

TEST_F(FaultInjectTest, DisarmedSiteNeverFires) {
  EXPECT_FALSE(fault::faults_enabled());
  fault::Site& s = fault::site(fault::kSiteTcpRead);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(s.fire(), fault::ErrorKind::kNone);
  }
  EXPECT_EQ(s.injected(), 0);
  EXPECT_EQ(injected_delta(), 0);
}

TEST_F(FaultInjectTest, ArmedSiteFiresOnTheNthCallOnly) {
  fault::FaultSpec spec;
  spec.kind = fault::ErrorKind::kError;
  spec.after = 3;  // fire exactly on the 3rd call
  fault::arm(fault::kSiteCacheLoad, spec);
  EXPECT_TRUE(fault::faults_enabled());

  fault::Site& s = fault::site(fault::kSiteCacheLoad);
  EXPECT_EQ(s.fire(), fault::ErrorKind::kNone);
  EXPECT_EQ(s.fire(), fault::ErrorKind::kNone);
  EXPECT_EQ(s.fire(), fault::ErrorKind::kError);
  EXPECT_EQ(s.fire(), fault::ErrorKind::kNone);  // window is one call wide
  EXPECT_EQ(s.injected(), 1);
  EXPECT_EQ(injected_delta(), 1);
}

TEST_F(FaultInjectTest, CountWindowAndUnlimitedCount) {
  fault::FaultSpec spec;
  spec.kind = fault::ErrorKind::kEintr;
  spec.after = 2;
  spec.count = 3;  // calls 2, 3, 4
  fault::arm(fault::kSiteTcpWrite, spec);
  fault::Site& s = fault::site(fault::kSiteTcpWrite);
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    if (s.fire() != fault::ErrorKind::kNone) ++fired;
  }
  EXPECT_EQ(fired, 3);

  spec.after = 1;
  spec.count = -1;  // every call
  fault::arm(fault::kSiteTcpWrite, spec);  // re-arm resets the call counter
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(s.fire(), fault::ErrorKind::kEintr);
  }
}

TEST_F(FaultInjectTest, ArmingOneSiteLeavesOthersCold) {
  fault::FaultSpec spec;
  spec.kind = fault::ErrorKind::kEnospc;
  fault::arm(fault::kSiteCacheStore, spec);
  EXPECT_EQ(fault::site(fault::kSiteTcpRead).fire(), fault::ErrorKind::kNone);
  EXPECT_EQ(fault::site(fault::kSiteCacheStore).fire(),
            fault::ErrorKind::kEnospc);
}

TEST_F(FaultInjectTest, DisarmAllDropsTheFlagAndCounters) {
  fault::FaultSpec spec;
  spec.kind = fault::ErrorKind::kError;
  spec.count = -1;
  fault::arm(fault::kSiteSchedAdmit, spec);
  fault::Site& s = fault::site(fault::kSiteSchedAdmit);
  EXPECT_NE(s.fire(), fault::ErrorKind::kNone);
  fault::disarm_all();
  EXPECT_FALSE(fault::faults_enabled());
  EXPECT_EQ(s.fire(), fault::ErrorKind::kNone);
  EXPECT_EQ(s.injected(), 0);
  EXPECT_EQ(fault::injected_total(), 0);
}

TEST_F(FaultInjectTest, KindNamesRoundTrip) {
  const fault::ErrorKind kinds[] = {
      fault::ErrorKind::kShortRead, fault::ErrorKind::kEintr,
      fault::ErrorKind::kEpipe,     fault::ErrorKind::kEnospc,
      fault::ErrorKind::kCorrupt,   fault::ErrorKind::kError,
  };
  for (const fault::ErrorKind kind : kinds) {
    fault::ErrorKind parsed = fault::ErrorKind::kNone;
    ASSERT_TRUE(fault::parse_kind(fault::kind_name(kind), &parsed))
        << fault::kind_name(kind);
    EXPECT_EQ(parsed, kind);
  }
  fault::ErrorKind parsed = fault::ErrorKind::kNone;
  EXPECT_FALSE(fault::parse_kind("bogus", &parsed));
}

TEST_F(FaultInjectTest, SpecStringParsesAllForms) {
  std::string error;
  ASSERT_TRUE(fault::parse_and_arm(
      "tcp.read:eintr@2x3,cache.store:enospc,pool.task:error@5x*", &error))
      << error;

  fault::Site& read = fault::site(fault::kSiteTcpRead);
  EXPECT_EQ(read.fire(), fault::ErrorKind::kNone);
  EXPECT_EQ(read.fire(), fault::ErrorKind::kEintr);

  EXPECT_EQ(fault::site(fault::kSiteCacheStore).fire(),
            fault::ErrorKind::kEnospc);

  fault::Site& task = fault::site(fault::kSitePoolTask);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(task.fire(), fault::ErrorKind::kNone);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(task.fire(), fault::ErrorKind::kError);
}

TEST_F(FaultInjectTest, SpecStringRejectsMalformedEntries) {
  const char* bad[] = {
      "nosuch.site:error",  // unknown site
      "tcp.read",           // missing kind
      "tcp.read:bogus",     // unknown kind
      "tcp.read:error@0",   // after must be >= 1
      "tcp.read:error@2x0", // count must be >= 1 or *
      "tcp.read:error@x3",  // empty after
      // Overflow: a value saturated to LLONG_MAX would arm a fault that
      // never fires.
      "tcp.read:eintr@99999999999999999999x5",
      "tcp.read:eintr@1x99999999999999999999",
  };
  for (const char* spec : bad) {
    fault::disarm_all();
    std::string error;
    EXPECT_FALSE(fault::parse_and_arm(spec, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST_F(FaultInjectTest, EmptySpecIsANoOpSuccess) {
  std::string error;
  EXPECT_TRUE(fault::parse_and_arm("", &error));
  EXPECT_FALSE(fault::faults_enabled());
}

TEST_F(FaultInjectTest, InstallFromEnvArmsGoodEntriesAndSkipsBad) {
  ::setenv("SASYNTH_FAULTS", "cache.load:corrupt,junk.site:error,tcp.write:epipe",
           1);
  EXPECT_EQ(fault::install_from_env(), 2);  // the malformed entry is skipped
  EXPECT_EQ(fault::site(fault::kSiteCacheLoad).fire(),
            fault::ErrorKind::kCorrupt);
  EXPECT_EQ(fault::site(fault::kSiteTcpWrite).fire(), fault::ErrorKind::kEpipe);

  ::unsetenv("SASYNTH_FAULTS");
  fault::disarm_all();
  EXPECT_EQ(fault::install_from_env(), 0);
}

TEST_F(FaultInjectTest, RaiseIfArmedThrowsFaultInjected) {
  EXPECT_NO_THROW(fault::raise_if_armed(fault::kSitePoolTask));
  fault::FaultSpec spec;
  spec.kind = fault::ErrorKind::kError;
  fault::arm(fault::kSitePoolTask, spec);
  EXPECT_THROW(fault::raise_if_armed(fault::kSitePoolTask),
               fault::FaultInjected);
  EXPECT_NO_THROW(fault::raise_if_armed(fault::kSitePoolTask));  // window past
}

TEST_F(FaultInjectTest, NoteDegradedFeedsTheCounter) {
  fault::note_degraded();
  fault::note_degraded();
  EXPECT_EQ(degraded_delta(), 2);
}

TEST_F(FaultInjectTest, KnownSitesCoverEveryConstant) {
  const std::vector<std::string>& sites = fault::known_sites();
  for (const char* name :
       {fault::kSiteTcpRead, fault::kSiteTcpWrite, fault::kSiteTcpAccept,
        fault::kSiteCacheLoad, fault::kSiteCacheStore, fault::kSiteCacheEvict,
        fault::kSiteSchedAdmit, fault::kSitePoolTask, fault::kSiteDeployPlan,
        fault::kSiteDeploySelect, fault::kSiteLoopPoll,
        fault::kSiteLoopWakeup, fault::kSiteShardConnect,
        fault::kSiteShardRead, fault::kSiteShardWrite,
        fault::kSiteShardProbe}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), name), sites.end())
        << name;
  }
  EXPECT_EQ(sites.size(), 16u);
}

}  // namespace
}  // namespace sasynth
