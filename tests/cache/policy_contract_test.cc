// Contract tests: invariants EVERY consistency policy must satisfy,
// enforced uniformly via a parameterized suite over the full policy roster.

#include <memory>
#include <ostream>

#include <gtest/gtest.h>

#include "src/cache/policy_factory.h"

namespace webcc {
namespace {

struct ContractParam {
  const char* label;
  PolicyConfig config;
};

// Prints the label: gtest's default byte dump would embed the label's
// address in every ctest name, so the names would change from run to run.
void PrintTo(const ContractParam& param, std::ostream* os) { *os << param.label; }

class PolicyContractTest : public ::testing::TestWithParam<ContractParam> {
 protected:
  static CacheEntry FreshEntry(SimTime last_modified, FileType type = FileType::kHtml) {
    CacheEntry entry;
    entry.object = 3;
    entry.type = type;
    entry.version = 5;
    entry.size_bytes = 4000;
    entry.last_modified = last_modified;
    return entry;
  }

  std::unique_ptr<ConsistencyPolicy> MakeIt() { return MakePolicy(GetParam().config); }
};

TEST_P(PolicyContractTest, OnFetchMarksValidAndStampsValidationTime) {
  auto policy = MakeIt();
  CacheEntry entry = FreshEntry(SimTime::Epoch() - Days(30));
  entry.valid = false;  // whatever came before
  const SimTime now = SimTime::Epoch() + Hours(5);
  policy->OnFetch(entry, now, {entry.last_modified, std::nullopt});
  EXPECT_TRUE(entry.valid);
  EXPECT_EQ(entry.validated_at, now);
}

TEST_P(PolicyContractTest, ExpiryNeverPrecedesValidation) {
  auto policy = MakeIt();
  for (int64_t age_days : {0, 1, 30, 365}) {
    CacheEntry entry = FreshEntry(SimTime::Epoch() - Days(age_days));
    const SimTime now = SimTime::Epoch() + Hours(1);
    policy->OnFetch(entry, now, {entry.last_modified, std::nullopt});
    EXPECT_GE(entry.expires_at, now) << GetParam().label << " age " << age_days;
  }
}

TEST_P(PolicyContractTest, InvalidFlagOverridesAnyHorizon) {
  auto policy = MakeIt();
  CacheEntry entry = FreshEntry(SimTime::Epoch() - Days(100));
  policy->OnFetch(entry, SimTime::Epoch(), {entry.last_modified, std::nullopt});
  entry.valid = false;
  EXPECT_FALSE(policy->IsValid(entry, SimTime::Epoch()));
  EXPECT_FALSE(policy->IsValid(entry, SimTime::Epoch() + Seconds(1)));
}

TEST_P(PolicyContractTest, IsValidIsMonotoneInTime) {
  // Once invalid by time, staying put or moving forward never revalidates.
  auto policy = MakeIt();
  CacheEntry entry = FreshEntry(SimTime::Epoch() - Days(10));
  policy->OnFetch(entry, SimTime::Epoch(), {entry.last_modified, std::nullopt});
  bool was_valid = true;
  for (int64_t h = 0; h <= 24 * 60; h += 6) {
    const bool is_valid = policy->IsValid(entry, SimTime::Epoch() + Hours(h));
    EXPECT_TRUE(was_valid || !is_valid) << GetParam().label << " at hour " << h;
    was_valid = is_valid;
  }
}

TEST_P(PolicyContractTest, IsValidIsPureAndRepeatable) {
  auto policy = MakeIt();
  CacheEntry entry = FreshEntry(SimTime::Epoch() - Days(5));
  policy->OnFetch(entry, SimTime::Epoch(), {entry.last_modified, std::nullopt});
  const SimTime probe = SimTime::Epoch() + Hours(3);
  const bool first = policy->IsValid(entry, probe);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(policy->IsValid(entry, probe), first);
  }
}

TEST_P(PolicyContractTest, OnValidateRefreshesNoWorseThanBefore) {
  auto policy = MakeIt();
  CacheEntry entry = FreshEntry(SimTime::Epoch() - Days(20));
  policy->OnFetch(entry, SimTime::Epoch(), {entry.last_modified, std::nullopt});
  const SimTime later = SimTime::Epoch() + Days(3);
  policy->OnValidate(entry, later);
  EXPECT_TRUE(entry.valid);
  EXPECT_EQ(entry.validated_at, later);
  EXPECT_GE(entry.expires_at, later);
}

TEST_P(PolicyContractTest, DescribeIsNonEmptyAndStable) {
  auto policy = MakeIt();
  const std::string description = policy->Describe();
  EXPECT_FALSE(description.empty());
  EXPECT_EQ(policy->Describe(), description);
}

TEST_P(PolicyContractTest, KindMatchesConfig) {
  EXPECT_EQ(MakeIt()->kind(), GetParam().config.kind);
}

TEST_P(PolicyContractTest, FutureLastModifiedDoesNotExplode) {
  // Clock skew: a Last-Modified after "now" must not produce an expires_at
  // in the past relative to validation or crash.
  auto policy = MakeIt();
  CacheEntry entry = FreshEntry(SimTime::Epoch() + Days(2));
  const SimTime now = SimTime::Epoch();
  policy->OnFetch(entry, now, {entry.last_modified, std::nullopt});
  EXPECT_GE(entry.expires_at, now);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyContractTest,
    ::testing::Values(ContractParam{"ttl", PolicyConfig::Ttl(Hours(24))},
                      ContractParam{"ttl_zero", PolicyConfig::Ttl(SimDuration(0))},
                      ContractParam{"alex", PolicyConfig::Alex(0.10)},
                      ContractParam{"alex_zero", PolicyConfig::Alex(0.0)},
                      ContractParam{"alex_huge", PolicyConfig::Alex(2.0)},
                      ContractParam{"cern", PolicyConfig::Cern(0.1, Days(2))},
                      ContractParam{"adaptive", PolicyConfig::Adaptive()},
                      ContractParam{"invalidation", PolicyConfig::Invalidation()}),
    [](const ::testing::TestParamInfo<ContractParam>& param_info) { return param_info.param.label; });

}  // namespace
}  // namespace webcc
