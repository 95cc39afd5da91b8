// Result<T> / ErrorCode semantics and the Config knob-snapshot machinery
// (core/status.hpp, core/config.hpp): the registry rows, their defaults and
// the environment parsing every knob read goes through.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/status.hpp"

namespace surfos {
namespace {

TEST(Result, ValueResultRoundTrips) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.code(), ErrorCode::kOk);
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, ErrorResultCarriesCodeAndMessage) {
  Result<int> r(ErrorCode::kNotFound, "no such app");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.error().message, "no such app");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, WrongSideAccessIsALogicError) {
  Result<int> good(1);
  Result<int> bad(ErrorCode::kInternal, "boom");
  EXPECT_THROW((void)good.error(), std::logic_error);
  EXPECT_THROW((void)bad.value(), std::logic_error);
}

TEST(Result, VoidSpecialization) {
  Result<void> ok = ok_result();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), ErrorCode::kOk);
  Result<void> err(ErrorCode::kAdmissionShed, "shed");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), ErrorCode::kAdmissionShed);
  EXPECT_EQ(err.error().message, "shed");
}

TEST(ErrorCode, NamesAreStableAndTotal) {
  EXPECT_STREQ(to_string(ErrorCode::kOk), "ok");
  EXPECT_STREQ(to_string(ErrorCode::kAdmissionShed), "admission-shed");
  EXPECT_STREQ(to_string(ErrorCode::kInternal), "internal");
  for (std::uint16_t v = 0; v < kErrorCodeCount; ++v) {
    EXPECT_STRNE(to_string(static_cast<ErrorCode>(v)), "unknown-error")
        << "code " << v << " has no name";
  }
  // A newer peer's code degrades to a generic name, never UB.
  EXPECT_STREQ(to_string(static_cast<ErrorCode>(kErrorCodeCount)),
               "unknown-error");
}

class ConfigTest : public ::testing::Test {
 protected:
  void TearDown() override { core::clear_config(); }
};

/// Sets (or, with nullptr, unsets) an environment variable for the scope's
/// lifetime and restores the previous value afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) previous_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (previous_) {
      ::setenv(name_, previous_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> previous_;
};

TEST_F(ConfigTest, SetValidatesAgainstTheRegistry) {
  core::Config config;
  EXPECT_EQ(config.set("SURFOS_NOT_A_KNOB", 3).code(), ErrorCode::kNotFound);
  EXPECT_EQ(config.set("SURFOS_ADMIT_QUEUE", 0).code(),
            ErrorCode::kOutOfRange);  // min 1
  ASSERT_TRUE(config.set("SURFOS_ADMIT_QUEUE", 32).ok());
  EXPECT_EQ(config.value(core::Knob::kAdmitQueue), 32u);
  EXPECT_EQ(config.value(core::Knob::kEpochMs), 20u);  // untouched: default
}

TEST_F(ConfigTest, KnobFallsBackToEnvWithoutASnapshot) {
  core::clear_config();
  {
    const ScopedEnv unset("SURFOS_EPOCH_MS", nullptr);
    EXPECT_EQ(core::knob(core::Knob::kEpochMs), 20u);  // the row's default
  }
  const ScopedEnv set("SURFOS_EPOCH_MS", "7");
  EXPECT_EQ(core::knob(core::Knob::kEpochMs), 7u);
}

TEST_F(ConfigTest, InstalledSnapshotOverridesAndHotReloads) {
  const ScopedEnv env("SURFOS_PUMP_MAX", "3");
  core::Config config;
  ASSERT_TRUE(config.set("SURFOS_EPOCH_MS", 5).ok());
  core::install_config(config);
  EXPECT_EQ(core::knob(core::Knob::kEpochMs), 5u);
  // A row the snapshot did not set holds its default, NOT the env value.
  EXPECT_EQ(core::knob(core::Knob::kPumpMax), 8u);

  // set_config_knob swaps a new snapshot in: the next read sees it.
  ASSERT_TRUE(core::set_config_knob("SURFOS_EPOCH_MS", 50).ok());
  EXPECT_EQ(core::knob(core::Knob::kEpochMs), 50u);
  EXPECT_EQ(core::set_config_knob("SURFOS_EPOCH_MS", 0).code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(core::set_config_knob("NOPE", 1).code(), ErrorCode::kNotFound);
}

TEST_F(ConfigTest, SetKnobRefusesConstructionReloadRows) {
  core::install_config(core::Config());
  // Only a restart would apply these rows, so set-knob says so instead of
  // replying OK; the installed value is left alone.
  for (const char* name :
       {"SURFOS_THREADS", "SURFOS_TRACE_BUFFER", "SURFOS_TRACE"}) {
    const auto set = core::set_config_knob(name, 2048);
    EXPECT_EQ(set.code(), ErrorCode::kInvalidArgument) << name;
    EXPECT_NE(set.error().message.find("environment before start"),
              std::string::npos)
        << set.error().message;
  }
  EXPECT_EQ(core::knob(core::Knob::kTraceBuffer), 65536u);
  EXPECT_TRUE(core::set_config_knob("SURFOS_PUMP_MAX", 4).ok());
}

TEST_F(ConfigTest, SetKnobWithoutASnapshotIsUnavailable) {
  core::clear_config();
  EXPECT_EQ(core::set_config_knob("SURFOS_EPOCH_MS", 5).code(),
            ErrorCode::kUnavailable);
}

TEST_F(ConfigTest, EntriesFollowRegistryOrder) {
  // Each Knob names the registry row of its variable.
  const std::pair<core::Knob, const char*> rows[] = {
      {core::Knob::kThreads, "SURFOS_THREADS"},
      {core::Knob::kAdmitQueue, "SURFOS_ADMIT_QUEUE"},
      {core::Knob::kTraceBuffer, "SURFOS_TRACE_BUFFER"},
      {core::Knob::kEpochMs, "SURFOS_EPOCH_MS"},
      {core::Knob::kPumpMax, "SURFOS_PUMP_MAX"},
      {core::Knob::kSubOutbox, "SURFOS_SUB_OUTBOX"},
      {core::Knob::kSloOverrunStreak, "SURFOS_SLO_OVERRUN_STREAK"},
      {core::Knob::kSloQueuePct, "SURFOS_SLO_QUEUE_PCT"},
      {core::Knob::kSloRetryPct, "SURFOS_SLO_RETRY_PCT"},
      {core::Knob::kSloShed, "SURFOS_SLO_SHED"},
      {core::Knob::kPrecomputeCache, "SURFOS_PRECOMPUTE_CACHE"},
      {core::Knob::kTrace, "SURFOS_TRACE"},
  };
  ASSERT_EQ(std::size(rows), core::kKnobCount);
  core::Config config;
  for (const auto& [row, name] : rows) {
    EXPECT_STREQ(core::knob_spec(row).name, name);
    ASSERT_TRUE(config.set(name, 1000).ok()) << name;
    EXPECT_EQ(config.value(row), 1000u) << name;
  }
}

TEST_F(ConfigTest, EveryRowDefaultsAgreeAcrossConfigEnvAndLibraryMode) {
  std::vector<std::unique_ptr<ScopedEnv>> clean;
  for (const core::KnobSpec& spec : core::kKnobRegistry) {
    clean.push_back(std::make_unique<ScopedEnv>(spec.name, nullptr));
  }
  const core::Config defaults;
  const core::Config from_env = core::Config::from_env();
  core::clear_config();
  for (std::size_t i = 0; i < core::kKnobCount; ++i) {
    const auto row = static_cast<core::Knob>(i);
    const core::KnobSpec& spec = core::kKnobRegistry[i];
    EXPECT_EQ(defaults.value(row), spec.default_value) << spec.name;
    EXPECT_EQ(from_env.value(row), spec.default_value) << spec.name;
    EXPECT_EQ(core::knob(row), spec.default_value) << spec.name;
  }
}

TEST_F(ConfigTest, EnvParsingRejectsJunkNegativesAndBelowMinimum) {
  // SURFOS_TRACE_BUFFER: default 65536, minimum 64.
  core::clear_config();
  const auto with = [](const char* value) {
    const ScopedEnv env("SURFOS_TRACE_BUFFER", value);
    return core::knob(core::Knob::kTraceBuffer);
  };
  EXPECT_EQ(with(nullptr), 65536u);  // unset -> default
  EXPECT_EQ(with(""), 65536u);       // empty -> default
  EXPECT_EQ(with("128"), 128u);
  EXPECT_EQ(with("64"), 64u);        // the minimum itself is valid
  EXPECT_EQ(with("63"), 65536u);     // below the minimum -> default
  EXPECT_EQ(with("0"), 65536u);
  EXPECT_EQ(with("-1"), 65536u);     // no unsigned wrap
  EXPECT_EQ(with("-999"), 65536u);
  EXPECT_EQ(with("12abc"), 65536u);  // trailing junk
  EXPECT_EQ(with("abc"), 65536u);
  EXPECT_EQ(with("99999999999999999999999999"), 65536u);  // out of range

  // A row whose minimum is 0 takes 0 as a value ("disabled").
  const ScopedEnv zero("SURFOS_PRECOMPUTE_CACHE", "0");
  EXPECT_EQ(core::knob(core::Knob::kPrecomputeCache), 0u);
  // The switch parses the same way: "off" and "on" are junk and keep the
  // default.
  const auto trace_with = [](const char* value) {
    const ScopedEnv env("SURFOS_TRACE", value);
    return core::knob(core::Knob::kTrace);
  };
  EXPECT_EQ(trace_with("off"), 0u);
  EXPECT_EQ(trace_with("on"), 0u);
  EXPECT_EQ(trace_with("1"), 1u);
}

}  // namespace
}  // namespace surfos
