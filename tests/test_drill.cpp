// The determinism drill (tests/drill.hpp) against its golden,
// tests/golden/drill.txt: every epoch's FleetReport and pushed-event digests
// must match at pool sizes 1 and 4, and the restored daemon must serve the
// report of the epoch it was cut at. The forced-scalar CI leg re-runs this
// with vectors off.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "drill.hpp"

namespace surfos::drill {
namespace {

std::vector<std::string> golden() {
  std::ifstream in(DRILL_GOLDEN_PATH, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << DRILL_GOLDEN_PATH;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_golden(text.str());
}

void expect_golden(std::size_t threads) {
  const std::vector<std::string> want = golden();
  const std::vector<std::string> got = run(threads);
  ASSERT_EQ(got.size(), want.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    // The first few lines name where the run left the golden.
    if (++mismatches <= 5) {
      ADD_FAILURE() << "got  " << got[i] << "\nwant " << want[i];
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << got.size() << " digest lines";
  // The restored daemon serves the report of the epoch it was cut at.
  const auto digest_of = [&](const std::string& key) {
    for (const std::string& l : got) {
      if (l.rfind(key, 0) == 0) return l.substr(key.size());
    }
    return std::string("missing");
  };
  EXPECT_EQ(digest_of("20 cut-report "), digest_of("20 report "));
}

TEST(Drill, MatchesGoldenAtOneThread) { expect_golden(1); }

TEST(Drill, MatchesGoldenAtFourThreads) { expect_golden(4); }

}  // namespace
}  // namespace surfos::drill
