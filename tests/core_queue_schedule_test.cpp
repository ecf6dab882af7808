// Tests for the carbon-deficit queue (Eq. 17) and the V schedules
// (Sec. 4.3).

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/deficit_queue.hpp"
#include "core/v_schedule.hpp"

namespace coca::core {
namespace {

TEST(DeficitQueue, StartsEmpty) {
  CarbonDeficitQueue q;
  EXPECT_DOUBLE_EQ(q.length(), 0.0);
}

TEST(DeficitQueue, AccumulatesExcessUsage) {
  CarbonDeficitQueue q;
  // y=10, alpha*f=3, z=2 => q grows by 5.
  EXPECT_DOUBLE_EQ(q.update(10.0, 3.0, 1.0, 2.0), 5.0);
  EXPECT_DOUBLE_EQ(q.update(10.0, 3.0, 1.0, 2.0), 10.0);
}

TEST(DeficitQueue, DrainsButNeverGoesNegative) {
  CarbonDeficitQueue q;
  q.update(10.0, 0.0, 1.0, 0.0);  // q = 10
  q.update(0.0, 6.0, 1.0, 0.0);   // q = 4
  EXPECT_DOUBLE_EQ(q.length(), 4.0);
  q.update(0.0, 100.0, 1.0, 0.0);  // clamp at zero
  EXPECT_DOUBLE_EQ(q.length(), 0.0);
}

TEST(DeficitQueue, AlphaScalesOffsets) {
  CarbonDeficitQueue q;
  // y=10, f=10 at alpha=0.5 => drift +5.
  EXPECT_DOUBLE_EQ(q.update(10.0, 10.0, 0.5, 0.0), 5.0);
}

TEST(DeficitQueue, ResetClearsLength) {
  CarbonDeficitQueue q;
  q.update(10.0, 0.0, 1.0, 0.0);
  q.reset();
  EXPECT_DOUBLE_EQ(q.length(), 0.0);
}

TEST(DeficitQueue, LengthFollowsEveryUpdate) {
  CarbonDeficitQueue q;
  q.update(5.0, 0.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(q.length(), 5.0);
  q.update(5.0, 0.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(q.length(), 10.0);
}

TEST(DeficitQueue, RejectsBadInputs) {
  CarbonDeficitQueue q;
  EXPECT_THROW(q.update(-1.0, 0.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(q.update(1.0, -1.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(q.update(1.0, 0.0, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(q.update(1.0, 0.0, 1.0, -1.0), std::invalid_argument);
}

TEST(DeficitQueue, RejectsNonFiniteInputWithoutErasingTheDebt) {
  // A NaN reading used to slip past the sign check and positive_part mapped
  // the NaN iterate to 0, wiping q.  It must fail loudly and leave q intact.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  CarbonDeficitQueue q;
  q.update(450.5, 0.0, 1.0, 0.0);
  for (const double bad : {kNan, kInf, -kInf}) {
    EXPECT_THROW(q.update(bad, 0.0, 1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(q.update(1.0, bad, 1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(q.update(1.0, 0.0, 1.0, bad), std::invalid_argument);
    EXPECT_THROW(q.update(1.0, 0.0, bad, 0.0), std::invalid_argument);
  }
  EXPECT_EQ(q.length(), 450.5);
}

TEST(DeficitQueue, RestoreRejectsNonFiniteState) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  CarbonDeficitQueue q;
  q.update(7.0, 0.0, 1.0, 0.0);
  EXPECT_THROW(q.restore(kNan), std::invalid_argument);
  EXPECT_THROW(q.restore(kInf), std::invalid_argument);
  EXPECT_THROW(q.restore(-kInf), std::invalid_argument);
  EXPECT_THROW(q.restore(-1.0), std::invalid_argument);
  EXPECT_EQ(q.length(), 7.0);  // a rejected restore changes nothing
  q.restore(3.0);
  EXPECT_EQ(q.length(), 3.0);
}

TEST(DeficitQueue, QueueBoundImpliesConstraintSlack) {
  // The telescoping identity behind Eq. 27: sum of (y - allowance) <= q(T).
  CarbonDeficitQueue q;
  const double usage[] = {10.0, 2.0, 8.0, 1.0};
  const double allowance = 5.0;
  double net = 0.0;
  for (double y : usage) {
    q.update(y, allowance, 1.0, 0.0);
    net += y - allowance;
  }
  EXPECT_GE(q.length() + 1e-12, net);
}

TEST(VSchedule, ConstantAppliesEverywhere) {
  const VSchedule s = VSchedule::constant(42.0);
  EXPECT_DOUBLE_EQ(s.v_for_slot(0), 42.0);
  EXPECT_DOUBLE_EQ(s.v_for_slot(1'000'000), 42.0);
  EXPECT_TRUE(s.is_frame_start(0));
  EXPECT_FALSE(s.is_frame_start(1));
  EXPECT_FALSE(s.is_frame_start(8760));
  EXPECT_EQ(s.frame_count(), 1u);
}

TEST(VSchedule, FramesSwitchAtBoundaries) {
  const VSchedule s = VSchedule::frames({1.0, 2.0, 3.0}, 10);
  EXPECT_DOUBLE_EQ(s.v_for_slot(0), 1.0);
  EXPECT_DOUBLE_EQ(s.v_for_slot(9), 1.0);
  EXPECT_DOUBLE_EQ(s.v_for_slot(10), 2.0);
  EXPECT_DOUBLE_EQ(s.v_for_slot(29), 3.0);
  // Past the last frame the final V extends.
  EXPECT_DOUBLE_EQ(s.v_for_slot(99), 3.0);
}

TEST(VSchedule, FrameStartsResetOnlyWithinSchedule) {
  const VSchedule s = VSchedule::frames({1.0, 2.0}, 10);
  EXPECT_TRUE(s.is_frame_start(0));
  EXPECT_TRUE(s.is_frame_start(10));
  EXPECT_FALSE(s.is_frame_start(5));
  // After the schedule's final frame begins, no more resets.
  EXPECT_FALSE(s.is_frame_start(20));
  EXPECT_FALSE(s.is_frame_start(30));
}

TEST(VSchedule, Validation) {
  EXPECT_THROW(VSchedule::constant(0.0), std::invalid_argument);
  EXPECT_THROW(VSchedule::constant(-5.0), std::invalid_argument);
  EXPECT_THROW(VSchedule::frames({}, 10), std::invalid_argument);
  EXPECT_THROW(VSchedule::frames({1.0, -1.0}, 10), std::invalid_argument);
  EXPECT_THROW(VSchedule::frames({1.0, 2.0}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace coca::core
