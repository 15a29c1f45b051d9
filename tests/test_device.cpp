#include <gtest/gtest.h>

#include <chrono>

#include "common/error.hpp"
#include "device/device.hpp"

namespace hodlrx {
namespace {

TEST(Device, MemoryAccounting) {
  DeviceContext& dev = DeviceContext::global();
  dev.reset_counters();
  {
    DeviceAllocation a(1000);
    EXPECT_EQ(dev.live_bytes(), 1000u);
    {
      DeviceAllocation b(500);
      EXPECT_EQ(dev.live_bytes(), 1500u);
      EXPECT_EQ(dev.peak_bytes(), 1500u);
    }
    EXPECT_EQ(dev.live_bytes(), 1000u);
  }
  EXPECT_EQ(dev.live_bytes(), 0u);
  EXPECT_EQ(dev.peak_bytes(), 1500u);
}

TEST(Device, MoveSemantics) {
  DeviceContext& dev = DeviceContext::global();
  dev.reset_counters();
  DeviceAllocation a(100);
  DeviceAllocation b = std::move(a);
  EXPECT_EQ(dev.live_bytes(), 100u);
  a = DeviceAllocation(50);
  EXPECT_EQ(dev.live_bytes(), 150u);
}

TEST(Device, OutOfMemoryThrows) {
  DeviceContext& dev = DeviceContext::global();
  dev.reset_counters();
  const std::size_t cap = dev.capacity_bytes();
  dev.set_capacity_bytes(1024);
  EXPECT_THROW({ DeviceAllocation big(4096); }, Error);
  dev.set_capacity_bytes(cap);
  dev.reset_counters();
}

/// Regression: a rejected over-capacity allocation must not count toward
/// live_bytes. The old alloc_bytes added first and threw after, leaking the
/// charge — repeated failed allocations then poisoned every later capacity
/// check and the reported `mem` column.
TEST(Device, FailedAllocLeavesLiveBytesUntouched) {
  DeviceContext& dev = DeviceContext::global();
  dev.reset_counters();
  const std::size_t cap = dev.capacity_bytes();
  dev.set_capacity_bytes(4096);
  DeviceAllocation base(1000);
  const std::size_t live0 = dev.live_bytes();
  ASSERT_EQ(live0, 1000u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_THROW({ DeviceAllocation big(1u << 20); }, Error);
    EXPECT_EQ(dev.live_bytes(), live0)
        << "failed allocation " << i << " leaked into live_bytes";
  }
  // The capacity headroom is really still available after the failures.
  EXPECT_NO_THROW({ DeviceAllocation fits(3000); });
  EXPECT_EQ(dev.live_bytes(), live0);
  dev.set_capacity_bytes(cap);
  dev.reset_counters();
}

/// Regression: reset_counters() with allocations outstanding must keep
/// live_bytes owned by the live handles (their destructors free it later)
/// and rebase the peak to the current live level instead of zero.
TEST(Device, ResetWithOutstandingAllocationsDoesNotUnderflow) {
  DeviceContext& dev = DeviceContext::global();
  dev.reset_counters();
  {
    DeviceAllocation a(2000);
    {
      DeviceAllocation b(500);
      EXPECT_EQ(dev.peak_bytes(), 2500u);
    }
    dev.reset_counters();
    EXPECT_EQ(dev.live_bytes(), 2000u)
        << "reset must not zero bytes owned by live handles";
    EXPECT_EQ(dev.peak_bytes(), 2000u) << "peak rebases to the live level";
    EXPECT_EQ(dev.h2d_bytes(), 0u);
    EXPECT_EQ(dev.launches(), 0u);
  }  // a's destructor frees against the preserved live count
  EXPECT_EQ(dev.live_bytes(), 0u) << "release after reset underflowed";
  EXPECT_EQ(dev.peak_bytes(), 2000u);
  dev.reset_counters();
}

TEST(Device, TransferCounters) {
  DeviceContext& dev = DeviceContext::global();
  dev.reset_counters();
  dev.record_h2d(12ull << 30);
  dev.record_d2h(4096);
  EXPECT_EQ(dev.h2d_bytes(), 12ull << 30);
  EXPECT_EQ(dev.d2h_bytes(), 4096u);
  dev.reset_counters();
  EXPECT_EQ(dev.h2d_bytes(), 0u);
  EXPECT_EQ(dev.d2h_bytes(), 0u);
}

TEST(Device, LaunchLatencyInjection) {
  DeviceContext& dev = DeviceContext::global();
  dev.reset_counters();
  dev.set_launch_latency_us(50.0);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) dev.record_launch();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  dev.set_launch_latency_us(0.0);
  EXPECT_GE(elapsed, 450e-6);  // 10 x 50 us, with slack
  EXPECT_EQ(dev.launches(), 10u);
  dev.reset_counters();
}

}  // namespace
}  // namespace hodlrx
