#include "kernel/signal.h"

#include <gtest/gtest.h>

#include <numeric>

#include "kernel/scheduler.h"

namespace ctrtl::kernel {
namespace {

TEST(Signal, InitialValueIsEffective) {
  Scheduler sched;
  auto& sig = sched.make_signal<int>("s", 42);
  EXPECT_EQ(sig.read(), 42);
  EXPECT_EQ(sig.name(), "s");
  EXPECT_EQ(sig.driver_count(), 0u);
}

TEST(Signal, DriveTakesEffectNextDelta) {
  Scheduler sched;
  auto& sig = sched.make_signal<int>("s", 0);
  const DriverId d = sig.add_driver(0);
  sched.initialize();
  sig.drive(d, 7);
  EXPECT_EQ(sig.read(), 0) << "assignment must not be visible immediately";
  sched.step();
  EXPECT_EQ(sig.read(), 7);
}

TEST(Signal, LastDriveWinsWithinSamePhase) {
  Scheduler sched;
  auto& sig = sched.make_signal<int>("s", 0);
  const DriverId d = sig.add_driver(0);
  sched.initialize();
  sig.drive(d, 1);
  sig.drive(d, 2);
  sched.step();
  EXPECT_EQ(sig.read(), 2) << "projected waveform replacement: last wins";
}

TEST(Signal, SecondDriverOnUnresolvedThrows) {
  Scheduler sched;
  auto& sig = sched.make_signal<int>("s", 0);
  sig.add_driver(0);
  EXPECT_THROW(sig.add_driver(0), std::logic_error);
}

TEST(Signal, ResolverCombinesAllDrivers) {
  Scheduler sched;
  auto sum = [](std::span<const int> v) {
    return std::accumulate(v.begin(), v.end(), 0);
  };
  auto& sig = sched.make_signal<int>("s", 0, sum);
  const DriverId d1 = sig.add_driver(0);
  const DriverId d2 = sig.add_driver(0);
  sched.initialize();
  sig.drive(d1, 3);
  sig.drive(d2, 4);
  sched.step();
  EXPECT_EQ(sig.read(), 7);
}

TEST(Signal, ResolverSeesUndrivenInitials) {
  Scheduler sched;
  auto sum = [](std::span<const int> v) {
    return std::accumulate(v.begin(), v.end(), 0);
  };
  auto& sig = sched.make_signal<int>("s", 0, sum);
  const DriverId d1 = sig.add_driver(10);
  sig.add_driver(20);  // never driven; contributes its initial value
  sched.initialize();
  sig.drive(d1, 1);
  sched.step();
  EXPECT_EQ(sig.read(), 21);
}

TEST(Signal, NoEventWhenValueUnchanged) {
  Scheduler sched;
  auto& sig = sched.make_signal<int>("s", 5);
  const DriverId d = sig.add_driver(5);
  sched.initialize();
  const std::uint64_t events_before = sched.stats().events;
  sig.drive(d, 5);
  sched.step();
  EXPECT_EQ(sched.stats().events, events_before)
      << "a transaction with the same value must not produce an event";
}

TEST(Signal, DriverValueInspection) {
  Scheduler sched;
  auto first = [](std::span<const int> v) { return v.empty() ? -1 : v.front(); };
  auto& sig = sched.make_signal<int>("s", 0, first);
  const DriverId d = sig.add_driver(9);
  EXPECT_EQ(sig.driver_value(d), 9);
  EXPECT_THROW(sig.driver_value(5), std::out_of_range);
}

TEST(Signal, BadDriverIdThrows) {
  Scheduler sched;
  auto& sig = sched.make_signal<int>("s", 0);
  EXPECT_THROW(sig.drive(0, 1), std::out_of_range);
}

TEST(Signal, DebugValueRendersStreamables) {
  Scheduler sched;
  auto& sig = sched.make_signal<int>("s", 42);
  EXPECT_EQ(sig.debug_value(), "42");
}

TEST(Signal, DriveAfterAppliesAtPhysicalTime) {
  Scheduler sched;
  auto& sig = sched.make_signal<int>("s", 0);
  const DriverId d = sig.add_driver(0);
  sched.initialize();
  sig.drive_after(d, 5, 1000);
  sched.run();
  EXPECT_EQ(sig.read(), 5);
  EXPECT_EQ(sched.now().fs, 1000u);
}

TEST(Signal, SignalIdsAreSequential) {
  Scheduler sched;
  auto& a = sched.make_signal<int>("a", 0);
  auto& b = sched.make_signal<int>("b", 0);
  EXPECT_EQ(a.id(), 0u);
  EXPECT_EQ(b.id(), 1u);
  EXPECT_EQ(sched.signal_count(), 2u);
}

TEST(Signal, ActiveFromADriveUntilItsUpdatePhase) {
  // A drive of the current value is still an update: the signal stays
  // active (on the next update phase's list) until that phase runs.
  Scheduler sched;
  auto& sig = sched.make_signal<int>("s", 0);
  const DriverId driver = sig.add_driver();
  EXPECT_FALSE(sig.active());
  sig.drive(driver, 0);
  EXPECT_TRUE(sig.active());
  sched.run();
  EXPECT_FALSE(sig.active());
  EXPECT_EQ(sched.stats().updates, 1u);
  EXPECT_EQ(sched.stats().events, 0u);
}

TEST(Signal, SetEffectiveBypassesDriversAndReportsEvents) {
  // The external-engine interface (a kCompiled model's lane): a direct
  // effective write returns whether the value changed, without touching
  // drivers or scheduling an update.
  Scheduler sched;
  auto& sig = sched.make_signal<int>("s", 0);
  EXPECT_FALSE(sig.set_effective(0)) << "same value: no event";
  EXPECT_TRUE(sig.set_effective(7));
  EXPECT_EQ(sig.read(), 7);
  EXPECT_FALSE(sig.set_effective(7));
  EXPECT_EQ(sched.stats().updates, 0u) << "no kernel update was scheduled";
}

}  // namespace
}  // namespace ctrtl::kernel
