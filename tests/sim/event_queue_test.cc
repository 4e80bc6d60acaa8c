/**
 * @file
 * Unit tests for the discrete-event queue: ordering, determinism,
 * cancellation, rescheduling and bounded runs, plus a differential
 * test against a naive sorted-set queue.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace {

using dgxsim::sim::EventHandle;
using dgxsim::sim::EventQueue;
using dgxsim::sim::Tick;

TEST(EventQueueTest, StartsAtTickZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingEvents(), 0u);
    EXPECT_FALSE(q.step());
}

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueueTest, SameTickEventsRunInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CallbackCanScheduleFurtherEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.scheduleAfter(4, [&] {
            ++fired;
            q.scheduleAfter(5, [&] { ++fired; });
        });
    });
    q.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueueTest, SchedulingInThePastIsFatal)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    EXPECT_THROW(q.schedule(50, [] {}), dgxsim::sim::FatalError);
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventHandle h = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(h.valid());
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(h.valid());
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executedEvents(), 0u);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse)
{
    EventQueue q;
    EventHandle h = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueueTest, CancelAfterFiringReturnsFalse)
{
    EventQueue q;
    EventHandle h = q.schedule(10, [] {});
    q.run();
    EXPECT_FALSE(h.valid());
    EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueueTest, CancelledEventDoesNotBlockQueueDrain)
{
    EventQueue q;
    EventHandle h = q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.cancel(h);
    EXPECT_EQ(q.pendingEvents(), 1u);
    q.run();
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.executedEvents(), 1u);
}

TEST(EventQueueTest, RunUntilStopsAtLimit)
{
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(10, [&] { fired.push_back(10); });
    q.schedule(20, [&] { fired.push_back(20); });
    q.schedule(30, [&] { fired.push_back(30); });
    q.runUntil(20);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(q.now(), 20u);
    q.run();
    EXPECT_EQ(fired.back(), 30u);
}

TEST(EventQueueTest, RunUntilAdvancesTimeWhenQueueDrains)
{
    EventQueue q;
    q.schedule(5, [] {});
    q.runUntil(100);
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueueTest, StepExecutesExactlyOneEvent)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] { ++count; });
    q.schedule(2, [&] { ++count; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), 1u);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(q.step());
}

TEST(EventQueueTest, ExecutedEventsCounterCounts)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(i + 1, [] {});
    q.run();
    EXPECT_EQ(q.executedEvents(), 7u);
}

TEST(EventQueueTest, ArenaRecyclesRecordsInsteadOfGrowing)
{
    // Sequential schedule/fire churn far beyond one slab must keep
    // reusing the free list: the arena stays at its first slab.
    EventQueue q;
    for (int i = 0; i < 10000; ++i) {
        q.schedule(q.now() + 1, [] {});
        q.step();
    }
    EXPECT_EQ(q.executedEvents(), 10000u);
    EXPECT_LE(q.arenaRecords(), 512u) << "free list not reused";
}

TEST(EventQueueTest, ArenaGrowsBySlabUnderLivePressure)
{
    EventQueue q;
    for (int i = 0; i < 1000; ++i)
        q.schedule(10, [] {});
    EXPECT_GE(q.arenaRecords(), 1000u);
    EXPECT_EQ(q.arenaRecords() % 512u, 0u) << "slab granularity";
    const std::size_t peak = q.arenaRecords();
    q.run();
    // Slabs are retained for reuse, never returned mid-simulation.
    EXPECT_EQ(q.arenaRecords(), peak);
}

TEST(EventQueueTest, StaleHandleCannotCancelARecycledRecord)
{
    // After a record is recycled its generation advances, so a
    // handle from the previous occupant must not cancel (or even
    // report valid for) the new event sharing the same slot.
    EventQueue q;
    EventHandle old = q.schedule(1, [] {});
    q.run(); // fires; record returns to the free list
    bool ran = false;
    EventHandle fresh = q.schedule(2, [&] { ran = true; });
    EXPECT_FALSE(old.valid());
    EXPECT_FALSE(q.cancel(old));
    EXPECT_TRUE(fresh.valid());
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueueTest, CancelHeavyChurnKeepsCountsConsistent)
{
    // Every round cancels K handles and schedules them anew.
    // Counters and drain behavior must match the naive queue's
    // semantics exactly.
    EventQueue q;
    const int K = 8;
    std::vector<EventHandle> handles(K);
    long fired = 0;
    for (int round = 0; round < 200; ++round) {
        for (int k = 0; k < K; ++k) {
            q.cancel(handles[k]);
            handles[k] = q.schedule(q.now() + 1 + (k * 7 + round) % 5,
                                    [&fired] { ++fired; });
        }
        q.step();
    }
    q.run();
    EXPECT_EQ(q.executedEvents(), static_cast<std::uint64_t>(fired));
    EXPECT_EQ(q.pendingEvents(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelReleasesTheRecordAtOnce)
{
    // Cancelled entries leave the heap immediately, so a stream of
    // far-future schedule/cancel pairs never grows the arena past its
    // first slab. A queue that cancels lazily keeps each dead entry's
    // record until its tick comes up: 196 slabs here.
    EventQueue q;
    for (int i = 0; i < 100000; ++i) {
        EventHandle h = q.schedule(1000000000 + i, [] {});
        q.cancel(h);
    }
    EXPECT_EQ(q.arenaRecords(), 512u);
    EXPECT_EQ(q.pendingEvents(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RescheduleMovesAPendingEvent)
{
    EventQueue q;
    std::vector<int> order;
    EventHandle a = q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    EventHandle c = q.schedule(30, [&] { order.push_back(3); });
    EXPECT_TRUE(q.reschedule(a, 25));
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(q.reschedule(c, 5));
    EXPECT_EQ(q.pendingEvents(), 3u);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
    EXPECT_EQ(q.now(), 25u);
    EXPECT_FALSE(a.valid());
    EXPECT_FALSE(q.reschedule(a, 40)) << "fired handle must stay inert";
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RescheduleTakesAFreshSequenceNumber)
{
    // Re-keyed to the same tick, an event runs after everything
    // already scheduled there — as cancel() + schedule() would.
    EventQueue q;
    std::vector<int> order;
    EventHandle a = q.schedule(10, [&] { order.push_back(1); });
    q.schedule(10, [&] { order.push_back(2); });
    EXPECT_TRUE(q.reschedule(a, 10));
    q.schedule(10, [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueueTest, RescheduleOfCancelledOrPastIsRejected)
{
    EventQueue q;
    EventHandle h = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.reschedule(h, 20));
    EXPECT_TRUE(q.empty());
    EventHandle later = q.schedule(50, [] {});
    q.schedule(40, [] {});
    q.step();
    EXPECT_THROW(q.reschedule(later, 30), dgxsim::sim::FatalError);
    EXPECT_TRUE(later.valid());
}

/**
 * Differential property test: one xorshift-driven stream of
 * schedule/cancel/reschedule/step operations is applied to the queue
 * and to a naive reference (a sorted set keyed (when, seq) where
 * reschedule is cancel + schedule). Both must fire the same events in
 * the same order and agree on every return value and count.
 */
TEST(EventQueueTest, MatchesNaiveReferenceUnderRandomOperations)
{
    for (std::uint64_t seed : {1ull, 7ull, 0x9e3779b97f4a7c15ull}) {
        std::uint64_t x = seed;
        auto next = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };

        EventQueue q;
        std::vector<EventHandle> handles;
        std::vector<int> fired;

        using Key = std::tuple<Tick, std::uint64_t, int>;
        std::set<Key> ref;
        std::map<int, Key> refKey; // pending id -> its key
        std::uint64_t refSeq = 0;
        Tick refNow = 0;
        std::vector<int> refFired;

        auto refStep = [&] {
            const Key top = *ref.begin();
            ref.erase(ref.begin());
            refNow = std::get<0>(top);
            refKey.erase(std::get<2>(top));
            refFired.push_back(std::get<2>(top));
        };

        for (int op = 0; op < 20000; ++op) {
            const std::uint64_t r = next();
            // Few distinct ticks, so same-tick FIFO order is stressed.
            const Tick when = q.now() + r % 16;
            const int pick =
                handles.empty() ? -1
                                : static_cast<int>((r >> 8) % handles.size());
            switch ((r >> 32) % 8) {
              case 0:
              case 1:
              case 2: {
                const int id = static_cast<int>(handles.size());
                handles.push_back(
                    q.schedule(when, [&fired, id] { fired.push_back(id); }));
                const Key k{when, refSeq++, id};
                ref.insert(k);
                refKey[id] = k;
                break;
              }
              case 3: {
                if (pick < 0)
                    break;
                const bool pending = refKey.count(pick) != 0;
                ASSERT_EQ(q.cancel(handles[pick]), pending);
                if (pending) {
                    ref.erase(refKey[pick]);
                    refKey.erase(pick);
                }
                break;
              }
              case 4:
              case 5: {
                if (pick < 0)
                    break;
                const bool pending = refKey.count(pick) != 0;
                ASSERT_EQ(q.reschedule(handles[pick], when), pending);
                if (pending) {
                    ref.erase(refKey[pick]);
                    const Key k{when, refSeq++, pick};
                    ref.insert(k);
                    refKey[pick] = k;
                }
                break;
              }
              default:
                ASSERT_EQ(q.step(), !ref.empty());
                if (!ref.empty())
                    refStep();
                break;
            }
            ASSERT_EQ(q.pendingEvents(), ref.size());
            ASSERT_EQ(q.now(), refNow);
            if (pick >= 0) {
                ASSERT_EQ(handles[pick].valid(), refKey.count(pick) != 0);
            }
        }
        q.run();
        while (!ref.empty())
            refStep();
        EXPECT_EQ(fired, refFired) << "seed " << seed;
        EXPECT_EQ(q.now(), refNow);
        EXPECT_GT(fired.size(), 1000u);
    }
}

/** Deterministic interleave: a self-rescheduling pair of processes. */
TEST(EventQueueTest, InterleavedProcessesAreDeterministic)
{
    auto run_once = [] {
        EventQueue q;
        std::vector<int> trace;
        std::function<void(int, Tick)> proc = [&](int id, Tick period) {
            trace.push_back(id);
            if (q.now() < 100) {
                q.scheduleAfter(period,
                                [&proc, id, period] { proc(id, period); });
            }
        };
        q.schedule(0, [&] { proc(1, 7); });
        q.schedule(0, [&] { proc(2, 11); });
        q.run();
        return trace;
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
