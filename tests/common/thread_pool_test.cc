/**
 * @file
 * Tests for the persistent work-sharing thread pool.
 *
 * The properties the runtime depends on: every index runs exactly
 * once, the same pool (and threads) can be reused across many
 * parallelFor calls, nested regions complete without deadlock (the
 * caller participates in its own region), and exceptions propagate to
 * the caller (the lowest failing index's, whatever the schedule).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/sync.hh"
#include "common/thread_pool.hh"

namespace cuttlesys {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ReusedAcrossManyCallsWithoutSpawning)
{
    // The point of the pool: per-call cost must not include thread
    // creation. Collect the set of thread ids across many regions —
    // it must stay bounded by pool size + caller.
    ThreadPool pool(3);
    Mutex mu;
    std::set<std::thread::id> ids;
    for (int call = 0; call < 50; ++call) {
        pool.parallelFor(16, [&](std::size_t) {
            LockGuard lock(mu);
            ids.insert(std::this_thread::get_id());
        });
    }
    EXPECT_LE(ids.size(), pool.size() + 1);
}

TEST(ThreadPoolTest, ZeroThreadRequestFallsBackToHardware)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.size(), 2u);
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(10, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPoolTest, NestedRegionsComplete)
{
    // The runtime nests: parallelFor(3 metrics) whose bodies call
    // parallelFor(SGD workers) on the same pool. Work-sharing makes
    // this deadlock-free — each caller can finish its region alone.
    ThreadPool pool(2);
    std::atomic<std::size_t> leaf{0};
    pool.parallelFor(3, [&](std::size_t) {
        pool.parallelFor(4, [&](std::size_t) { leaf.fetch_add(1); });
    });
    EXPECT_EQ(leaf.load(), 12u);
}

TEST(ThreadPoolTest, HandlesZeroAndSingleElementRegions)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.parallelFor(0, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    pool.parallelFor(1, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, PropagatesExceptionsToCaller)
{
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallelFor(8,
                         [&](std::size_t i) {
                             if (i == 3)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool survives a throwing region.
    std::atomic<int> ok{0};
    pool.parallelFor(4, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPoolTest, RethrowsLowestFailingIndex)
{
    // Index 6 fails first in time; index 2 fails later but is the
    // failure the region must report.
    ThreadPool pool(3);
    for (int run = 0; run < 20; ++run) {
        std::atomic<bool> late_thrown{false};
        try {
            pool.parallelFor(8, [&](std::size_t i) {
                if (i == 6) {
                    late_thrown = true;
                    throw std::runtime_error("6");
                }
                if (i == 2) {
                    // Bounded wait: the pool owes index 6 a thread,
                    // but not within any fixed time.
                    using Clock = std::chrono::steady_clock;
                    const auto give_up =
                        Clock::now() + std::chrono::seconds(2);
                    while (!late_thrown && Clock::now() < give_up)
                        std::this_thread::yield();
                    throw std::runtime_error("2");
                }
            });
            ADD_FAILURE() << "region did not throw";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "2") << "run " << run;
        }
    }
}

TEST(ThreadPoolTest, GlobalPoolIsASingleton)
{
    ThreadPool &a = ThreadPool::global();
    ThreadPool &b = ThreadPool::global();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.size(), 1u);
}

TEST(ThreadPoolTest, ConcurrentSubmittersShareThePool)
{
    // Two external threads submitting regions to one pool must both
    // complete (the queue serves batches FIFO; callers work-share).
    ThreadPool pool(2);
    std::atomic<std::size_t> total{0};
    auto submit = [&] {
        for (int i = 0; i < 20; ++i) {
            pool.parallelFor(32, [&](std::size_t) {
                total.fetch_add(1);
            });
        }
    };
    std::thread t1(submit), t2(submit);
    t1.join();
    t2.join();
    EXPECT_EQ(total.load(), 2u * 20u * 32u);
}

} // namespace
} // namespace cuttlesys
