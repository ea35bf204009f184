/**
 * @file
 * Persistent work-sharing thread pool for the per-quantum hot path.
 *
 * Every decision quantum used to spawn and join ~4 fresh std::thread
 * fleets (three SGD reconstructions plus parallel DDS) — thousands of
 * spawns per experiment. The pool keeps a fixed set of workers alive
 * for the process lifetime and hands them fork-join parallel regions.
 *
 * parallelFor(n, fn) runs fn(0) .. fn(n-1) with the *caller
 * participating*: the caller claims indices from the same atomic
 * counter the workers do, so a parallelFor issued from inside another
 * parallelFor task (nested parallelism — the runtime reconstructs
 * three matrices concurrently and each reconstruction is itself
 * parallel) always makes progress even when every pool worker is
 * busy. The caller can finish the whole region alone, so the pool is
 * deadlock-free by construction regardless of its size.
 *
 * Steady-state regions are heap-free: the callable is passed as a
 * non-owning (invoke-pointer, context) pair — the callable outlives
 * the region because parallelFor blocks until it completes — and the
 * per-region Batch records are recycled through a free list instead
 * of allocated per call.
 */

#ifndef CUTTLESYS_COMMON_THREAD_POOL_HH
#define CUTTLESYS_COMMON_THREAD_POOL_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/sync.hh"

namespace cuttlesys {

/** Fixed-size pool of persistent worker threads. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 falls back to the hardware. */
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker threads owned by the pool (callers come on top). */
    std::size_t size() const { return workers_.size(); }

    /**
     * Run fn(i) for i in [0, n), distributing indices over the pool
     * workers and the calling thread; returns once every invocation
     * completed. If invocations throw, the exception of the lowest
     * failing index is rethrown on the caller, so which failure a
     * region reports does not depend on the schedule. Reentrant: fn
     * may itself call parallelFor on the same pool. The callable is
     * borrowed, not copied — no type erasure, no allocation.
     */
    template <typename Fn>
    void
    parallelFor(std::size_t n, Fn &&fn)
    {
        using Decayed = std::remove_reference_t<Fn>;
        parallelForTask(
            n,
            TaskRef{[](void *ctx, std::size_t i) {
                        (*static_cast<Decayed *>(ctx))(i);
                    },
                    const_cast<std::remove_const_t<Decayed> *>(
                        std::addressof(fn))});
    }

    /**
     * Run fn(block, begin, end) over [0, n) split into fixed-size
     * chunks of @p chunk indices. The decomposition depends only on
     * n and chunk — never on the pool width — so per-block partial
     * results (and any reduction that combines them in block order)
     * are bitwise identical at any CS_POOL_THREADS. This is the
     * building block of the fleet controller's deterministic
     * parallel phases (DESIGN.md §12).
     */
    template <typename Fn>
    void
    parallelChunks(std::size_t n, std::size_t chunk, Fn &&fn)
    {
        if (n == 0)
            return;
        const std::size_t blocks = (n + chunk - 1) / chunk;
        auto body = [&fn, n, chunk](std::size_t b) {
            const std::size_t begin = b * chunk;
            const std::size_t end = std::min(n, begin + chunk);
            fn(b, begin, end);
        };
        parallelFor(blocks, body);
    }

    /**
     * This thread's worker slot: 0 for any thread outside the pool
     * (including a parallelFor caller, which participates in its own
     * regions), 1..size() for the pool workers. Slots are distinct
     * per OS thread, so indexing per-slot scratch (e.g. a
     * WorkerArenaSet sized to slotCount()) is race-free even with
     * nested parallel regions.
     */
    static std::size_t currentSlot();

    /** Distinct worker-slot values handed out: workers + caller. */
    std::size_t slotCount() const { return workers_.size() + 1; }

    /**
     * The process-wide pool used by the SGD reconstruction, parallel
     * DDS and the runtime. Sized to the hardware (at least 2 workers
     * so parallel code paths are exercised even on one core);
     * override with the CS_POOL_THREADS environment variable.
     */
    static ThreadPool &global();

  private:
    /** Non-owning view of the region's callable. */
    struct TaskRef
    {
        void (*invoke)(void *ctx, std::size_t i) = nullptr;
        void *ctx = nullptr;
    };

    /** Shared state of one parallelFor region. */
    struct Batch;

    void parallelForTask(std::size_t n, TaskRef task);
    void workerLoop();
    static void runIndex(Batch &batch, std::size_t i, std::size_t n);
    std::shared_ptr<Batch> acquireBatch() CS_REQUIRES(mutex_);

    Mutex mutex_;
    CondVar cv_;
    /** FIFO of active regions; head index instead of pop_front so the
     *  buffer's capacity is reused across quanta. */
    std::vector<std::shared_ptr<Batch>> queue_ CS_GUARDED_BY(mutex_);
    std::size_t queueHead_ CS_GUARDED_BY(mutex_) = 0;
    /** Retired Batch records, reused when their refcount drops to 1. */
    std::vector<std::shared_ptr<Batch>> freeBatches_
        CS_GUARDED_BY(mutex_);
    std::vector<std::thread> workers_;
    bool stop_ CS_GUARDED_BY(mutex_) = false;
};

} // namespace cuttlesys

#endif // CUTTLESYS_COMMON_THREAD_POOL_HH
