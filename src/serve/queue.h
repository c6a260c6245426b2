/**
 * @file
 * Sharded MPMC bounded work queue with stealing.
 *
 * The paper's software-trend analysis (Section 3.3) shows serving
 * throughput is won by keeping many independent calls in flight, not
 * by accelerating one call. Each worker therefore has a home shard
 * that it drains first, scanning the others (stealing) only when its
 * own runs dry, so imbalance between producers levels out.
 *
 * Concurrency design: one mutex guards every shard's deque and the
 * closed flag. A push waits on its shard's not-full condvar (block
 * policy), a pop on the shared work-available condvar. close() wakes
 * everyone; pop() returns false only when closed and drained, so no
 * accepted item is ever lost on shutdown.
 */

#ifndef CDPU_SERVE_QUEUE_H_
#define CDPU_SERVE_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "common/types.h"

namespace cdpu::serve
{

/** What a producer does when its target shard is full. */
enum class BackpressurePolicy
{
    block, ///< Wait for a consumer to make room (lossless).
    drop,  ///< Reject the item; push() returns false (load shedding).
};

/** The clock of a push's wait bound. */
using WaitClock = std::chrono::steady_clock;
/** The wait bound of a push that waits as long as it takes. */
inline constexpr WaitClock::time_point kWaitForever =
    WaitClock::time_point::max();

template <typename T> class ShardedWorkQueue
{
  public:
    /**
     * @param shards        Number of shards (clamped >= 1).
     * @param shard_capacity Max items per shard before backpressure.
     * @param policy        Producer behavior on a full shard.
     */
    ShardedWorkQueue(unsigned shards, std::size_t shard_capacity,
                     BackpressurePolicy policy)
        : capacity_(shard_capacity > 0 ? shard_capacity : 1),
          policy_(policy), shards_(shards > 0 ? shards : 1)
    {
    }

    /**
     * Enqueues @p item on shard (@p home % shards) and returns true.
     * A full shard refuses it at once under the drop policy; under the
     * block policy the push waits for room until @p until. A push that
     * is refused, or that finds the queue closed, returns false and
     * destroys @p item: no consumer would pop it.
     */
    bool push(unsigned home, T item,
              WaitClock::time_point until = kWaitForever)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        Shard &shard = shards_[home % shards_.size()];
        auto ready = [&] {
            return closed_ || shard.items.size() < capacity_;
        };
        if (policy_ == BackpressurePolicy::block) {
            if (until == kWaitForever)
                shard.notFull.wait(lock, ready);
            else
                shard.notFull.wait_until(lock, until, ready);
        }
        if (closed_ || shard.items.size() >= capacity_)
            return false;
        shard.items.push_back(std::move(item));
        lock.unlock();
        workAvailable_.notify_one();
        return true;
    }

    /**
     * Dequeues into @p item, preferring shard (@p home % shards) and
     * scanning the others when it is dry. Blocks while the queue is
     * open but empty. Returns false only when closed and fully
     * drained. @p stolen (optional) reports whether the item came
     * from a non-home shard.
     */
    bool pop(unsigned home, T &item, bool *stolen = nullptr)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            if (Shard *shard = take(home, item, stolen)) {
                lock.unlock();
                shard->notFull.notify_one();
                return true;
            }
            if (closed_)
                return false;
            workAvailable_.wait(lock);
        }
    }

    /** Non-blocking pop with the same stealing order as pop(). */
    bool tryPop(unsigned home, T &item, bool *stolen = nullptr)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        Shard *shard = take(home, item, stolen);
        lock.unlock();
        if (shard)
            shard->notFull.notify_one();
        return shard != nullptr;
    }

    /** Stops accepting pushes (waiting ones return false) and lets
     *  consumers drain out. */
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        workAvailable_.notify_all();
        for (Shard &shard : shards_)
            shard.notFull.notify_all();
    }

  private:
    struct Shard
    {
        std::condition_variable notFull;
        std::deque<T> items;
    };

    /** Moves the first item of the home-first scan into @p item and
     *  returns its shard; null when every shard is empty. Holds
     *  mutex_. */
    Shard *take(unsigned home, T &item, bool *stolen)
    {
        const std::size_t count = shards_.size();
        for (std::size_t i = 0; i < count; ++i) {
            Shard &shard = shards_[(home + i) % count];
            if (shard.items.empty())
                continue;
            item = std::move(shard.items.front());
            shard.items.pop_front();
            if (stolen)
                *stolen = i != 0;
            return &shard;
        }
        return nullptr;
    }

    const std::size_t capacity_;
    const BackpressurePolicy policy_;
    std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::vector<Shard> shards_;
    bool closed_ = false;
};

} // namespace cdpu::serve

#endif // CDPU_SERVE_QUEUE_H_
