/**
 * @file
 * Sharded MPMC bounded work queue with stealing.
 *
 * The paper's software-trend analysis (Section 3.3) shows serving
 * throughput is won by keeping many independent calls in flight, not
 * by accelerating one call; the replay engine therefore spreads work
 * over per-worker queue shards so the common case (a worker draining
 * its home shard) takes one uncontended lock, and only imbalance pays
 * for cross-shard traffic (stealing).
 *
 * Concurrency design:
 *  - Each shard has its own mutex + not-full condvar + deque, so
 *    producers and consumers on different shards never contend.
 *  - A global signal mutex guards a signed pending-item counter and
 *    the work-available condvar. Producers insert into the shard
 *    first, then increment; consumers remove first, then decrement.
 *    A scanner can therefore pop an item before its producer has
 *    incremented, transiently driving the counter negative — which is
 *    why it is signed. It is never negative at quiescence.
 *  - close() wakes everyone; pop() returns false only when closed and
 *    drained, so no accepted item is ever lost on shutdown.
 */

#ifndef CDPU_SERVE_QUEUE_H_
#define CDPU_SERVE_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <memory>
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

template <typename T> class ShardedWorkQueue
{
  public:
    /**
     * @param shards        Number of independent shards (clamped >= 1).
     * @param shard_capacity Max items per shard before backpressure.
     * @param policy        Producer behavior on a full shard.
     */
    ShardedWorkQueue(unsigned shards, std::size_t shard_capacity,
                     BackpressurePolicy policy)
        : capacity_(shard_capacity > 0 ? shard_capacity : 1),
          policy_(policy)
    {
        if (shards == 0)
            shards = 1;
        shards_.reserve(shards);
        for (unsigned i = 0; i < shards; ++i)
            shards_.push_back(std::make_unique<Shard>());
    }

    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /**
     * Enqueues @p item on shard (@p home % shards). Returns true if
     * accepted. Under the drop policy a full shard rejects the item
     * and returns false; under the block policy this waits until the
     * shard has room (or the queue closes — then returns false). A
     * closed queue rejects every push: no consumer would pop it.
     */
    bool push(unsigned home, T item)
    {
        Shard &shard = *shards_[home % shards_.size()];
        {
            std::unique_lock<std::mutex> lock(shard.mutex);
            if (isClosed())
                return false;
            if (shard.items.size() >= capacity_) {
                if (policy_ == BackpressurePolicy::drop)
                    return false;
                shard.notFull.wait(lock, [&] {
                    return shard.items.size() < capacity_ || isClosed();
                });
                if (shard.items.size() >= capacity_)
                    return false; // closed while full
            }
            shard.items.push_back(std::move(item));
        }
        {
            std::lock_guard<std::mutex> lock(signalMutex_);
            ++pending_;
        }
        workAvailable_.notify_one();
        return true;
    }

    /**
     * Non-blocking push: enqueues on shard (@p home % shards) when it
     * has room, moving from @p item only on success. A full shard or a
     * closed queue returns false with @p item intact — the caller
     * keeps ownership, so a bounded-wait producer (the daemon's
     * deadline admission policy) can retry the same item until its
     * deadline expires instead of losing it to a consumed-by-value
     * push().
     */
    bool tryPush(unsigned home, T &item)
    {
        Shard &shard = *shards_[home % shards_.size()];
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            if (shard.items.size() >= capacity_ || isClosed())
                return false;
            shard.items.push_back(std::move(item));
        }
        {
            std::lock_guard<std::mutex> lock(signalMutex_);
            ++pending_;
        }
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
        for (;;) {
            if (tryPop(home, item, stolen))
                return true;
            std::unique_lock<std::mutex> lock(signalMutex_);
            if (pending_ > 0)
                continue; // raced with a producer; rescan
            if (closed_)
                return false;
            workAvailable_.wait(
                lock, [&] { return pending_ > 0 || closed_; });
        }
    }

    /** Non-blocking pop with the same stealing order as pop(). */
    bool tryPop(unsigned home, T &item, bool *stolen = nullptr)
    {
        const unsigned count = shardCount();
        for (unsigned i = 0; i < count; ++i) {
            unsigned index = (home + i) % count;
            Shard &shard = *shards_[index];
            {
                std::lock_guard<std::mutex> lock(shard.mutex);
                if (shard.items.empty())
                    continue;
                item = std::move(shard.items.front());
                shard.items.pop_front();
            }
            {
                std::lock_guard<std::mutex> lock(signalMutex_);
                --pending_;
            }
            shard.notFull.notify_one();
            if (stolen)
                *stolen = i != 0;
            return true;
        }
        return false;
    }

    /** Stops accepting pushes (blocked ones return false) and lets
     *  consumers drain out. */
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(signalMutex_);
            closed_ = true;
        }
        workAvailable_.notify_all();
        for (auto &shard : shards_)
            shard->notFull.notify_all();
    }

    bool isClosed() const
    {
        std::lock_guard<std::mutex> lock(signalMutex_);
        return closed_;
    }

    /** Items accepted but not yet popped (approximate while racing). */
    i64 pendingApprox() const
    {
        std::lock_guard<std::mutex> lock(signalMutex_);
        return pending_;
    }

  private:
    struct Shard
    {
        std::mutex mutex;
        std::condition_variable notFull;
        std::deque<T> items;
    };

    const std::size_t capacity_;
    const BackpressurePolicy policy_;
    std::vector<std::unique_ptr<Shard>> shards_;

    mutable std::mutex signalMutex_;
    std::condition_variable workAvailable_;
    i64 pending_ = 0;
    bool closed_ = false;
};

} // namespace cdpu::serve

#endif // CDPU_SERVE_QUEUE_H_
