/**
 * @file
 * The serving layer's one worker pool.
 *
 * Three front ends run codec calls on threads: the fleet-replay engine
 * (engine.h) replays a call stream one call per task, the cdpud daemon
 * (daemon.h) serves live wire requests, and the container's
 * block-parallel decoder (container/container.h) fans out frame blocks.
 * All three are producers over an Executor: a long-lived pool of W
 * threads, each owning a reusable CodecContext and a home shard of a
 * ShardedWorkQueue, stealing from the other shards when its own runs
 * dry. A front end submits closures and the pool runs each exactly
 * once; what a task does, and how its calls are accounted
 * (serve/call_recorder.h), is the front end's business.
 *
 * The engine and the daemon own their pools. Callers without one
 * (container::decodeParallel) share a process-wide pool per worker
 * count, so a decode call costs queue handoffs, not thread start-ups.
 */

#ifndef CDPU_SERVE_EXECUTOR_H_
#define CDPU_SERVE_EXECUTOR_H_

#include <functional>
#include <thread>

#include "serve/codec_context.h"
#include "serve/queue.h"

namespace cdpu::serve
{

/** One pool thread's long-lived state, handed to every task it runs.
 *  The no-thread reference paths build one on the caller's stack. */
struct Worker
{
    unsigned index = 0;   ///< Pool slot; the task's accounting shard.
    CodecContext context; ///< Reused codec scratch.
    bool stolen = false;  ///< The running task came off another shard.
};

struct ExecutorConfig
{
    unsigned workers = 1;
    /** Tasks a worker's shard holds before producers feel
     *  backpressure. */
    std::size_t shardCapacity = 64;
    BackpressurePolicy policy = BackpressurePolicy::block;
};

class Executor
{
  public:
    using Task = std::function<void(Worker &)>;

    /** Starts max(workers, 1) threads. */
    explicit Executor(const ExecutorConfig &config);
    /** close()s: every queued task still runs. */
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    unsigned
    workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Queues @p task on worker (@p home % workers)'s shard with
     *  ShardedWorkQueue::push() semantics: false, with @p task
     *  destroyed, when the drop policy sheds it, a full shard stays
     *  full until @p until, or the pool is closed. */
    bool submit(unsigned home, Task task,
                WaitClock::time_point until = kWaitForever);

    /**
     * Runs fn(worker, i) for every i in [0, @p count), task i homed on
     * worker i % workers, and returns once all of them have finished.
     * Tasks the queue refuses (drop policy) do not run. Never call it
     * from a task of the same pool: that task would wait on itself.
     */
    void runAll(std::size_t count,
                const std::function<void(Worker &, std::size_t)> &fn);

    /** Stops intake, lets the workers finish every queued task, and
     *  joins them. Idempotent. A submit still waiting for room, and
     *  every later one, is refused. */
    void close();

    /** The process-wide pool of @p workers threads (clamped to >= 1),
     *  started on first use and joined at exit. */
    static Executor &shared(unsigned workers);

  private:
    ShardedWorkQueue<Task> queue_;
    std::vector<std::thread> threads_;
    std::mutex closeMutex_;
};

} // namespace cdpu::serve

#endif // CDPU_SERVE_EXECUTOR_H_
