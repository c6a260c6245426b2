#include "serve/executor.h"

#include <algorithm>
#include <map>

namespace cdpu::serve
{

namespace
{

/** Counts one runAll()'s outstanding tasks down to zero. The last
 *  count-down notifies under the lock, so the waiter cannot return,
 *  and destroy the latch, while a worker is still inside it. */
class Latch
{
  public:
    explicit Latch(std::size_t count) : remaining_(count) {}

    void
    countDown()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--remaining_ == 0)
            done_.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] { return remaining_ == 0; });
    }

  private:
    std::mutex mutex_;
    std::condition_variable done_;
    std::size_t remaining_;
};

} // namespace

Executor::Executor(const ExecutorConfig &config)
    : queue_(std::max(config.workers, 1u), config.shardCapacity,
             config.policy)
{
    const unsigned workers = std::max(config.workers, 1u);
    threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        threads_.emplace_back([this, w] {
            Worker worker;
            worker.index = w;
            Task task;
            while (queue_.pop(w, task, &worker.stolen)) {
                task(worker);
                // Release the captures (payloads, connections) now,
                // not when the next task overwrites them.
                task = nullptr;
            }
        });
    }
}

Executor::~Executor()
{
    close();
}

bool
Executor::submit(unsigned home, Task task, WaitClock::time_point until)
{
    return queue_.push(home, std::move(task), until);
}

void
Executor::runAll(std::size_t count,
                 const std::function<void(Worker &, std::size_t)> &fn)
{
    Latch latch(count);
    for (std::size_t i = 0; i < count; ++i) {
        const bool queued =
            submit(static_cast<unsigned>(i % workers()),
                   [&fn, &latch, i](Worker &worker) {
                       fn(worker, i);
                       latch.countDown();
                   });
        if (!queued)
            latch.countDown();
    }
    latch.wait();
}

void
Executor::close()
{
    std::lock_guard<std::mutex> lock(closeMutex_);
    queue_.close();
    for (std::thread &thread : threads_)
        if (thread.joinable())
            thread.join();
}

Executor &
Executor::shared(unsigned workers)
{
    static std::mutex mutex;
    static std::map<unsigned, std::unique_ptr<Executor>> pools;
    workers = std::max(workers, 1u);
    std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<Executor> &pool = pools[workers];
    if (!pool) {
        ExecutorConfig config;
        config.workers = workers;
        pool = std::make_unique<Executor>(config);
    }
    return *pool;
}

} // namespace cdpu::serve
