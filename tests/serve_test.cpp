/**
 * @file
 * Serve-layer battery: queue semantics (stealing, backpressure,
 * shutdown drain) and the engine's determinism contract — any worker
 * count must replay a stream to byte-identical per-call outputs and
 * an identical deterministic ("work") counter snapshot versus the
 * no-thread sequential reference.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <thread>
#include <utility>

#include "codec/obs_bridge.h"
#include "codec/registry.h"
#include "corpus/generators.h"
#include "serve/engine.h"
#include "serve/executor.h"
#include "serve/queue.h"
#include "serve/stream_builder.h"
#include "snappy/decompress.h"
#include "zstdlite/decompress.h"

namespace cdpu::serve
{
namespace
{

// --- ShardedWorkQueue -------------------------------------------------

/** A queue item that counts its destructions (moved-from shells
 *  aside), so a test can see a refused push destroy what it held. */
class Tracked
{
  public:
    Tracked() = default;
    explicit Tracked(std::atomic<int> *deaths) : deaths_(deaths) {}
    Tracked(Tracked &&other) noexcept
        : deaths_(std::exchange(other.deaths_, nullptr))
    {
    }
    Tracked &
    operator=(Tracked &&other) noexcept
    {
        std::swap(deaths_, other.deaths_);
        return *this;
    }
    ~Tracked()
    {
        if (deaths_)
            deaths_->fetch_add(1);
    }

  private:
    std::atomic<int> *deaths_ = nullptr;
};

TEST(ShardedWorkQueueTest, FifoWithinShard)
{
    ShardedWorkQueue<int> queue(1, 8, BackpressurePolicy::block);
    EXPECT_TRUE(queue.push(0, 1));
    EXPECT_TRUE(queue.push(0, 2));
    EXPECT_TRUE(queue.push(0, 3));
    int item = 0;
    EXPECT_TRUE(queue.tryPop(0, item));
    EXPECT_EQ(item, 1);
    EXPECT_TRUE(queue.tryPop(0, item));
    EXPECT_EQ(item, 2);
    EXPECT_TRUE(queue.tryPop(0, item));
    EXPECT_EQ(item, 3);
    EXPECT_FALSE(queue.tryPop(0, item));
}

TEST(ShardedWorkQueueTest, DropPolicyRejectsWhenFull)
{
    ShardedWorkQueue<int> queue(2, 2, BackpressurePolicy::drop);
    EXPECT_TRUE(queue.push(0, 1));
    EXPECT_TRUE(queue.push(0, 2));
    EXPECT_FALSE(queue.push(0, 3)); // shard 0 full -> shed
    EXPECT_TRUE(queue.push(1, 4));  // shard 1 untouched
    int item = 0;
    int popped = 0;
    while (queue.tryPop(0, item))
        ++popped;
    EXPECT_EQ(popped, 3);
}

TEST(ShardedWorkQueueTest, BoundedPushRefusesOnceItsBoundPasses)
{
    std::atomic<int> deaths{0};
    ShardedWorkQueue<Tracked> queue(2, 1, BackpressurePolicy::block);
    EXPECT_TRUE(queue.push(0, Tracked(&deaths)));

    const auto bound = std::chrono::milliseconds(20);
    const auto started = WaitClock::now();
    EXPECT_FALSE(queue.push(0, Tracked(&deaths), started + bound));
    EXPECT_GE(WaitClock::now() - started, bound); // it waited it out
    EXPECT_EQ(deaths.load(), 1); // the refused item, not the queued one

    // A shard with room takes the item even when the bound has passed.
    EXPECT_TRUE(queue.push(1, Tracked(&deaths), started));
    EXPECT_EQ(deaths.load(), 1);
}

TEST(ShardedWorkQueueTest, BoundedPushSucceedsWhenRoomAppearsInTime)
{
    ShardedWorkQueue<int> queue(1, 1, BackpressurePolicy::block);
    EXPECT_TRUE(queue.push(0, 1));
    std::thread consumer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        int item = 0;
        EXPECT_TRUE(queue.pop(0, item));
        EXPECT_EQ(item, 1);
    });
    EXPECT_TRUE(
        queue.push(0, 2, WaitClock::now() + std::chrono::seconds(60)));
    consumer.join();
    int item = 0;
    EXPECT_TRUE(queue.tryPop(0, item));
    EXPECT_EQ(item, 2);
}

TEST(ShardedWorkQueueTest, CloseRefusesAPushWaitingWithoutABound)
{
    std::atomic<int> deaths{0};
    ShardedWorkQueue<Tracked> queue(1, 1, BackpressurePolicy::block);
    EXPECT_TRUE(queue.push(0, Tracked(&deaths)));
    std::atomic<bool> accepted{true};
    std::thread producer(
        [&] { accepted = queue.push(0, Tracked(&deaths)); });
    // Give the producer time to park on the full shard; close() must
    // wake it either way.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.close();
    producer.join();
    EXPECT_FALSE(accepted.load());
    EXPECT_EQ(deaths.load(), 1);

    Tracked item;
    EXPECT_TRUE(queue.pop(0, item)); // the accepted item still drains
    EXPECT_FALSE(queue.pop(0, item));
}

TEST(ShardedWorkQueueTest, StealsFromOtherShards)
{
    ShardedWorkQueue<int> queue(4, 8, BackpressurePolicy::block);
    EXPECT_TRUE(queue.push(0, 42));
    int item = 0;
    bool stolen = false;
    // Home shard 2 is empty; the scan must find shard 0's item.
    EXPECT_TRUE(queue.tryPop(2, item, &stolen));
    EXPECT_EQ(item, 42);
    EXPECT_TRUE(stolen);

    EXPECT_TRUE(queue.push(1, 7));
    EXPECT_TRUE(queue.pop(1, item, &stolen));
    EXPECT_EQ(item, 7);
    EXPECT_FALSE(stolen); // home hit
}

TEST(ShardedWorkQueueTest, CloseDrainsAcceptedItems)
{
    ShardedWorkQueue<int> queue(2, 8, BackpressurePolicy::block);
    for (int i = 0; i < 6; ++i)
        EXPECT_TRUE(queue.push(static_cast<unsigned>(i), i));
    queue.close();
    EXPECT_FALSE(queue.push(0, 99)); // room left, but nobody would pop it
    int seen = 0;
    int item = 0;
    while (queue.pop(0, item))
        ++seen;
    EXPECT_EQ(seen, 6); // nothing accepted is lost on shutdown
}

TEST(ShardedWorkQueueTest, PopBlocksUntilPushOrClose)
{
    ShardedWorkQueue<int> queue(1, 4, BackpressurePolicy::block);
    std::atomic<int> got{-1};
    std::thread consumer([&] {
        int item = 0;
        if (queue.pop(0, item))
            got = item;
    });
    // The consumer parks; a push must wake it.
    queue.push(0, 99);
    consumer.join();
    EXPECT_EQ(got.load(), 99);

    std::atomic<bool> returned{false};
    std::thread drained([&] {
        int item = 0;
        EXPECT_FALSE(queue.pop(0, item));
        returned = true;
    });
    queue.close();
    drained.join();
    EXPECT_TRUE(returned.load());
}

TEST(ShardedWorkQueueTest, BlockPolicyWaitsForRoom)
{
    ShardedWorkQueue<int> queue(1, 1, BackpressurePolicy::block);
    EXPECT_TRUE(queue.push(0, 1));
    std::atomic<bool> second_accepted{false};
    std::thread producer([&] {
        second_accepted = queue.push(0, 2); // blocks on the full shard
    });
    int item = 0;
    EXPECT_TRUE(queue.pop(0, item));
    EXPECT_EQ(item, 1);
    producer.join();
    EXPECT_TRUE(second_accepted.load());
    EXPECT_TRUE(queue.tryPop(0, item));
    EXPECT_EQ(item, 2);
}

TEST(ShardedWorkQueueTest, ConcurrentProducersConsumersLoseNothing)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 250;
    ShardedWorkQueue<int> queue(kConsumers, 16,
                                BackpressurePolicy::block);
    std::atomic<long> sum{0};
    std::atomic<long> count{0};

    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&, c] {
            int item = 0;
            while (queue.pop(static_cast<unsigned>(c), item)) {
                sum += item;
                ++count;
            }
        });
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i)
                queue.push(static_cast<unsigned>(p),
                           p * kPerProducer + i);
        });
    }
    for (auto &producer : producers)
        producer.join();
    queue.close();
    for (auto &consumer : consumers)
        consumer.join();

    long n = kProducers * kPerProducer;
    EXPECT_EQ(count.load(), n);
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// --- Executor ---------------------------------------------------------

TEST(ExecutorTest, RunAllRunsEveryTaskOnceOnLongLivedWorkers)
{
    ExecutorConfig config;
    config.workers = 3;
    config.shardCapacity = 2; // the producer feels backpressure
    Executor executor(config);
    ASSERT_EQ(executor.workers(), 3u);

    std::vector<std::atomic<int>> runs(200);
    std::mutex mutex;
    std::set<std::thread::id> threads;
    for (int round = 0; round < 3; ++round) {
        executor.runAll(runs.size(), [&](Worker &worker, std::size_t i) {
            EXPECT_LT(worker.index, 3u);
            runs[i].fetch_add(1);
            std::lock_guard<std::mutex> lock(mutex);
            threads.insert(std::this_thread::get_id());
        });
    }
    for (const std::atomic<int> &count : runs)
        EXPECT_EQ(count.load(), 3);
    // The same three threads served every round: no per-run spawns.
    EXPECT_LE(threads.size(), 3u);
    EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);
}

TEST(ExecutorTest, CloseRunsEverySubmittedTaskThenRefuses)
{
    ExecutorConfig config;
    config.workers = 2;
    Executor executor(config);
    std::atomic<int> ran{0};
    for (unsigned i = 0; i < 50; ++i)
        ASSERT_TRUE(executor.submit(i, [&](Worker &) { ++ran; }));
    executor.close();
    EXPECT_EQ(ran.load(), 50);
    EXPECT_FALSE(executor.submit(0, [&](Worker &) { ++ran; }));
    executor.close(); // idempotent
    EXPECT_EQ(ran.load(), 50);
}

TEST(ExecutorTest, BoundedSubmitRefusesOnceItsBoundPasses)
{
    ExecutorConfig config;
    config.workers = 1;
    config.shardCapacity = 1;
    Executor executor(config);
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::promise<void> running;
    std::atomic<int> ran{0};
    // The worker holds the first task, the second fills the shard.
    ASSERT_TRUE(executor.submit(0, [&](Worker &) {
        running.set_value();
        released.wait();
        ++ran;
    }));
    running.get_future().wait();
    ASSERT_TRUE(executor.submit(0, [&](Worker &) { ++ran; }));
    EXPECT_FALSE(executor.submit(
        0, [&](Worker &) { ran += 100; },
        WaitClock::now() + std::chrono::milliseconds(10)));
    release.set_value();
    executor.close();
    EXPECT_EQ(ran.load(), 2); // the refused task never ran
}

TEST(ExecutorTest, SharedPoolIsReusedPerWorkerCount)
{
    Executor &two = Executor::shared(2);
    EXPECT_EQ(&two, &Executor::shared(2));
    EXPECT_EQ(two.workers(), 2u);
    EXPECT_NE(&two, &Executor::shared(3));
    EXPECT_EQ(Executor::shared(0).workers(), 1u);
}

// --- CallRecorder -----------------------------------------------------

TEST(CallRecorderTest, HandlesAreResolvedOnceAndAttributedPerTenant)
{
    Rng rng(5);
    const Bytes payload = corpus::generateMixed(8 * kKiB, rng, 2 * kKiB);
    CallRecorder recorder(kServeCallNames, 2, nullptr, {"test.events"});
    Worker worker;
    for (u64 i = 0; i < 6; ++i) {
        hcb::ReplayCall call;
        call.id = i;
        call.codec = i % 2 ? codec::CodecId::zstdlite
                           : codec::CodecId::snappy;
        call.payload = ByteSpan(payload.data(), payload.size());
        const CallResult result = recorder.run(worker, call);
        ASSERT_TRUE(result.status.ok());
        recorder.record(static_cast<unsigned>(i % 2), call, result, 1000,
                        i < 4 ? std::optional<u64>(7) : std::nullopt);
        recorder.countEvent(0, 0, 2, u64{7});
    }

    const obs::CounterSnapshot work = recorder.work();
    EXPECT_EQ(work.at("serve.calls"), 6u);
    EXPECT_EQ(work.at("serve.calls.snappy"), 3u);
    EXPECT_EQ(work.at("serve.calls.zstdlite"), 3u);
    EXPECT_EQ(work.at("serve.calls.compress"), 6u);
    EXPECT_FALSE(work.has("serve.calls.decompress"));
    EXPECT_FALSE(work.has("serve.failures"));
    EXPECT_EQ(work.at("serve.bytes.in"), 6 * payload.size());
    EXPECT_EQ(work.at("serve.tenant.calls.t7"), 4u);
    EXPECT_EQ(work.at("serve.tenant.bytes_in.t7"), 4 * payload.size());
    u64 kernel_work = 0;
    for (const auto &[name, value] : work.counters)
        if (name.rfind("kernel.", 0) == 0)
            kernel_work += value;
    EXPECT_GT(kernel_work, 0u); // per-call fast-path deltas were kept

    const obs::CounterSnapshot runtime = recorder.runtime();
    EXPECT_EQ(runtime.histogramAt("serve.latency_ns").count, 6u);
    EXPECT_EQ(runtime.at("test.events"), 12u);
    EXPECT_EQ(runtime.at("test.events.t7"), 12u);
    u64 cells = 0;
    for (const auto &[name, hist] : runtime.histograms)
        if (name.rfind("serve.latency_ns.by.", 0) == 0)
            cells += hist.count;
    EXPECT_EQ(cells, 6u);
}

TEST(CallRecorderTest, FailedCallIsCountedAsAFailure)
{
    CallRecorder recorder(kContainerCallNames, 1);
    Worker worker;
    const Bytes junk = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
    hcb::ReplayCall call;
    call.codec = codec::CodecId::snappy;
    call.direction = codec::Direction::decompress;
    call.payload = ByteSpan(junk.data(), junk.size());
    const CallResult result = recorder.run(worker, call);
    EXPECT_FALSE(result.status.ok());
    recorder.record(0, call, result, 0);

    const obs::CounterSnapshot work = recorder.work();
    EXPECT_EQ(work.at("container.blocks"), 1u);
    EXPECT_EQ(work.at("container.blocks.failed"), 1u);
    EXPECT_FALSE(work.has("container.blocks.ok"));
    EXPECT_FALSE(work.has("container.block_regen_bytes"));
    // No latency name: the container records no runtime histograms.
    EXPECT_TRUE(recorder.runtime().histograms.empty());
}

// --- Engine determinism ----------------------------------------------

StreamConfig
smallStreamConfig()
{
    StreamConfig config;
    config.calls = 72;
    config.minCallBytes = 512;
    config.maxCallBytes = 12 * kKiB;
    config.seed = 7;
    return config;
}

void
expectHistogramsEqual(const obs::CounterSnapshot &a,
                      const obs::CounterSnapshot &b)
{
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (const auto &[name, hist] : a.histograms) {
        auto it = b.histograms.find(name);
        ASSERT_NE(it, b.histograms.end()) << name;
        EXPECT_EQ(hist.count, it->second.count) << name;
        EXPECT_EQ(hist.sum, it->second.sum) << name;
        EXPECT_EQ(hist.min, it->second.min) << name;
        EXPECT_EQ(hist.max, it->second.max) << name;
        EXPECT_EQ(hist.buckets, it->second.buckets) << name;
    }
}

/** The core differential assertion: parallel == sequential, bytes and
 *  deterministic counters both. */
void
expectReplayMatchesReference(const ReplayReport &parallel,
                             const ReplayReport &reference)
{
    ASSERT_EQ(parallel.outcomes.size(), reference.outcomes.size());
    EXPECT_EQ(parallel.executed, reference.executed);
    EXPECT_EQ(parallel.failed, 0u);
    EXPECT_EQ(parallel.dropped, 0u);
    for (std::size_t i = 0; i < parallel.outcomes.size(); ++i) {
        const CallOutcome &got = parallel.outcomes[i];
        const CallOutcome &want = reference.outcomes[i];
        ASSERT_TRUE(got.executed) << "call " << i;
        EXPECT_EQ(got.ok, want.ok) << "call " << i;
        EXPECT_EQ(got.outputBytes, want.outputBytes) << "call " << i;
        EXPECT_EQ(got.outputHash, want.outputHash) << "call " << i;
        EXPECT_EQ(got.output, want.output) << "call " << i;
    }
    EXPECT_EQ(parallel.work.counters, reference.work.counters);
    expectHistogramsEqual(parallel.work, reference.work);
}

TEST(ReplayEngineTest, SequentialReferenceIsDeterministic)
{
    auto stream = buildMixedStream(smallStreamConfig());
    ASSERT_TRUE(stream.ok());
    ReplayReport first = replaySequential(stream.value(), true);
    ReplayReport second = replaySequential(stream.value(), true);
    EXPECT_EQ(first.failed, 0u);
    expectReplayMatchesReference(second, first);
}

TEST(ReplayEngineTest, WorkerCountsAreByteIdenticalToSequential)
{
    auto stream = buildMixedStream(smallStreamConfig());
    ASSERT_TRUE(stream.ok());
    ReplayReport reference = replaySequential(stream.value(), true);
    ASSERT_EQ(reference.failed, 0u);
    ASSERT_EQ(reference.executed, stream.value().size());

    for (unsigned workers : {1u, 2u, 8u}) {
        EngineConfig config;
        config.workers = workers;
        config.recordOutputs = true;
        ReplayEngine engine(config);
        ReplayReport report = engine.run(stream.value());
        SCOPED_TRACE(testing::Message() << workers << " workers");
        expectReplayMatchesReference(report, reference);
    }
}

TEST(ReplayEngineTest, StreamingCallMixMatchesSequential)
{
    // Half the calls run through codec sessions in RNG-sized chunks;
    // the engine's parallel == sequential contract must hold over the
    // mixed execution paths exactly as over whole-buffer calls.
    StreamConfig config = smallStreamConfig();
    config.calls = 96;
    config.streamingFraction = 0.5;
    auto stream = buildMixedStream(config);
    ASSERT_TRUE(stream.ok());

    std::size_t streaming_calls = 0;
    for (const hcb::ReplayCall &call : stream.value().calls())
        streaming_calls += call.streaming ? 1 : 0;
    ASSERT_GT(streaming_calls, 16u) << "mix lost its streaming half";
    ASSERT_LT(streaming_calls, stream.value().size());

    ReplayReport reference = replaySequential(stream.value(), true);
    ASSERT_EQ(reference.failed, 0u);
    ASSERT_EQ(reference.executed, stream.value().size());
    for (unsigned workers : {2u, 8u}) {
        EngineConfig engine_config;
        engine_config.workers = workers;
        engine_config.recordOutputs = true;
        ReplayEngine engine(engine_config);
        SCOPED_TRACE(testing::Message() << workers << " workers");
        expectReplayMatchesReference(engine.run(stream.value()),
                                     reference);
    }
}

TEST(CodecContextTest, StreamingExecutionMatchesWholeBuffer)
{
    Rng rng(11);
    Bytes payload = corpus::generateMixed(40 * kKiB, rng, 4 * kKiB);
    CodecContext context;
    for (codec::CodecId id : codec::allCodecs()) {
        SCOPED_TRACE(codec::codecName(id));
        hcb::ReplayCall whole;
        whole.codec = id;
        whole.direction = codec::Direction::compress;
        whole.payload = ByteSpan(payload.data(), payload.size());
        ByteSpan out;
        ASSERT_TRUE(context.execute(whole, out).ok());
        Bytes whole_frame(out.begin(), out.end());

        hcb::ReplayCall streamed = whole;
        streamed.streaming = true;
        streamed.chunkBytes = 1024;
        ASSERT_TRUE(context.execute(streamed, out).ok());
        Bytes streamed_frame(out.begin(), out.end());

        // Chunk granularity must not show in the bytes.
        streamed.chunkBytes = 77;
        ASSERT_TRUE(context.execute(streamed, out).ok());
        EXPECT_EQ(Bytes(out.begin(), out.end()), streamed_frame);

        if (codec::registry(id).caps.streamingSharesBufferFormat) {
            EXPECT_EQ(streamed_frame, whole_frame);
        } else {
            // Different container (snappy framing): the streamed
            // frame must still decode back through a streaming call.
            hcb::ReplayCall decode;
            decode.codec = id;
            decode.direction = codec::Direction::decompress;
            decode.payload = ByteSpan(streamed_frame.data(),
                                      streamed_frame.size());
            decode.streaming = true;
            decode.chunkBytes = 512;
            ASSERT_TRUE(context.execute(decode, out).ok());
            EXPECT_EQ(Bytes(out.begin(), out.end()), payload);
        }
    }
}

TEST(ReplayEngineTest, EmptyStreamReportReadsZeroes)
{
    // A replay that executed nothing has untouched counters; every
    // report accessor must read 0/empty. Regression: the latency
    // accessor path used histograms.at(), which throws on a stream
    // that recorded no samples.
    hcb::CallStream empty;
    ReplayReport sequential = replaySequential(empty);
    EXPECT_EQ(sequential.bytesIn(), 0u);
    EXPECT_EQ(sequential.bytesOut(), 0u);
    EXPECT_EQ(sequential.latency().count, 0u);

    ReplayEngine engine(EngineConfig{});
    ReplayReport parallel = engine.run(empty);
    EXPECT_EQ(parallel.executed, 0u);
    EXPECT_EQ(parallel.bytesIn(), 0u);
    EXPECT_EQ(parallel.bytesOut(), 0u);
    EXPECT_EQ(parallel.latency().count, 0u);
}

TEST(CodecContextTest, FailedCallDoesNotPoisonReusedScratch)
{
    Rng rng(31);
    Bytes payload = corpus::generateMixed(16 * kKiB, rng, 4 * kKiB);
    hcb::ReplayCall compress;
    compress.codec = codec::CodecId::zstdlite;
    compress.direction = codec::Direction::compress;
    compress.payload = ByteSpan(payload.data(), payload.size());

    CodecContext fresh;
    ByteSpan out;
    ASSERT_TRUE(fresh.execute(compress, out).ok());
    Bytes expected(out.begin(), out.end());

    // Same call on a context that just failed a decode: the failure
    // must leave no partial output behind and the next call must be
    // byte-identical to a fresh context's.
    CodecContext reused;
    ASSERT_TRUE(reused.execute(compress, out).ok());
    Bytes junk = {0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa};
    hcb::ReplayCall bad;
    bad.codec = codec::CodecId::zstdlite;
    bad.direction = codec::Direction::decompress;
    bad.payload = ByteSpan(junk.data(), junk.size());
    ASSERT_FALSE(reused.execute(bad, out).ok());
    EXPECT_EQ(reused.lastOutputSize(), 0u);

    ASSERT_TRUE(reused.execute(compress, out).ok());
    EXPECT_EQ(Bytes(out.begin(), out.end()), expected);
}

/** @p call on a fresh context: its status and output. */
std::pair<Status, Bytes>
executeFresh(const hcb::ReplayCall &call)
{
    CodecContext fresh;
    ByteSpan out;
    Status status = fresh.execute(call, out);
    return {status, Bytes(out.begin(), out.end())};
}

TEST(CodecContextTest, WarmContextMatchesFreshContextsOnAMixedStream)
{
    // One context serves every registered codec, zstdlite levels whose
    // match table is past the retained size, and sizes from 0 B to
    // 1 MiB, in shuffled order, with a corrupt-frame decode after each
    // compress. Its scratch carries tables, bases and buffers from call
    // to call; no output may show it.
    struct Job
    {
        codec::CodecId id;
        int level;
        std::size_t bytes;
    };
    std::vector<Job> jobs;
    for (codec::CodecId id : codec::allCodecs()) {
        const int level = codec::registry(id).caps.defaultLevel;
        for (std::size_t bytes : {std::size_t{0}, std::size_t{1},
                                  std::size_t{333}, 4 * kKiB,
                                  std::size_t{70000}})
            jobs.push_back({id, level, bytes});
    }
    for (codec::CodecId id :
         {codec::CodecId::snappy, codec::CodecId::zstdlite,
          codec::CodecId::flatelite, codec::CodecId::gipfeli})
        jobs.push_back({id, codec::registry(id).caps.defaultLevel, kMiB});
    for (int level : {-5, 1, 6, 7, 12, 19}) {
        for (std::size_t bytes : {std::size_t{100}, 4 * kKiB})
            jobs.push_back({codec::CodecId::zstdlite, level, bytes});
    }
    jobs.push_back({codec::CodecId::zstdlite, 9, kMiB});
    jobs.push_back({codec::CodecId::flatelite, 9, 200 * kKiB});
    Rng rng(2028);
    for (std::size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[rng.below(i)]);

    const auto classes = corpus::allDataClasses();
    CodecContext warm;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const Job &job = jobs[j];
        SCOPED_TRACE(testing::Message()
                     << "call " << j << ": " << codec::codecName(job.id)
                     << " level " << job.level << ", " << job.bytes
                     << " B");
        const Bytes data =
            corpus::generate(classes[j % classes.size()], job.bytes, rng);
        hcb::ReplayCall call;
        call.codec = job.id;
        call.direction = codec::Direction::compress;
        call.payload = ByteSpan(data.data(), data.size());
        call.level = job.level;
        call.windowLog = codec::registry(job.id).caps.defaultWindowLog;

        ByteSpan out;
        ASSERT_TRUE(warm.execute(call, out).ok());
        const Bytes frame(out.begin(), out.end());
        const auto [fresh_status, fresh_frame] = executeFresh(call);
        ASSERT_TRUE(fresh_status.ok());
        ASSERT_TRUE(frame == fresh_frame);

        // A damaged copy of the frame: the warm context must reach the
        // fresh context's verdict and, if that is ok, its bytes.
        Bytes damaged = frame;
        if (!damaged.empty())
            damaged[rng.below(damaged.size())] ^=
                static_cast<u8>(1 + rng.below(255));
        if (damaged.size() > 1 && rng.chance(0.3))
            damaged.resize(rng.below(damaged.size()));
        hcb::ReplayCall decode = call;
        decode.direction = codec::Direction::decompress;
        decode.payload = ByteSpan(damaged.data(), damaged.size());
        const Status warm_damaged = warm.execute(decode, out);
        const auto [fresh_damaged, fresh_damaged_out] =
            executeFresh(decode);
        ASSERT_EQ(failureClass(warm_damaged), failureClass(fresh_damaged))
            << warm_damaged.toString() << " vs "
            << fresh_damaged.toString();
        if (warm_damaged.ok()) {
            EXPECT_TRUE(Bytes(out.begin(), out.end()) == fresh_damaged_out);
        }

        decode.payload = ByteSpan(frame.data(), frame.size());
        ASSERT_TRUE(warm.execute(decode, out).ok());
        EXPECT_TRUE(Bytes(out.begin(), out.end()) == data);
    }
}

TEST(ReplayEngineTest, TinyQueuesStillMatch)
{
    auto stream = buildMixedStream(smallStreamConfig());
    ASSERT_TRUE(stream.ok());
    ReplayReport reference = replaySequential(stream.value(), true);

    EngineConfig config;
    config.workers = 4;
    config.shardCapacity = 2; // producer feels backpressure
    config.recordOutputs = true;
    ReplayEngine engine(config);
    expectReplayMatchesReference(engine.run(stream.value()), reference);
}

TEST(ReplayEngineTest, ShutdownDrainExecutesEveryAcceptedCall)
{
    // Block policy + tiny queue: the producer stalls repeatedly and
    // close() arrives while workers still hold queued calls. Every
    // call must still execute exactly once.
    auto stream = buildMixedStream(smallStreamConfig());
    ASSERT_TRUE(stream.ok());
    EngineConfig config;
    config.workers = 2;
    config.shardCapacity = 1;
    ReplayEngine engine(config);
    ReplayReport report = engine.run(stream.value());
    EXPECT_EQ(report.executed, stream.value().size());
    EXPECT_EQ(report.dropped, 0u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.work.at("serve.calls"), stream.value().size());
}

TEST(ReplayEngineTest, DropPolicyAccountingIsConsistent)
{
    // Drops depend on scheduling, so assert the invariants rather than
    // a drop count: executed + dropped covers the stream, outcomes
    // agree with the counters, and nothing both dropped and executed.
    auto stream = buildMixedStream(smallStreamConfig());
    ASSERT_TRUE(stream.ok());
    EngineConfig config;
    config.workers = 2;
    config.policy = BackpressurePolicy::drop;
    config.shardCapacity = 1;
    ReplayEngine engine(config);
    ReplayReport report = engine.run(stream.value());

    EXPECT_EQ(report.executed + report.dropped, stream.value().size());
    EXPECT_EQ(report.work.at("serve.calls"), report.executed);
    EXPECT_EQ(report.runtime.at("serve.drops"), report.dropped);
    u64 executed_outcomes = 0;
    for (const CallOutcome &outcome : report.outcomes)
        executed_outcomes += outcome.executed ? 1 : 0;
    EXPECT_EQ(executed_outcomes, report.executed);
    EXPECT_EQ(report.failed, 0u);
}

TEST(ReplayEngineTest, WorkCountersCoverEveryCodecAndDirection)
{
    StreamConfig stream_config = smallStreamConfig();
    stream_config.calls = 64;
    auto stream = buildMixedStream(stream_config);
    ASSERT_TRUE(stream.ok());
    ReplayEngine engine(EngineConfig{});
    ReplayReport report = engine.run(stream.value());
    EXPECT_EQ(report.work.at("serve.calls"), 64u);
    for (codec::CodecId codec : codec::allCodecs()) {
        EXPECT_GT(
            report.work.at("serve.calls." + codec::codecName(codec)), 0u)
            << codec::codecName(codec);
    }
    EXPECT_GT(report.work.at("serve.calls.compress"), 0u);
    EXPECT_GT(report.work.at("serve.calls.decompress"), 0u);
    EXPECT_GT(report.work.at("serve.bytes.in"), 0u);
    EXPECT_GT(report.work.at("serve.bytes.out"), 0u);
    // Fast-path kernel totals must survive the per-thread merge.
    EXPECT_GT(report.work.at("kernel.mem.wild_copy_bytes"), 0u);
}

// --- Telemetry --------------------------------------------------------

std::set<u64>
sampledKeys(const obs::SpanRecorder &spans)
{
    std::set<u64> keys;
    for (const obs::SpanRecord &record : spans.records())
        keys.insert(record.key);
    return keys;
}

TEST(ReplayTelemetryTest, SpanSetIsDeterministicAcrossWorkerCounts)
{
    // Key-based sampling: the sampled set is a pure function of the
    // stream (call ids), so sequential and every worker count must
    // sample the exact same keys — not just the same count.
    StreamConfig stream_config = smallStreamConfig();
    stream_config.calls = 96;
    auto stream = buildMixedStream(stream_config);
    ASSERT_TRUE(stream.ok());

    obs::TelemetryConfig tc;
    tc.spanSamplePeriod = 8;
    obs::Telemetry reference_tele(tc, 1, codec::codecFlightNamer());
    ReplayReport reference =
        replaySequential(stream.value(), false, &reference_tele);
    EXPECT_EQ(reference.spansSampled, 96u / 8u);
    const std::set<u64> reference_keys =
        sampledKeys(reference_tele.spans());
    ASSERT_EQ(reference_keys.size(), 12u);
    for (u64 key : reference_keys)
        EXPECT_EQ(key % 8, 0u) << key;

    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE(testing::Message() << workers << " workers");
        obs::Telemetry tele(tc, workers, codec::codecFlightNamer());
        EngineConfig config;
        config.workers = workers;
        config.telemetry = &tele;
        ReplayEngine engine(config);
        ReplayReport report = engine.run(stream.value());
        EXPECT_EQ(report.spansSampled, reference.spansSampled);
        EXPECT_EQ(sampledKeys(tele.spans()), reference_keys);
    }
}

TEST(ReplayTelemetryTest, AttachedHubDoesNotPerturbWorkCounters)
{
    auto stream = buildMixedStream(smallStreamConfig());
    ASSERT_TRUE(stream.ok());
    ReplayReport reference = replaySequential(stream.value(), true);
    ASSERT_EQ(reference.failed, 0u);

    obs::TelemetryConfig tc;
    tc.spanSamplePeriod = 4;
    tc.metricsEveryCalls = 16;
    obs::Telemetry tele(tc, 4, codec::codecFlightNamer());
    EngineConfig config;
    config.workers = 4;
    config.recordOutputs = true;
    config.telemetry = &tele;
    ReplayEngine engine(config);
    ReplayReport report = engine.run(stream.value());
    // Telemetry observes the work; it must not change it.
    expectReplayMatchesReference(report, reference);
}

TEST(ReplayTelemetryTest, MetricsSampleCountIsDeterministic)
{
    StreamConfig stream_config = smallStreamConfig();
    stream_config.calls = 96;
    auto stream = buildMixedStream(stream_config);
    ASSERT_TRUE(stream.ok());

    obs::TelemetryConfig tc;
    tc.spanSamplePeriod = 0;
    tc.metricsEveryCalls = 10;
    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE(testing::Message() << workers << " workers");
        obs::Telemetry tele(tc, workers, codec::codecFlightNamer());
        EngineConfig config;
        config.workers = workers;
        config.telemetry = &tele;
        ReplayEngine engine(config);
        ReplayReport report = engine.run(stream.value());
        // floor(96 / 10): the trigger fires on every 10th completion
        // regardless of which worker crosses the threshold.
        EXPECT_EQ(report.metricsSamples, 9u);
        ASSERT_TRUE(report.metricsSeries.has("metrics_series"));
        EXPECT_EQ(report.metricsSeries.at("metrics_series")
                      .at("samples")
                      .asU64(),
                  9u);
    }
}

TEST(ReplayTelemetryTest, DimensionedCellsCoverEveryCall)
{
    StreamConfig stream_config = smallStreamConfig();
    stream_config.calls = 64;
    auto stream = buildMixedStream(stream_config);
    ASSERT_TRUE(stream.ok());

    obs::TelemetryConfig tc;
    tc.spanSamplePeriod = 0;
    obs::Telemetry tele(tc, 2, codec::codecFlightNamer());
    EngineConfig config;
    config.workers = 2;
    config.telemetry = &tele;
    ReplayEngine engine(config);
    ReplayReport report = engine.run(stream.value());
    ASSERT_EQ(report.executed, 64u);

    // Every executed call lands in exactly one
    // serve.latency_ns.by.<codec>.<direction>.sz<class> cell.
    u64 total = 0;
    for (const auto &[name, hist] : report.runtime.histograms) {
        if (name.rfind("serve.latency_ns.by.", 0) == 0)
            total += hist.count;
    }
    EXPECT_EQ(total, report.executed);
}

TEST(ReplayTelemetryTest, FailedCallFreezesFlightDump)
{
    StreamConfig stream_config = smallStreamConfig();
    stream_config.calls = 24;
    auto stream = buildMixedStream(stream_config);
    ASSERT_TRUE(stream.ok());
    // Append a decompress call whose payload is garbage: the codec
    // must classify it dataError, and the hub must freeze the flight
    // history around the failure.
    const u64 bad_id = stream.value().append(
        codec::CodecId::snappy, codec::Direction::decompress,
        Bytes{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff});

    obs::TelemetryConfig tc;
    tc.spanSamplePeriod = 0;
    obs::Telemetry tele(tc, 2, codec::codecFlightNamer());
    EngineConfig config;
    config.workers = 2;
    config.telemetry = &tele;
    ReplayEngine engine(config);
    ReplayReport report = engine.run(stream.value());
    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(tele.faultCount(), 1u);
    ASSERT_TRUE(tele.hasFaultDump());

    const obs::JsonValue dump = tele.faultDump();
    ASSERT_TRUE(dump.has("flight_events"));
    ASSERT_TRUE(dump.has("fault"));
    bool found = false;
    for (const obs::JsonValue &event :
         dump.at("flight_events").items()) {
        if (event.at("id").asU64() != bad_id)
            continue;
        found = true;
        EXPECT_EQ(event.at("kind").asString(), "snappy");
        EXPECT_EQ(event.at("direction").asString(), "decompress");
        EXPECT_EQ(event.at("outcome").asString(), "data_error");
    }
    EXPECT_TRUE(found)
        << "failing call missing from flight dump: "
        << dump.dump(0);
}

// --- CallStream / appendSuite ----------------------------------------

TEST(CallStreamTest, AppendSuitePreCompressesDecompressCalls)
{
    hcb::Suite suite;
    suite.codec = codec::CodecId::snappy;
    suite.direction = codec::Direction::decompress;
    hcb::BenchmarkFile file;
    file.data = Bytes(4096, u8{'a'});
    file.codec = codec::CodecId::snappy;
    file.direction = codec::Direction::decompress;
    suite.files.push_back(file);
    file.codec = codec::CodecId::zstdlite;
    file.level = 3;
    file.windowLog = 16;
    suite.files.push_back(file);

    hcb::CallStream stream;
    ASSERT_TRUE(hcb::appendSuite(stream, suite).ok());
    ASSERT_EQ(stream.size(), 2u);

    // Each payload must be a real frame its codec can decode back to
    // the original file body.
    auto snappy_out = snappy::decompress(stream.calls()[0].payload);
    ASSERT_TRUE(snappy_out.ok());
    EXPECT_EQ(snappy_out.value(), suite.files[0].data);
    auto zstd_out = zstdlite::decompress(stream.calls()[1].payload);
    ASSERT_TRUE(zstd_out.ok());
    EXPECT_EQ(zstd_out.value(), suite.files[1].data);
}

TEST(StreamBuilderTest, SameConfigSameStream)
{
    auto first = buildMixedStream(smallStreamConfig());
    auto second = buildMixedStream(smallStreamConfig());
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    ASSERT_EQ(first.value().size(), second.value().size());
    for (std::size_t i = 0; i < first.value().size(); ++i) {
        const hcb::ReplayCall &a = first.value().calls()[i];
        const hcb::ReplayCall &b = second.value().calls()[i];
        EXPECT_EQ(a.codec, b.codec);
        EXPECT_EQ(a.direction, b.direction);
        EXPECT_EQ(fnv1a(a.payload), fnv1a(b.payload)) << "call " << i;
    }
}

TEST(StreamBuilderTest, RejectsDegenerateConfigs)
{
    StreamConfig config;
    config.calls = 0;
    EXPECT_FALSE(buildMixedStream(config).ok());
    config = StreamConfig{};
    config.minCallBytes = 64;
    config.maxCallBytes = 32;
    EXPECT_FALSE(buildMixedStream(config).ok());
}

} // namespace
} // namespace cdpu::serve
