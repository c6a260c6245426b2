#include "drivers.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <thread>

#include "codec/registry.h"
#include "container/container.h"
#include "serve/client.h"
#include "serve/engine.h"

namespace perfbench
{

using namespace cdpu;

namespace
{

/** Measurement windows of the daemon phases. */
constexpr u64 kWindowNs = 250'000'000;

/** A response never arriving this long after the phase ends counts the
 *  call as failed rather than hanging the benchmark. */
constexpr u64 kDrainTimeoutNs = 10'000'000'000;

double
toUs(u64 ns)
{
    return static_cast<double>(ns) / 1e3;
}

/** Per-connection log of verified calls, binned into windows by the
 *  time each call was sent (closed loop) or due (open loop). */
struct Completions
{
    std::vector<u64> binNs;
    std::vector<u64> rawBytes;
    std::vector<double> latencyUs;
    std::vector<double> lagUs; ///< How late the call was sent (open loop).
};

/** Calls/s, MB/s, CPU ns/B and latency quantiles of every whole window
 *  in [start, end); @p cpu_at holds process CPU seconds at each window
 *  boundary. Only calls binned inside a window count as samples. */
void
binWindows(const std::vector<Completions> &logs, u64 start_ns, u64 end_ns,
           const std::vector<double> &cpu_at, PhaseResult &out)
{
    const u64 windows = (end_ns - start_ns) / kWindowNs;
    std::vector<u64> calls(windows), bytes(windows);
    std::vector<std::vector<double>> latency(windows), lag(windows);
    for (const Completions &log : logs)
        for (std::size_t i = 0; i < log.binNs.size(); ++i) {
            if (log.binNs[i] < start_ns)
                continue;
            const u64 w = (log.binNs[i] - start_ns) / kWindowNs;
            if (w < windows) {
                ++calls[w];
                bytes[w] += log.rawBytes[i];
                latency[w].push_back(log.latencyUs[i]);
                lag[w].push_back(log.lagUs[i]);
                out.latencyUs.push_back(log.latencyUs[i]);
            }
        }
    const double window_s = static_cast<double>(kWindowNs) / 1e9;
    for (u64 w = 0; w < windows; ++w) {
        out.callsPerS.push_back(static_cast<double>(calls[w]) / window_s);
        out.mbPerS.push_back(static_cast<double>(bytes[w]) / 1e6 / window_s);
        if (bytes[w] > 0 && w + 1 < cpu_at.size())
            out.cpuNsPerByte.push_back((cpu_at[w + 1] - cpu_at[w]) * 1e9 /
                                       static_cast<double>(bytes[w]));
        const Summary summary = summarize(std::move(latency[w]));
        if (summary.tailQ >= 0.99) {
            out.windowP50Us.push_back(summary.p50);
            out.windowP99Us.push_back(summary.p99);
            out.windowLagUs.push_back(summarize(std::move(lag[w])).p99);
        }
    }
}

bool
responseMatches(const Result<serve::WireResponse> &response,
                const Bytes &expected)
{
    return response.ok() && response.value().code == serve::WireCode::ok &&
           response.value().payload == expected;
}

/** Gives up on a blocked send or receive on @p fd after the drain
 *  timeout, so a daemon that stops answering fails the phase instead of
 *  hanging it. */
void
setDrainTimeouts(int fd)
{
    const timeval timeout{
        static_cast<time_t>(kDrainTimeoutNs / 1'000'000'000), 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
}

} // namespace

void
PhaseResult::merge(const PhaseResult &other)
{
    attempted += other.attempted;
    failed += other.failed;
    calls += other.calls;
    for (auto [to, from] :
         {std::pair{&callsPerS, &other.callsPerS}, {&mbPerS, &other.mbPerS},
          {&cpuNsPerByte, &other.cpuNsPerByte},
          {&latencyUs, &other.latencyUs}, {&windowP50Us, &other.windowP50Us},
          {&windowP99Us, &other.windowP99Us},
          {&windowLagUs, &other.windowLagUs}, {&lagUs, &other.lagUs}})
        to->insert(to->end(), from->begin(), from->end());
}

// --- Daemon ----------------------------------------------------------------

Status
DaemonDriver::start(const CallSet &calls, const std::string &socket_path)
{
    calls_ = &calls;
    path_ = socket_path;
    std::error_code ec;
    std::filesystem::remove(path_, ec);

    serve::DaemonConfig config;
    config.unixPath = path_;
    config.workers = kWorkers;
    config.admission = serve::AdmissionPolicy::block;
    daemon_ = std::make_unique<serve::Daemon>(config);
    CDPU_RETURN_IF_ERROR(daemon_->start());

    perConnection_.assign(kConnections, {});
    std::size_t eligible = 0;
    for (std::size_t i = 0; i < calls.size(); ++i) {
        const hcb::ReplayCall &call = calls.stream.calls()[i];
        if (call.streaming)
            continue; // session framing has no whole-buffer wire form
        Planned planned;
        planned.call = i;
        planned.request.codecSpec = codec::codecName(call.codec);
        planned.request.direction = call.direction;
        planned.request.level = call.level;
        planned.request.windowLog = call.windowLog;
        planned.request.payload.assign(call.payload.begin(),
                                       call.payload.end());
        perConnection_[eligible++ % kConnections].push_back(
            std::move(planned));
    }
    for (const auto &plan : perConnection_)
        if (plan.empty())
            return Status::invalid("too few calls for the daemon");
    return Status::okStatus();
}

DaemonDriver::~DaemonDriver()
{
    if (daemon_)
        daemon_->drain();
    std::error_code ec;
    if (!path_.empty())
        std::filesystem::remove(path_, ec);
}

u64
DaemonDriver::rejects() const
{
    const obs::CounterSnapshot counters = daemon_->counters();
    u64 total = 0;
    for (const char *name :
         {"serve.daemon.drops", "serve.daemon.quota_rejects",
          "serve.daemon.deadline_rejects", "serve.daemon.deadline_expired",
          "serve.daemon.shutdown_rejects", "serve.daemon.unknown_codec",
          "serve.daemon.malformed"})
        total += counters.at(name);
    return total;
}

std::vector<double>
DaemonDriver::sampleWindows(u64 start_ns, u64 end_ns, unsigned own_threads)
{
    std::vector<double> cpu_at;
    for (u64 at = start_ns; at <= end_ns; at += kWindowNs) {
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(at)));
        cpu_at.push_back(processCpuSeconds());
        const unsigned threads = processThreads();
        if (threads > own_threads)
            peakThreads_ = std::max(peakThreads_, threads - own_threads);
    }
    return cpu_at;
}

PhaseResult
DaemonDriver::closedLoop(double seconds, Tracer *tracer)
{
    PhaseResult result;
    std::vector<serve::DaemonClient> clients;
    for (unsigned c = 0; c < kConnections; ++c) {
        auto client = serve::DaemonClient::connectToUnix(path_);
        if (!client.ok()) {
            result.attempted = result.failed = 1;
            return result;
        }
        setDrainTimeouts(client.value().fd());
        clients.push_back(std::move(client.value()));
    }

    std::vector<Completions> logs(kConnections);
    std::vector<u64> attempted(kConnections), failed(kConnections);
    const u64 start_ns = nowNs();
    const u64 end_ns = start_ns + static_cast<u64>(seconds * 1e9);

    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            TraceLane *lane = tracer ? tracer->lane() : nullptr;
            serve::DaemonClient &client = clients[c];
            std::vector<Planned> &plan = perConnection_[c];
            std::vector<u64> sent_ns;
            u64 inflight = 0;
            auto send_next = [&] {
                const u64 k = sent_ns.size();
                Planned &next = plan[k % plan.size()];
                next.request.requestId = k * kConnections + c + 1;
                sent_ns.push_back(nowNs());
                ScopedSpan span(lane, "client.send", next.request.requestId,
                                next.request.payload.size());
                if (client.send(next.request).ok())
                    ++inflight;
                else
                    ++failed[c];
            };
            for (unsigned d = 0; d < kDepth; ++d)
                send_next();
            while (inflight > 0) {
                auto response = client.receive();
                const u64 now = nowNs();
                if (!response.ok()) {
                    failed[c] += inflight; // connection lost or timed out
                    break;
                }
                --inflight;
                const u64 k =
                    (response.value().requestId - 1 - c) / kConnections;
                if (k >= sent_ns.size()) {
                    ++failed[c];
                    continue;
                }
                const std::size_t call = plan[k % plan.size()].call;
                if (responseMatches(response, calls_->expected[call])) {
                    logs[c].binNs.push_back(sent_ns[k]);
                    logs[c].rawBytes.push_back(calls_->rawBytes(call));
                    logs[c].latencyUs.push_back(toUs(now - sent_ns[k]));
                    logs[c].lagUs.push_back(0.0);
                } else {
                    ++failed[c];
                }
                if (lane)
                    lane->spans.push_back({"daemon.call",
                                           response.value().requestId,
                                           sent_ns[k], now,
                                           response.value().serviceNs});
                if (now < end_ns)
                    send_next();
            }
            attempted[c] = sent_ns.size();
        });
    }
    const std::vector<double> cpu_at =
        sampleWindows(start_ns, end_ns, 1 + kConnections);
    for (auto &thread : threads)
        thread.join();
    for (unsigned c = 0; c < kConnections; ++c) {
        result.attempted += attempted[c];
        result.failed += failed[c];
        result.calls += logs[c].binNs.size();
    }
    binWindows(logs, start_ns, end_ns, cpu_at, result);
    return result;
}

PhaseResult
DaemonDriver::openLoop(double seconds, double rate, Tracer *tracer)
{
    PhaseResult result;
    std::vector<serve::DaemonClient> clients;
    for (unsigned c = 0; c < kConnections; ++c) {
        auto client = serve::DaemonClient::connectToUnix(path_);
        if (!client.ok()) {
            result.attempted = result.failed = 1;
            return result;
        }
        setDrainTimeouts(client.value().fd());
        clients.push_back(std::move(client.value()));
    }

    // Call n of the global sequence is due at start + n / rate and goes
    // out on connection n % C as that connection's call k = n / C.
    const u64 start_ns = nowNs() + 1'000'000;
    const u64 end_ns = start_ns + static_cast<u64>(seconds * 1e9);
    const double gap_ns = 1e9 / rate;
    auto due_ns = [&](u64 n) {
        return start_ns + static_cast<u64>(static_cast<double>(n) * gap_ns);
    };

    struct Lane
    {
        std::vector<u64> sentAt; ///< Indexed by the connection's k.
        u64 received = 0;
        bool lost = false; ///< A send or receive failed; no more traffic.
        Completions log;
    };
    std::vector<Lane> lanes(kConnections);
    u64 sent = 0, failed = 0;

    // One thread both sends on schedule and collects every connection's
    // responses, so the generator adds one runnable thread to the host,
    // not two per connection: with the daemon's readers and workers those
    // outnumbered the vCPUs, and the tail measured the scheduler.
    std::thread generator([&] {
        // Wake for a due call within a microsecond, not the default
        // 50 us timer slack, which is most of a call's gap at 12k/s.
        ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
        TraceLane *trace = tracer ? tracer->lane() : nullptr;
        std::vector<pollfd> fds(kConnections);
        u64 n = 0; // next call of the global sequence
        for (;;) {
            // A send must never block: meanwhile no response is read, and
            // a daemon stalled writing responses stops reading requests.
            // A call whose connection has no room waits, late, until the
            // daemon catches up.
            int stalled = -1;
            u64 now = nowNs();
            for (; due_ns(n) < end_ns && due_ns(n) <= now; ++n) {
                const unsigned c = static_cast<unsigned>(n % kConnections);
                Lane &lane = lanes[c];
                if (lane.lost)
                    continue;
                pollfd room{clients[c].fd(), POLLOUT, 0};
                if (::poll(&room, 1, 0) <= 0 || !(room.revents & POLLOUT)) {
                    stalled = static_cast<int>(c);
                    break;
                }
                std::vector<Planned> &plan = perConnection_[c];
                Planned &next = plan[(n / kConnections) % plan.size()];
                next.request.requestId = n + 1;
                now = nowNs();
                result.lagUs.push_back(toUs(now - due_ns(n)));
                lane.sentAt.push_back(now);
                ++sent;
                ScopedSpan span(trace, "client.send", next.request.requestId,
                                next.request.payload.size());
                if (!clients[c].send(next.request).ok()) {
                    lane.sentAt.pop_back();
                    failed += 1 + lane.sentAt.size() - lane.received;
                    lane.lost = true;
                }
            }
            u64 outstanding = 0;
            for (const Lane &lane : lanes)
                if (!lane.lost)
                    outstanding += lane.sentAt.size() - lane.received;
            const bool sending = due_ns(n) < end_ns;
            if (!sending && outstanding == 0)
                break;
            if (now > end_ns + kDrainTimeoutNs) {
                failed += outstanding;
                break;
            }
            const u64 wait_ns =
                sending && stalled < 0
                    ? (due_ns(n) > now ? due_ns(n) - now : 0)
                    : 10'000'000;
            for (unsigned c = 0; c < kConnections; ++c)
                fds[c] = {clients[c].fd(),
                          static_cast<short>(
                              POLLIN |
                              (static_cast<int>(c) == stalled ? POLLOUT : 0)),
                          0};
            const timespec timeout{
                static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
            if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0)
                continue;
            for (unsigned c = 0; c < kConnections; ++c) {
                Lane &lane = lanes[c];
                if (lane.lost || !(fds[c].revents & (POLLIN | POLLHUP)))
                    continue;
                auto response = clients[c].receive();
                const u64 at = nowNs();
                if (!response.ok()) {
                    failed += lane.sentAt.size() - lane.received;
                    lane.lost = true;
                    continue;
                }
                ++lane.received;
                const u64 id = response.value().requestId;
                const u64 k = (id - 1) / kConnections;
                if (id == 0 || (id - 1) % kConnections != c ||
                    k >= lane.sentAt.size()) {
                    ++failed;
                    continue;
                }
                const u64 due = due_ns(id - 1);
                const std::size_t call =
                    perConnection_[c][k % perConnection_[c].size()].call;
                if (responseMatches(response, calls_->expected[call])) {
                    lane.log.binNs.push_back(due);
                    lane.log.rawBytes.push_back(calls_->rawBytes(call));
                    lane.log.latencyUs.push_back(toUs(at - due));
                    lane.log.lagUs.push_back(toUs(lane.sentAt[k] - due));
                } else {
                    ++failed;
                }
                if (trace)
                    trace->spans.push_back({"daemon.call", id, lane.sentAt[k],
                                            at, response.value().serviceNs});
            }
        }
    });
    const std::vector<double> cpu_at = sampleWindows(start_ns, end_ns, 2);
    generator.join();
    std::vector<Completions> logs;
    for (Lane &lane : lanes) {
        result.calls += lane.log.binNs.size();
        logs.push_back(std::move(lane.log));
    }
    result.attempted = sent;
    result.failed = failed;
    binWindows(logs, start_ns, end_ns, cpu_at, result);
    return result;
}

// --- Replay engine ---------------------------------------------------------

PhaseResult
EngineDriver::run(double seconds, Tracer *tracer)
{
    PhaseResult result;
    TraceLane *lane = tracer ? tracer->lane() : nullptr;
    serve::EngineConfig config;
    config.workers = kWorkers;
    config.policy = serve::BackpressurePolicy::block;
    serve::ReplayEngine engine(config);
    const u64 raw = calls_->totalRawBytes();
    steals = batches = 0;
    replays = 0;

    const auto start = Clock::now();
    while (replays < 3 || secondsSince(start) < seconds) {
        const double cpu0 = processCpuSeconds();
        const u64 t0 = nowNs();
        serve::ReplayReport report;
        {
            ScopedSpan span(lane, "engine.run", replays, raw);
            report = engine.run(calls_->stream);
        }
        const double run_s = static_cast<double>(nowNs() - t0) / 1e9;
        result.cpuNsPerByte.push_back((processCpuSeconds() - cpu0) * 1e9 /
                                      static_cast<double>(raw));
        ++replays;
        u64 mismatched = 0;
        for (std::size_t i = 0; i < calls_->size(); ++i) {
            const serve::CallOutcome &outcome = report.outcomes[i];
            if (!outcome.executed || !outcome.ok ||
                outcome.outputHash != calls_->hashes[i] ||
                outcome.outputBytes != calls_->expected[i].size())
                ++mismatched;
        }
        result.attempted += calls_->size();
        result.failed += mismatched;
        result.calls += calls_->size() - mismatched;
        result.latencyUs.push_back(run_s * 1e6);
        result.callsPerS.push_back(static_cast<double>(calls_->size()) /
                                   run_s);
        result.mbPerS.push_back(static_cast<double>(raw) / 1e6 / run_s);
        steals += report.runtime.at("serve.steals");
        batches += report.runtime.at("serve.batches");
        if (replays == 1) {
            kernel = report.kernel;
            kernelRawBytes = raw;
        }
    }
    return result;
}

double
EngineDriver::sequentialSeconds()
{
    const auto start = Clock::now();
    (void)serve::replaySequential(calls_->stream);
    return secondsSince(start);
}

// --- Container -------------------------------------------------------------

namespace
{

const codec::CodecId kContainerCodecs[] = {
    codec::CodecId::snappy, codec::CodecId::zstdlite,
    codec::CodecId::flatelite, codec::CodecId::gipfeli};

/** Rebuilds the fast-path counters a decode exported as kernel.*. */
mem::KernelStats
kernelFromCounters(const obs::CounterSnapshot &work)
{
    mem::KernelStats stats;
    stats.wildCopyBytes = work.at("kernel.mem.wild_copy_bytes");
    stats.matchWordCompares = work.at("kernel.lz77.match_word_compares");
    for (kernels::Tier tier : kernels::availableTiers()) {
        const auto t = static_cast<unsigned>(tier);
        const std::string suffix = kernels::tierName(tier);
        stats.tierHashPositions[t] = work.at("kernel.lz77_hash." + suffix);
        stats.tierHuffSymbols[t] = work.at("kernel.huffman_decode." + suffix);
    }
    return stats;
}

} // namespace

Status
ContainerDriver::write(std::vector<Bytes> inputs, std::size_t block_bytes)
{
    inputs_ = std::move(inputs);
    codecs_.clear();
    frames_.assign(inputs_.size(), {});
    writeBytes = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        codecs_.push_back(kContainerCodecs[i % std::size(kContainerCodecs)]);
        container::WriteOptions options;
        options.blockBytes = block_bytes;
        CDPU_RETURN_IF_ERROR(container::write(
            codecs_[i], ByteSpan(inputs_[i].data(), inputs_[i].size()),
            options, frames_[i]));
        writeBytes += inputs_[i].size();
    }
    writeSeconds = secondsSince(start);
    return Status::okStatus();
}

double
ContainerDriver::compressionRatio() const
{
    u64 raw = 0, packed = 0;
    for (std::size_t i = 0; i < frames_.size(); ++i) {
        raw += inputs_[i].size();
        packed += frames_[i].size();
    }
    return packed ? static_cast<double>(raw) / static_cast<double>(packed)
                  : 1.0;
}

PhaseResult
ContainerDriver::decode(double seconds, Tracer *tracer)
{
    PhaseResult result;
    TraceLane *lane = tracer ? tracer->lane() : nullptr;
    Bytes out;
    steals = 0;
    kernel = {};
    kernelRawBytes = 0;
    u64 round_bytes = 0;
    for (const Bytes &input : inputs_)
        round_bytes += input.size();

    const auto start = Clock::now();
    for (u64 round = 0; round == 0 || secondsSince(start) < seconds;
         ++round) {
        const double cpu0 = processCpuSeconds();
        u64 round_ns = 0;
        for (std::size_t i = 0; i < frames_.size(); ++i) {
            container::DecodeReport report;
            const u64 t0 = nowNs();
            Status status;
            {
                ScopedSpan span(lane, "container.decode_par",
                                round * frames_.size() + i,
                                inputs_[i].size());
                status = container::decodeParallel(
                    ByteSpan(frames_[i].data(), frames_[i].size()), kWorkers,
                    out, {}, &report);
            }
            const u64 ns = nowNs() - t0;
            round_ns += ns;
            ++result.attempted;
            if (!status.ok() || out != inputs_[i]) {
                ++result.failed;
                continue;
            }
            ++result.calls;
            result.latencyUs.push_back(toUs(ns));
            steals += report.runtime.at("container.steals");
            if (round == 0) {
                const mem::KernelStats stats = kernelFromCounters(report.work);
                kernel.merge(stats);
                kernelRawBytes += inputs_[i].size();
            }
        }
        const double round_s = static_cast<double>(round_ns) / 1e9;
        result.callsPerS.push_back(static_cast<double>(frames_.size()) /
                                   round_s);
        result.mbPerS.push_back(static_cast<double>(round_bytes) / 1e6 /
                                round_s);
        result.cpuNsPerByte.push_back((processCpuSeconds() - cpu0) * 1e9 /
                                      static_cast<double>(round_bytes));
    }
    return result;
}

void
ContainerDriver::probeLayers(Tracer &tracer)
{
    TraceLane *lane = tracer.lane();
    Bytes out;
    double seq_s = 0, par_s = 0;
    for (std::size_t i = 0; i < frames_.size(); ++i) {
        const ByteSpan frame(frames_[i].data(), frames_[i].size());
        for (int rep = 0; rep < 5; ++rep) {
            ScopedSpan span(lane, "container.parse_index", i, 1);
            (void)container::parseIndex(frame);
        }
        u64 t0 = nowNs();
        {
            ScopedSpan span(lane, "container.decode_seq", i,
                            inputs_[i].size());
            (void)container::decodeSequential(frame, out);
        }
        seq_s += static_cast<double>(nowNs() - t0) / 1e9;
        t0 = nowNs();
        {
            ScopedSpan span(lane, "container.decode_par", i,
                            inputs_[i].size());
            (void)container::decodeParallel(frame, kWorkers, out);
        }
        par_s += static_cast<double>(nowNs() - t0) / 1e9;
    }
    parEfficiency = par_s > 0 ? seq_s / (par_s * kWorkers) : 0.0;

    // Fixed cost of the parallel path: one 4 KiB block, so the decode
    // itself is negligible next to the scheduler's thread start-up.
    const std::size_t one_block = std::min<std::size_t>(
        4 * kKiB, inputs_.empty() ? 0 : inputs_[0].size());
    Bytes frame;
    container::WriteOptions options;
    options.blockBytes = 0;
    if (one_block == 0 ||
        !container::write(codec::CodecId::snappy,
                          ByteSpan(inputs_[0].data(), one_block), options,
                          frame)
             .ok())
        return;
    std::vector<double> seq_us, par_us;
    for (int rep = 0; rep < 64; ++rep) {
        u64 t0 = nowNs();
        (void)container::decodeSequential(ByteSpan(frame.data(), frame.size()),
                                          out);
        seq_us.push_back(toUs(nowNs() - t0));
        t0 = nowNs();
        (void)container::decodeParallel(ByteSpan(frame.data(), frame.size()),
                                        kWorkers, out);
        par_us.push_back(toUs(nowNs() - t0));
    }
    spawnUs = median(par_us) - median(seq_us);
}

Result<CallSet>
ContainerDriver::blockCalls() const
{
    CallSet set;
    for (std::size_t i = 0; i < frames_.size(); ++i) {
        auto index =
            container::parseIndex(ByteSpan(frames_[i].data(), frames_[i].size()));
        if (!index.ok())
            return index.status();
        u64 regen = 0;
        for (const container::BlockEntry &block : index.value().blocks) {
            const u8 *at =
                frames_[i].data() + index.value().dataStart + block.offset;
            set.stream.append(codecs_[i], codec::Direction::decompress,
                              Bytes(at, at + block.compSize));
            set.expected.emplace_back(
                inputs_[i].begin() + static_cast<std::ptrdiff_t>(regen),
                inputs_[i].begin() +
                    static_cast<std::ptrdiff_t>(regen + block.regenSize));
            set.hashes.push_back(serve::fnv1a(ByteSpan(
                set.expected.back().data(), set.expected.back().size())));
            regen += block.regenSize;
        }
    }
    return set;
}

} // namespace perfbench
