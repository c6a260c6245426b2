#include "serve/daemon.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "codec/registry.h"

namespace cdpu::serve
{

namespace
{

using Clock = WaitClock;

/** Runtime events the daemon counts through its recorder, by index. */
enum DaemonEvent : unsigned
{
    kConnections,
    kRequests,
    kMalformed,
    kShutdownRejects,
    kUnknownCodec,
    kQuotaRejects,
    kDrops,
    kDeadlineRejects,
    kDeadlineExpired,
};
const std::vector<const char *> kDaemonEvents = {
    "serve.daemon.connections",      "serve.daemon.requests",
    "serve.daemon.malformed",        "serve.daemon.shutdown_rejects",
    "serve.daemon.unknown_codec",    "serve.daemon.quota_rejects",
    "serve.daemon.drops",            "serve.daemon.deadline_rejects",
    "serve.daemon.deadline_expired"};

/**
 * Nudges the accept loop's poll via the self-pipe. Plain write(), not
 * writeFull(): the self-pipe is a pipe, and send() on a non-socket
 * fails with ENOTSOCK. The pipe is nonblocking; a full pipe (EAGAIN)
 * means a wake is already pending, which is all a nudge needs.
 */
void
wakeAcceptLoop(int wake_fd)
{
    if (wake_fd < 0)
        return;
    const u8 byte = 1;
    ssize_t wrote;
    do {
        wrote = ::write(wake_fd, &byte, 1);
    } while (wrote < 0 && errno == EINTR);
}

} // namespace

const char *
admissionPolicyName(AdmissionPolicy policy)
{
    switch (policy) {
      case AdmissionPolicy::block: return "block";
      case AdmissionPolicy::drop: return "drop";
      case AdmissionPolicy::deadline: return "deadline";
    }
    return "unknown";
}

Result<AdmissionPolicy>
admissionPolicyFromName(const std::string &name)
{
    if (name == "block")
        return AdmissionPolicy::block;
    if (name == "drop")
        return AdmissionPolicy::drop;
    if (name == "deadline")
        return AdmissionPolicy::deadline;
    return Status::invalid("unknown admission policy \"" + name +
                           "\" (block, drop, deadline)");
}

/** One live client connection. Shared by the reader thread and any
 *  worker holding a job from it; the write mutex serializes response
 *  frames from concurrent workers. */
struct Daemon::Connection
{
    u64 id = 0;
    Fd fd;
    std::mutex writeMutex;
    std::atomic<bool> dead{false};
    std::atomic<bool> readerDone{false};
    std::thread reader;

    /** Writes one frame; after the first failure the connection is
     *  dead and further responses are dropped silently (the peer is
     *  gone — there is nobody to tell). */
    void
    send(const WireResponse &response)
    {
        if (dead.load(std::memory_order_relaxed))
            return;
        std::lock_guard<std::mutex> lock(writeMutex);
        if (dead.load(std::memory_order_relaxed))
            return;
        if (!writeResponseFrame(fd.get(), response).ok())
            dead.store(true, std::memory_order_relaxed);
    }
};

/** One admitted request travelling reader -> pool -> worker. Owns its
 *  payload; dropping the job (refused submit, daemon teardown) frees
 *  the buffer with it — rejected calls must not leak. */
struct Daemon::Job
{
    std::shared_ptr<Connection> conn;
    WireRequest request;
    codec::CodecId codec = codec::CodecId::snappy;
    Clock::time_point admitted{};
    /** Past this the call is not worth executing; max() = never. */
    Clock::time_point deadline = Clock::time_point::max();
};

Daemon::Daemon(const DaemonConfig &config) : config_(config)
{
    // The pool clamps its own sizes; the admission shard's index
    // (workers) needs the clamped count here too.
    config_.workers = std::max(config_.workers, 1u);
}

Daemon::~Daemon()
{
    if (started_.load())
        drain();
}

Status
Daemon::start()
{
    if (started_.load())
        return Status::invalid("daemon already started");
    if (config_.unixPath.empty() && !config_.tcpEnabled)
        return Status::invalid("daemon needs a unix path or TCP");

    // One extra shard: index `workers` belongs to the reader/admission
    // threads (the shard lock serializes them on it).
    recorder_ = std::make_unique<CallRecorder>(
        kServeCallNames, config_.workers + 1, config_.telemetry,
        kDaemonEvents);

    if (!config_.unixPath.empty()) {
        auto fd = listenUnix(config_.unixPath);
        CDPU_RETURN_IF_ERROR(fd.status());
        unixListener_ = std::move(fd.value());
    }
    if (config_.tcpEnabled) {
        auto fd = listenTcp(config_.tcpPort, boundTcpPort_);
        CDPU_RETURN_IF_ERROR(fd.status());
        tcpListener_ = std::move(fd.value());
    }

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0)
        return Status::io("self-pipe creation failed");
    wakeRead_ = Fd(pipe_fds[0]);
    wakeWrite_ = Fd(pipe_fds[1]);
    // Nonblocking on both ends: wakes are nudges, not data. A full
    // pipe must never block an exiting reader, and the accept loop
    // drains whatever accumulated without risking a blocking read.
    for (int fd : pipe_fds) {
        const int flags = ::fcntl(fd, F_GETFL, 0);
        if (flags < 0 ||
            ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
            return Status::io("self-pipe O_NONBLOCK failed");
    }

    // Only drop admission sheds at once; block and deadline wait for
    // room, bounded by admit()'s wait bound.
    executor_ = std::make_unique<Executor>(ExecutorConfig{
        .workers = config_.workers,
        .shardCapacity = config_.shardCapacity,
        .policy = config_.admission == AdmissionPolicy::drop
                      ? BackpressurePolicy::drop
                      : BackpressurePolicy::block});
    acceptThread_ = std::thread([this] { acceptLoop(); });

    started_.store(true);
    return Status::okStatus();
}

void
Daemon::acceptLoop()
{
    const unsigned admission_shard = config_.workers;
    for (;;) {
        // Reap readers that finished organically (client went away) so
        // a long-lived daemon does not accumulate joinable threads.
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            for (auto it = connections_.begin();
                 it != connections_.end();) {
                if ((*it)->readerDone.load() &&
                    (*it)->reader.joinable()) {
                    (*it)->reader.join();
                    it = connections_.erase(it);
                } else {
                    ++it;
                }
            }
        }

        pollfd fds[3];
        nfds_t count = 0;
        fds[count++] = {wakeRead_.get(), POLLIN, 0};
        int unix_index = -1, tcp_index = -1;
        if (unixListener_.valid()) {
            unix_index = static_cast<int>(count);
            fds[count++] = {unixListener_.get(), POLLIN, 0};
        }
        if (tcpListener_.valid()) {
            tcp_index = static_cast<int>(count);
            fds[count++] = {tcpListener_.get(), POLLIN, 0};
        }
        int ready = ::poll(fds, count, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if ((fds[0].revents & (POLLIN | POLLHUP)) != 0) {
            // A self-pipe nudge: drain() shutting us down, or a reader
            // that exited and wants its connection reaped (closing the
            // fd the peer is still watching). Consume the pending
            // nudges, then let the loop's reap pass run.
            u8 drained_bytes[64];
            while (::read(fds[0].fd, drained_bytes,
                          sizeof drained_bytes) > 0) {
            }
            if (draining_.load())
                break;
            continue;
        }

        for (int index : {unix_index, tcp_index}) {
            if (index < 0 ||
                (fds[index].revents & POLLIN) == 0)
                continue;
            auto accepted = acceptConnection(fds[index].fd);
            if (!accepted.ok())
                continue;
            auto conn = std::make_shared<Connection>();
            conn->fd = std::move(accepted.value());
            recorder_->countEvent(admission_shard, kConnections);
            std::lock_guard<std::mutex> lock(connMutex_);
            conn->id = nextConnId_++;
            connections_.push_back(conn);
            conn->reader = std::thread(
                [this, conn] { connectionLoop(conn); });
        }
    }
}

void
Daemon::sendError(const std::shared_ptr<Connection> &conn,
                  u64 request_id, WireCode code, std::string message)
{
    WireResponse response;
    response.requestId = request_id;
    response.code = code;
    if (message.size() > config_.limits.maxMessageBytes)
        message.resize(config_.limits.maxMessageBytes);
    response.message = std::move(message);
    conn->send(response);
}

void
Daemon::connectionLoop(std::shared_ptr<Connection> conn)
{
    const unsigned admission_shard = config_.workers;
    for (;;) {
        WireRequest request;
        FrameReadOutcome outcome;
        Status status = readRequestFrame(conn->fd.get(),
                                         config_.limits, request,
                                         outcome);
        if (!status.ok()) {
            // Grammar violation or mid-frame truncation: the byte
            // stream cannot be resynchronized, so answer (best
            // effort — the request id may not have survived parsing)
            // and hang up.
            recorder_->countEvent(admission_shard, kMalformed);
            sendError(conn, 0, WireCode::malformedRequest,
                      status.message());
            break;
        }
        if (outcome.wasEof)
            break; // Clean close between frames.
        recorder_->countEvent(admission_shard, kRequests);
        admit(conn, std::move(request));
    }
    conn->readerDone.store(true);
    // Wake the accept loop so the dead connection is reaped promptly:
    // without the nudge a poll with no listener traffic would hold the
    // fd open indefinitely and the peer would never see the hang-up.
    wakeAcceptLoop(wakeWrite_.get());
}

void
Daemon::admit(const std::shared_ptr<Connection> &conn,
              WireRequest &&request)
{
    const unsigned admission_shard = config_.workers;
    const u64 request_id = request.requestId;
    const u64 tenant = request.tenantId;
    auto countAdmission = [&](DaemonEvent event, bool per_tenant) {
        recorder_->countEvent(admission_shard, event, 1,
                              per_tenant ? std::optional<u64>(tenant)
                                         : std::nullopt);
    };

    if (draining_.load()) {
        countAdmission(kShutdownRejects, false);
        sendError(conn, request_id, WireCode::shuttingDown,
                  "daemon is draining");
        return;
    }

    // Resolve the codec spec through the registry. codecFromName
    // returns its errors as Status, but a hostile spec reaching a
    // deeper layer must still not unwind this thread — a serving
    // daemon converts *every* failure into a wire response.
    Result<codec::CodecId> codec_id =
        Status::internal("codec resolution did not run");
    try {
        codec_id = codec::codecFromName(request.codecSpec);
    } catch (const std::exception &e) {
        codec_id = Status::internal(std::string("codecFromName threw: ") +
                                    e.what());
    } catch (...) {
        codec_id = Status::internal("codecFromName threw");
    }
    if (!codec_id.ok()) {
        countAdmission(kUnknownCodec, false);
        sendError(conn, request_id, WireCode::unknownCodec,
                  codec_id.status().message());
        return;
    }

    // Tenant quota check-and-bill under one lock so concurrent
    // connections of one tenant cannot double-spend the budget.
    const char *quota_reject = nullptr;
    {
        std::lock_guard<std::mutex> lock(quotaMutex_);
        auto quota = config_.quotas.find(tenant);
        if (quota != config_.quotas.end()) {
            TenantUsage &used = usage_[tenant];
            if (quota->second.maxCalls != 0 &&
                used.calls + 1 > quota->second.maxCalls) {
                quota_reject = "tenant call quota exhausted";
            } else if (quota->second.maxBytes != 0 &&
                       used.bytes + request.payload.size() >
                           quota->second.maxBytes) {
                quota_reject = "tenant byte quota exhausted";
            } else {
                used.calls += 1;
                used.bytes += request.payload.size();
            }
        }
    }
    if (quota_reject) {
        countAdmission(kQuotaRejects, true);
        sendError(conn, request_id, WireCode::quotaExceeded,
                  quota_reject);
        return;
    }

    Job job;
    job.conn = conn;
    job.codec = codec_id.value();
    job.admitted = Clock::now();
    if (request.deadlineNs != 0)
        job.deadline = job.admitted +
                       std::chrono::nanoseconds(request.deadlineNs);
    job.request = std::move(request);

    // The one admission call: block waits for room forever, drop never
    // waits, deadline waits until the request's own deadline.
    const unsigned home = static_cast<unsigned>(conn->id);
    const Clock::time_point until =
        config_.admission == AdmissionPolicy::deadline ? job.deadline
                                                       : kWaitForever;
    Executor::Task task = [this, job = std::move(job)](
                              Worker &worker) mutable {
        serve(worker, job);
    };
    if (executor_->submit(home, std::move(task), until))
        return;

    // The job, and its payload buffer, died with the refused submit;
    // what remains is to answer and to attribute the reject.
    if (config_.admission == AdmissionPolicy::drop) {
        countAdmission(kDrops, true);
        sendError(conn, request_id, WireCode::overloaded,
                  "queue full (drop policy)");
    } else if (config_.admission == AdmissionPolicy::deadline &&
               !draining_.load()) {
        countAdmission(kDeadlineRejects, true);
        sendError(conn, request_id, WireCode::deadlineExceeded,
                  "deadline expired before admission");
    } else {
        // Block admission is refused only by a pool closed mid-drain.
        countAdmission(kShutdownRejects, false);
        sendError(conn, request_id, WireCode::shuttingDown,
                  "daemon is draining");
    }
}

void
Daemon::serve(Worker &worker, Job &job)
{
    const WireRequest &request = job.request;
    if (Clock::now() >= job.deadline) {
        recorder_->countEvent(worker.index, kDeadlineExpired, 1,
                              request.tenantId);
        sendError(job.conn, request.requestId, WireCode::deadlineExceeded,
                  "deadline expired in queue");
        return;
    }

    if (config_.workerDelayNs != 0)
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(config_.workerDelayNs));

    hcb::ReplayCall call;
    call.id = request.requestId;
    call.codec = job.codec;
    call.direction = request.direction;
    call.payload = ByteSpan(request.payload.data(), request.payload.size());
    call.level = request.level;
    call.windowLog = request.windowLog;
    const CallResult result = recorder_->run(worker, call);

    WireResponse response;
    response.requestId = request.requestId;
    response.code = wireCodeFor(result.status);
    response.serviceNs = result.serviceNs;
    if (result.status.ok()) {
        response.payload.assign(result.output.begin(),
                                result.output.end());
    } else {
        response.message = result.status.message();
        if (response.message.size() > config_.limits.maxMessageBytes)
            response.message.resize(config_.limits.maxMessageBytes);
    }
    // Accounted before the write, so a client holding its response
    // finds the call already counted: latency runs from admission to
    // the response ready to write.
    const u64 latency_ns = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - job.admitted)
            .count());
    recorder_->record(worker.index, call, result, latency_ns,
                      request.tenantId);
    job.conn->send(response);
}

obs::CounterSnapshot
Daemon::counters() const
{
    if (!recorder_)
        return {};
    obs::CounterSnapshot merged = recorder_->work();
    merged.merge(recorder_->runtime());
    return merged;
}

DaemonReport
Daemon::drain()
{
    std::lock_guard<std::mutex> drain_lock(drainMutex_);
    if (drained_)
        return finalReport_;
    drained_ = true;
    if (!started_.load())
        return finalReport_;

    draining_.store(true);

    // Wake and retire the accept loop; no new connections after this.
    wakeAcceptLoop(wakeWrite_.get());
    if (acceptThread_.joinable())
        acceptThread_.join();
    unixListener_.reset();
    tcpListener_.reset();
    if (!config_.unixPath.empty())
        ::unlink(config_.unixPath.c_str());

    // Shut the read side of every live connection: readers finish the
    // frame-admission they are in, then see EOF and exit. In-flight
    // (admitted) requests stay queued and will be answered.
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        conns = connections_;
    }
    for (auto &conn : conns)
        ::shutdown(conn->fd.get(), SHUT_RD);
    for (auto &conn : conns)
        if (conn->reader.joinable())
            conn->reader.join();
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        connections_.clear();
    }

    // Close the pool only after every producer (reader) is gone: its
    // workers run every admitted job before they exit.
    executor_->close();

    finalReport_.work = recorder_->work();
    finalReport_.runtime = recorder_->runtime();
    const obs::CounterSnapshot &run = finalReport_.runtime;
    const obs::CounterSnapshot &work = finalReport_.work;
    finalReport_.connections = run.at("serve.daemon.connections");
    finalReport_.requests = run.at("serve.daemon.requests");
    finalReport_.executed = work.at("serve.calls");
    finalReport_.failed = work.at("serve.failures");
    finalReport_.dropped = run.at("serve.daemon.drops");
    finalReport_.quotaRejected = run.at("serve.daemon.quota_rejects");
    finalReport_.deadlineRejected =
        run.at("serve.daemon.deadline_rejects") +
        run.at("serve.daemon.deadline_expired");
    finalReport_.malformed = run.at("serve.daemon.malformed");
    return finalReport_;
}

} // namespace cdpu::serve
