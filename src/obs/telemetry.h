/**
 * @file
 * Telemetry hub: one handle wiring spans, flight rings and metrics
 * into an instrumented layer.
 *
 * The serve engine, the harden fuzz driver, and the benches all take
 * an optional Telemetry*; a null pointer is the compiled-in-but-idle
 * configuration (zero per-call cost beyond what the layer already
 * paid). With a hub attached, each call costs: one sampling branch
 * (spans), a few relaxed stores (flight ring), and one atomic add
 * (metrics trigger) — the overhead contract DESIGN.md §12 pins and CI
 * guards at 5%.
 *
 * The hub also captures fault dumps: the first noteFault() freezes the
 * flight recorder's recent history into a JSON document so the moments
 * before the failure survive into reports even after the rings keep
 * rolling.
 */

#ifndef CDPU_OBS_TELEMETRY_H_
#define CDPU_OBS_TELEMETRY_H_

#include <mutex>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace cdpu::obs
{

struct TelemetryConfig
{
    /** Span sampling period: key % period == 0 is sampled; 0 disables
     *  span recording entirely. */
    u64 spanSamplePeriod = 64;
    /** Per-thread flight ring capacity; 0 disables the recorder. */
    std::size_t flightRingCapacity = 256;
    /** Events a fault dump keeps (merged across rings). */
    std::size_t flightDumpLastK = 32;
    /** Engine metrics trigger: sample the counter registry every N
     *  completed calls; 0 disables in-engine sampling. */
    u64 metricsEveryCalls = 0;
};

class Telemetry
{
  public:
    /** @p writers sizes the flight-ring bank (one ring per worker
     *  thread). @p namer renders flight dumps (serve/harden pass the
     *  codec namer from codec/obs_bridge.h). */
    explicit Telemetry(const TelemetryConfig &config,
                       unsigned writers = 1,
                       const FlightNamer &namer = {});

    const TelemetryConfig &config() const { return config_; }
    const FlightNamer &namer() const { return namer_; }

    SpanRecorder &spans() { return spans_; }
    const SpanRecorder &spans() const { return spans_; }

    bool flightEnabled() const { return config_.flightRingCapacity != 0; }
    FlightRecorder &flight() { return flight_; }
    const FlightRecorder &flight() const { return flight_; }

    /**
     * Captures the flight recorder's last-K history as the fault dump
     * (first caller wins — the earliest fault is the interesting one)
     * and counts the fault. Thread-safe.
     */
    void noteFault(const std::string &what, u64 stamp_ns);

    bool hasFaultDump() const;

    /** The captured dump ({"flight_events": ..., "fault": ...});
     *  JSON null when no fault has been noted. */
    JsonValue faultDump() const;

    u64 faultCount() const;

  private:
    TelemetryConfig config_;
    FlightNamer namer_;
    SpanRecorder spans_;
    FlightRecorder flight_;

    mutable std::mutex faultMutex_;
    u64 faults_ = 0;
    JsonValue faultDump_;
    bool hasFaultDump_ = false;
};

} // namespace cdpu::obs

#endif // CDPU_OBS_TELEMETRY_H_
