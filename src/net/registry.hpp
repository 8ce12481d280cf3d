/**
 * @file
 * SensorRegistry: the fleet server's table of streamable sensors.
 *
 * The classic Ps3Server owns exactly one sensor and one broadcast
 * ring. A fleet daemon hosts N of them: each registry entry pairs a
 * sensor identity (id, name, configuration, sample rate) with its
 * own broadcast ring — living in an exportable shared-memory
 * segment, so entry 0 can still be handed to shm:// subscribers —
 * and an eventfd doorbell the event loop sleeps on.
 *
 * Publish path (one producer thread per entry — a live sensor's
 * sample listener, a SimulatedFleet tick, or a benchmark): encode
 * once into the ring slot, publish the prefix, ring the doorbell if
 * the loop armed it. The armed flag keeps the doorbell silent in
 * the two states that matter: while the loop is busy draining
 * (publishes land in the ring for the pass already running) and
 * while nobody subscribes to the sensor at all (the loop never arms
 * it) — so an unwatched 20 kHz sensor costs zero syscalls per
 * sample.
 *
 * Topology is fixed before serving: add every sensor, then hand the
 * registry to FleetServer. No locks on the publish or read path.
 */

#ifndef PS3_NET_REGISTRY_HPP
#define PS3_NET_REGISTRY_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "host/sensor.hpp"
#include "net/shm_stream.hpp"
#include "net/wire_v2.hpp"
#include "transport/broadcast_ring.hpp"
#include "transport/shm_segment.hpp"

namespace ps3::net {

/** The fleet daemon's sensor table. */
class SensorRegistry
{
  public:
    /** Registry-wide defaults. */
    struct Options
    {
        /**
         * Default broadcast-ring capacity per sensor, in records
         * (rounds up to a power of two). The v1 default (1 << 14,
         * ~0.8 s at 20 kHz) is right for a primary sensor; large
         * simulated fleets usually pass a smaller per-sensor
         * capacity to addSimulated.
         */
        std::size_t ringCapacity = 1u << 14;
    };

    /** One streamable sensor. */
    struct Entry
    {
        std::uint16_t id = 0;
        std::string name;
        firmware::DeviceConfig config{};
        std::string firmwareVersion;
        double sampleRateHz = 0.0;

        /** The ring, in its exportable segment. */
        transport::ShmSegment segment;
        StreamRing *ring = nullptr;

        /** Publish wakeup: eventfd + the armed handshake flag. */
        int doorbellFd = -1;
        std::atomic<bool> doorbellArmed{false};

        /** Live sensor behind the entry; null when publish-driven. */
        host::Sensor *sensor = nullptr;
        std::uint64_t listenerToken = 0;

        /** Written by the entry's producer only; read anywhere. */
        std::atomic<std::uint64_t> published{0};
        std::atomic<std::uint64_t> markerRequests{0};

        /**
         * Publish one record (single producer thread per entry):
         * encode once, write the ring, ring the doorbell when the
         * event loop armed it.
         */
        void publish(const host::DumpRecord &record);

        /**
         * Forward a marker request to the live sensor (counted
         * either way; publish-driven entries have nowhere to send
         * it). Serialised internally — markers arrive from the
         * event loop and, for entry 0, potentially other paths.
         */
        void mark(char marker);

        ~Entry();

      private:
        friend class SensorRegistry;
        std::mutex markMutex_;
    };

    explicit SensorRegistry(Options options);
    SensorRegistry();

    /** stopAll()s. */
    ~SensorRegistry();

    SensorRegistry(const SensorRegistry &) = delete;
    SensorRegistry &operator=(const SensorRegistry &) = delete;

    /**
     * Add a live sensor: registers a sample listener publishing
     * every processed sample into the entry's ring. Queries the
     * firmware version once (it pauses the stream briefly).
     * @return The new entry's id.
     */
    std::uint16_t addSensor(host::Sensor &sensor, std::string name);

    /**
     * Add a publish-driven sensor (simulated fleets, tests,
     * benchmarks); the caller feeds records through publish().
     * @param ring_capacity Per-sensor ring slots; 0 uses the
     *        registry default.
     * @return The new entry's id.
     */
    std::uint16_t addSimulated(std::string name,
                               const firmware::DeviceConfig &config,
                               std::string firmware_version,
                               double sample_rate_hz,
                               std::size_t ring_capacity = 0);

    /** Sensors registered. */
    std::size_t size() const { return entries_.size(); }

    /** Entry by id (ids are dense: 0 .. size()-1). */
    Entry &entry(std::uint16_t id) { return *entries_.at(id); }
    const Entry &
    entry(std::uint16_t id) const
    {
        return *entries_.at(id);
    }

    /** The v2 SensorList table. */
    std::vector<SensorDescriptor> describe() const;

    /** Publish into entry `id` (single producer per entry). */
    void publish(std::uint16_t id, const host::DumpRecord &record);

    /** Records published across all entries. */
    std::uint64_t publishedTotal() const;

    /**
     * End every stream: detach live-sensor listeners (no new
     * records) and mark every ring's producer gone, so socket
     * subscribers drain to a stable tail and shm subscribers see
     * the orderly end-of-stream flag. Call before
     * FleetServer::stop(). Idempotent.
     */
    void stopAll();

  private:
    Entry &addEntry(std::string name,
                    const firmware::DeviceConfig &config,
                    std::string firmware_version,
                    double sample_rate_hz,
                    std::size_t ring_capacity);

    const Options options_;
    std::vector<std::unique_ptr<Entry>> entries_;
    std::atomic<bool> stopped_{false};
};

/**
 * A deterministic synthetic fleet: one thread publishes a
 * phase-shifted sinusoidal power trace into each given registry
 * entry at the entry's sample rate (ps3d --sensors N, tests). The
 * pacing thread sleeps in batches, so a large fleet at a modest
 * rate is one wakeup per tick, not one per sensor.
 */
class SimulatedFleet
{
  public:
    /**
     * Drive the given entries (all must be publish-driven). Starts
     * immediately; stop() or destruction joins the thread.
     */
    SimulatedFleet(SensorRegistry &registry,
                   std::vector<std::uint16_t> sensor_ids);

    ~SimulatedFleet();

    SimulatedFleet(const SimulatedFleet &) = delete;
    SimulatedFleet &operator=(const SimulatedFleet &) = delete;

    /** Stop publishing and join the driver thread. Idempotent. */
    void stop();

    /** Records published by this driver so far. */
    std::uint64_t
    published() const
    {
        return published_.load(std::memory_order_relaxed);
    }

  private:
    void run();

    SensorRegistry &registry_;
    const std::vector<std::uint16_t> sensorIds_;
    std::atomic<bool> stopRequested_{false};
    std::atomic<std::uint64_t> published_{0};
    std::thread thread_;
};

} // namespace ps3::net

#endif // PS3_NET_REGISTRY_HPP
