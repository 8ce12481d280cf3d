#include "registry.hpp"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include <sys/eventfd.h>
#include <unistd.h>

#include "common/errors.hpp"
#include "obs/registry.hpp"

namespace ps3::net {

namespace {

host::DumpRecord
recordFromSample(const host::Sample &sample)
{
    host::DumpRecord record;
    record.time = sample.time;
    record.voltage = sample.voltage;
    record.current = sample.current;
    for (unsigned pair = 0; pair < host::kMaxPairs; ++pair) {
        if (sample.present[pair])
            record.presentMask |=
                static_cast<std::uint8_t>(1u << pair);
    }
    record.marker = sample.marker;
    record.markerChar = sample.markerChar;
    return record;
}

obs::Gauge &
fleetSensorsGauge()
{
    static obs::Gauge &gauge = obs::Registry::global().gauge(
        "ps3_net_fleet_sensors",
        "Sensors registered in the fleet registry");
    return gauge;
}

} // namespace

// ----- SensorRegistry::Entry ---------------------------------------------

void
SensorRegistry::Entry::publish(const host::DumpRecord &record)
{
    StreamSlot slot;
    slot.encodedLen = encodeRecordTo(slot.encoded, record);
    ring->publishPrefix(slot, kSlotEncodedOffset + slot.encodedLen);
    // Single producer: a plain store, no atomic RMW on the hot path.
    published.store(published.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    // Doorbell handshake (Dekker-style, hence seq_cst on both
    // sides): the loop arms the flag only after draining the ring,
    // then re-checks the tail; we ring only when armed. Either the
    // loop sees our publish in its re-check, or we see its arm here
    // — a publish is never silently missed, and a busy (or
    // unwatched) stream never pays the eventfd syscall.
    if (doorbellArmed.exchange(false, std::memory_order_seq_cst)) {
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n =
            ::write(doorbellFd, &one, sizeof(one));
    }
}

void
SensorRegistry::Entry::mark(char marker)
{
    markerRequests.fetch_add(1, std::memory_order_relaxed);
    if (sensor == nullptr)
        return;
    std::lock_guard<std::mutex> lock(markMutex_);
    sensor->mark(marker);
}

SensorRegistry::Entry::~Entry()
{
    if (doorbellFd >= 0)
        ::close(doorbellFd);
}

// ----- SensorRegistry ----------------------------------------------------

SensorRegistry::SensorRegistry(Options options) : options_(options)
{
}

SensorRegistry::SensorRegistry() : SensorRegistry(Options{})
{
}

SensorRegistry::~SensorRegistry()
{
    stopAll();
}

SensorRegistry::Entry &
SensorRegistry::addEntry(std::string name,
                         const firmware::DeviceConfig &config,
                         std::string firmware_version,
                         double sample_rate_hz,
                         std::size_t ring_capacity)
{
    if (entries_.size() >= kMaxSensors)
        throw UsageError("SensorRegistry: sensor limit reached");
    auto entry = std::make_unique<Entry>();
    entry->id = static_cast<std::uint16_t>(entries_.size());
    entry->name = std::move(name);
    entry->config = config;
    entry->firmwareVersion = std::move(firmware_version);
    entry->sampleRateHz = sample_rate_hz;
    const std::size_t capacity =
        ring_capacity > 0 ? ring_capacity : options_.ringCapacity;
    entry->segment = transport::ShmSegment::create(
        StreamRing::bytesRequired(capacity),
        "ps3d-" + entry->name);
    entry->ring = StreamRing::create(entry->segment.data(),
                                     entry->segment.size(),
                                     capacity);
    entry->doorbellFd =
        ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (entry->doorbellFd < 0)
        throw DeviceError(std::string("eventfd: ")
                          + std::strerror(errno));
    entries_.push_back(std::move(entry));
    fleetSensorsGauge().set(
        static_cast<std::int64_t>(entries_.size()));
    return *entries_.back();
}

std::uint16_t
SensorRegistry::addSensor(host::Sensor &sensor, std::string name)
{
    Entry &entry =
        addEntry(std::move(name), sensor.config(),
                 sensor.firmwareVersion(), firmware::kSampleRateHz,
                 0);
    entry.sensor = &sensor;
    Entry *raw = &entry;
    entry.listenerToken = sensor.addSampleListener(
        [raw](const host::Sample &sample) {
            raw->publish(recordFromSample(sample));
        });
    return entry.id;
}

std::uint16_t
SensorRegistry::addSimulated(std::string name,
                             const firmware::DeviceConfig &config,
                             std::string firmware_version,
                             double sample_rate_hz,
                             std::size_t ring_capacity)
{
    return addEntry(std::move(name), config,
                    std::move(firmware_version), sample_rate_hz,
                    ring_capacity)
        .id;
}

std::vector<SensorDescriptor>
SensorRegistry::describe() const
{
    std::vector<SensorDescriptor> sensors;
    sensors.reserve(entries_.size());
    for (const auto &entry : entries_) {
        SensorDescriptor sensor;
        sensor.id = entry->id;
        sensor.sampleRateHz = entry->sampleRateHz;
        sensor.name = entry->name;
        sensors.push_back(std::move(sensor));
    }
    return sensors;
}

void
SensorRegistry::publish(std::uint16_t id,
                        const host::DumpRecord &record)
{
    entry(id).publish(record);
}

std::uint64_t
SensorRegistry::publishedTotal() const
{
    std::uint64_t total = 0;
    for (const auto &entry : entries_)
        total += entry->published.load(std::memory_order_relaxed);
    return total;
}

void
SensorRegistry::stopAll()
{
    if (stopped_.exchange(true, std::memory_order_acq_rel))
        return;
    for (auto &entry : entries_) {
        if (entry->sensor != nullptr && entry->listenerToken != 0) {
            entry->sensor->removeSampleListener(
                entry->listenerToken);
            entry->listenerToken = 0;
        }
        if (entry->ring != nullptr)
            entry->ring->markProducerGone();
    }
}

// ----- SimulatedFleet ----------------------------------------------------

SimulatedFleet::SimulatedFleet(SensorRegistry &registry,
                               std::vector<std::uint16_t> sensor_ids)
    : registry_(registry), sensorIds_(std::move(sensor_ids))
{
    thread_ = std::thread([this] { run(); });
}

SimulatedFleet::~SimulatedFleet()
{
    stop();
}

void
SimulatedFleet::stop()
{
    stopRequested_.store(true, std::memory_order_release);
    if (thread_.joinable())
        thread_.join();
}

void
SimulatedFleet::run()
{
    if (sensorIds_.empty())
        return;
    // All driven entries tick at the first one's rate (ps3d creates
    // them identically); one absolute-deadline pacer covers the
    // whole fleet, catching up in batches after oversleep instead
    // of drifting.
    const double rate =
        std::max(registry_.entry(sensorIds_.front()).sampleRateHz,
                 1.0);
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t tick = 0;
    while (!stopRequested_.load(std::memory_order_acquire)) {
        const auto due =
            start
            + std::chrono::duration_cast<
                  std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      static_cast<double>(tick + 1) / rate));
        std::this_thread::sleep_until(due);
        const auto now = std::chrono::steady_clock::now();
        const auto behind = static_cast<std::uint64_t>(
            std::chrono::duration<double>(now - start).count()
            * rate);
        // Bound the catch-up burst so a long scheduler stall does
        // not dump thousands of records at once.
        const std::uint64_t target =
            std::min(behind, tick + 64);
        for (; tick < target; ++tick) {
            const double t = static_cast<double>(tick) / rate;
            std::size_t slot = 0;
            for (const std::uint16_t id : sensorIds_) {
                // Per-sensor phase shift: rollups exercise distinct
                // per-sensor readings, not N copies of one trace.
                const double phase =
                    static_cast<double>(slot++) * 0.7;
                host::DumpRecord record;
                record.time = t;
                record.presentMask = 0x1;
                record.voltage[0] = 12.0;
                record.current[0] =
                    2.0 + std::sin(2.0 * M_PI * 0.5 * t + phase);
                registry_.publish(id, record);
                published_.fetch_add(1,
                                     std::memory_order_relaxed);
            }
        }
    }
}

} // namespace ps3::net
