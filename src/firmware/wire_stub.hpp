/**
 * @file
 * Scripted protocol responder for wire-level benches and tests.
 *
 * WireStub sits on the device side of a transport::PipeDevice and
 * answers just enough of the host command protocol (see protocol.hpp)
 * for a host::PowerSensor to complete its connection handshake:
 * StopStream, ReadConfig, TimeSync, StartStream, Marker and Version.
 * Unknown commands get a Nack, like the real firmware.
 *
 * Unlike the full Firmware model it performs no physics: the caller
 * pushes pre-encoded stream bytes through send(), so pipeline benches
 * measure the transport + parser + host path in isolation, and
 * shutdown tests control exactly when (and whether) data flows.
 *
 * Threading: command handling runs on whichever thread calls the
 * PipeDevice's write() (the host control thread). send() may be
 * called from one pump thread concurrently; an internal mutex
 * serialises the two writers in front of the pipe's single-producer
 * ring.
 */

#ifndef PS3_FIRMWARE_WIRE_STUB_HPP
#define PS3_FIRMWARE_WIRE_STUB_HPP

#include <atomic>
#include <cstdint>
#include <mutex>

#include "firmware/protocol.hpp"
#include "transport/pipe_device.hpp"

namespace ps3::firmware {

/** Minimal device-side endpoint serving the host handshake. */
class WireStub
{
  public:
    /**
     * Attach to the device side of a pipe. Installs the pipe's
     * host-write handler; the stub must outlive the pipe's use.
     *
     * @param pipe The transport to serve.
     * @param config Configuration blob served to ReadConfig.
     * @param base_micros Device time reported by TimeSync.
     */
    WireStub(transport::PipeDevice &pipe, DeviceConfig config,
             std::uint64_t base_micros = 0);

    /** True after StartStream, false after StopStream. */
    bool streaming() const
    {
        return streaming_.load(std::memory_order_acquire);
    }

    /** Markers requested by the host so far. */
    std::uint64_t markersRequested() const
    {
        return markersRequested_.load(std::memory_order_relaxed);
    }

    /**
     * Device->host bytes (pre-encoded frames). Blocks while the
     * ring is full; safe to call from one pump thread concurrently
     * with host commands.
     */
    void send(const std::uint8_t *data, std::size_t size);

    /**
     * Device->host stream bytes, sent only while the host has the
     * stream started, as the firmware streams. StopStream takes the
     * same lock, so no chunk lands after the host's StopStream write
     * returned, and the host's drain sees the stream end. The
     * caller must leave the chunk room in the pipe: a StopStream
     * arriving while this waits for room would wait for a host that
     * reads nothing until its StopStream returns.
     * @return False (nothing sent) while the stream is stopped.
     */
    bool stream(const std::uint8_t *data, std::size_t size);

  private:
    transport::PipeDevice &pipe_;
    DeviceConfig config_;
    std::uint64_t baseMicros_;

    std::mutex txMutex_;
    std::atomic<bool> streaming_{false};
    std::atomic<std::uint64_t> markersRequested_{0};
    bool awaitMarkerChar_ = false;

    void handleHostBytes(const std::uint8_t *data, std::size_t size);
    void handleCommand(std::uint8_t byte);
};

} // namespace ps3::firmware

#endif // PS3_FIRMWARE_WIRE_STUB_HPP
