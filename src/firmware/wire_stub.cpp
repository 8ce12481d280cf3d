#include "wire_stub.hpp"

#include <vector>

namespace ps3::firmware {

WireStub::WireStub(transport::PipeDevice &pipe, DeviceConfig config,
                   std::uint64_t base_micros)
    : pipe_(pipe), config_(std::move(config)), baseMicros_(base_micros)
{
    pipe_.setHostWriteHandler(
        [this](const std::uint8_t *data, std::size_t size) {
            handleHostBytes(data, size);
        });
}

void
WireStub::send(const std::uint8_t *data, std::size_t size)
{
    std::lock_guard<std::mutex> lock(txMutex_);
    pipe_.deviceWrite(data, size);
}

bool
WireStub::stream(const std::uint8_t *data, std::size_t size)
{
    std::lock_guard<std::mutex> lock(txMutex_);
    if (!streaming_.load(std::memory_order_acquire))
        return false;
    pipe_.deviceWrite(data, size);
    return true;
}

void
WireStub::handleHostBytes(const std::uint8_t *data, std::size_t size)
{
    for (std::size_t i = 0; i < size; ++i)
        handleCommand(data[i]);
}

void
WireStub::handleCommand(std::uint8_t byte)
{
    if (awaitMarkerChar_) {
        // The marker character itself is tracked host-side.
        awaitMarkerChar_ = false;
        markersRequested_.fetch_add(1, std::memory_order_relaxed);
        return;
    }

    std::vector<std::uint8_t> reply;
    switch (static_cast<Command>(byte)) {
      case Command::StartStream:
        streaming_.store(true, std::memory_order_release);
        return;
      case Command::StopStream: {
        std::lock_guard<std::mutex> lock(txMutex_); // see stream()
        streaming_.store(false, std::memory_order_release);
        return;
      }
      case Command::Marker:
        awaitMarkerChar_ = true;
        return;
      case Command::ReadConfig: {
        reply.push_back(kAck);
        const auto blob = serializeConfig(config_);
        reply.insert(reply.end(), blob.begin(), blob.end());
        break;
      }
      case Command::TimeSync: {
        reply.push_back(kAck);
        std::uint64_t micros = baseMicros_;
        for (int i = 0; i < 8; ++i) {
            reply.push_back(static_cast<std::uint8_t>(micros & 0xFF));
            micros >>= 8;
        }
        break;
      }
      case Command::Version: {
        reply.push_back(kAck);
        const std::string version = firmwareVersion();
        reply.push_back(static_cast<std::uint8_t>(version.size()));
        for (char c : version)
            reply.push_back(static_cast<std::uint8_t>(c));
        break;
      }
      default:
        reply.push_back(kNack);
        break;
    }
    send(reply.data(), reply.size());
}

} // namespace ps3::firmware
