#include "firmware.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "obs/registry.hpp"

namespace ps3::firmware {

namespace {

/** Frame sets between display refreshes: 10 Hz at 20 kHz sampling. */
constexpr std::uint64_t kDisplayDivider = 2000;

/** Upper bound of bytes generated per produce() call. */
constexpr std::size_t kProduceChunk = 8192;

/** Device-model instruments, shared by all Firmware instances. */
struct FirmwareMetrics
{
    obs::Counter &frameSets = obs::Registry::global().counter(
        "ps3_firmware_frame_sets_total",
        "Frame sets emitted by the firmware model");
    obs::Counter &frames = obs::Registry::global().counter(
        "ps3_firmware_frames_total",
        "Frames emitted (timestamp + data) by the firmware model");
    obs::Counter &commands = obs::Registry::global().counter(
        "ps3_firmware_commands_total",
        "Host command bytes dispatched by the firmware model");
    obs::Gauge &txQueueHighWater = obs::Registry::global().gauge(
        "ps3_firmware_tx_queue_hwm_bytes",
        "High-water mark of the firmware tx queue");
};

FirmwareMetrics &
firmwareMetrics()
{
    static FirmwareMetrics metrics;
    return metrics;
}

} // namespace

ManufacturingSpread
ManufacturingSpread::typical(std::uint64_t seed)
{
    Rng rng(seed);
    ManufacturingSpread spread;
    spread.currentOffsetAmps = rng.uniform(-0.15, 0.15);
    spread.currentGainError = rng.uniform(-0.003, 0.003);
    spread.voltageGainError = rng.uniform(-0.01, 0.01);
    return spread;
}

ModuleAssembly
makeModule(const analog::SensorModuleSpec &spec,
           std::shared_ptr<dut::Dut> dut, unsigned rail,
           std::shared_ptr<dut::SupplyModel> supply, std::uint64_t seed,
           const ManufacturingSpread &spread)
{
    ModuleAssembly assembly;
    assembly.spec = spec;
    assembly.currentSensor = std::make_unique<analog::CurrentSensorModel>(
        spec, seed * 2 + 1, spread.currentOffsetAmps,
        spread.currentGainError);
    assembly.voltageSensor = std::make_unique<analog::VoltageSensorModel>(
        spec, seed * 2 + 2, spread.voltageGainError);
    assembly.binding = std::make_shared<dut::RailBinding>(
        std::move(dut), rail, std::move(supply));
    return assembly;
}

Firmware::Firmware(const std::string &eeprom_backing_path)
    : eeprom_(eeprom_backing_path.empty()
                  ? VirtualEeprom()
                  : VirtualEeprom(eeprom_backing_path)),
      fence_(std::numeric_limits<double>::infinity())
{
    configCache_ = eeprom_.load();
}

void
Firmware::attachModule(unsigned pair, ModuleAssembly assembly)
{
    if (pair >= kPairCount)
        throw UsageError("Firmware: module socket out of range");

    std::lock_guard<std::mutex> lock(mutex_);
    const unsigned current_ch = pair * 2;
    const unsigned voltage_ch = pair * 2 + 1;

    // Seed the EEPROM with nominal conversion constants unless a
    // calibration for this module name is already stored.
    const auto existing = eeprom_.loadChannel(current_ch);
    if (existing.name != assembly.spec.name || !existing.inUse) {
        SensorConfigRecord current;
        current.name = assembly.spec.name;
        current.vref =
            static_cast<float>(assembly.spec.currentOffsetVoltage());
        current.slope =
            static_cast<float>(assembly.spec.currentSensitivity());
        current.inUse = true;
        eeprom_.storeChannel(current_ch, current);

        SensorConfigRecord voltage;
        voltage.name = assembly.spec.name;
        voltage.vref = 0.0f;
        voltage.slope =
            static_cast<float>(assembly.spec.voltageGain());
        voltage.inUse = true;
        eeprom_.storeChannel(voltage_ch, voltage);
    }
    configCache_ = eeprom_.load();

    modules_[pair] =
        std::make_unique<ModuleAssembly>(std::move(assembly));
}

void
Firmware::refreshConfigFromEeprom()
{
    std::lock_guard<std::mutex> lock(mutex_);
    configCache_ = eeprom_.load();
}

void
Firmware::setNoiseMode(analog::NoiseMode mode)
{
    std::lock_guard<std::mutex> lock(mutex_);
    noiseMode_ = mode;
}

void
Firmware::setProductionFence(double t)
{
    fence_.store(t, std::memory_order_release);
}

bool
Firmware::streaming() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return streaming_;
}

bool
Firmware::inDfuMode() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dfuMode_;
}

std::uint64_t
Firmware::frameSetsProduced() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return frameSets_;
}

void
Firmware::enqueueFrame(const Frame &frame)
{
    const auto bytes = encodeFrame(frame);
    txQueue_.push_back(bytes[0]);
    txQueue_.push_back(bytes[1]);
    ++unpublishedFrames_; // registry add deferred to produce()
}

void
Firmware::enqueueStatus(std::uint8_t status)
{
    txQueue_.push_back(status);
}

void
Firmware::emitFrameSet()
{
    // One frame set: kScansPerFrameSet full ADC scans, averaged per
    // channel by the CPU. The ADC walks all kNumChannels inputs every
    // scan regardless of module population, so the 50 us cadence is
    // invariant (48 x 25 cycles at 24 MHz).
    //
    // The physics is evaluated channel-major: each channel's
    // kScansPerFrameSet conversions form one scan block, resolved by
    // the rail binding in one call (one DUT evaluation per
    // conversion) and handed to the batched sensor models. The
    // conversion times reproduce the hardware's interleaved scan
    // order exactly, and every sensor owns a private RNG and filter,
    // so reordering the evaluation leaves each channel's sample
    // stream unchanged.
    std::array<double, kNumChannels> code_sum{};

    // Conversion times are offsets from the frame-set start; the
    // clock itself advances by exactly 50 us per set (48 x 25 cycles
    // at 24 MHz) so multi-hour runs accumulate zero timing drift.
    const double set_start = clock_.now();
    std::array<double, kScansPerFrameSet> times;
    std::array<double, kScansPerFrameSet> volts;
    std::array<double, kScansPerFrameSet> amps;
    std::array<double, kScansPerFrameSet> vout;
    for (unsigned ch = 0; ch < kNumChannels; ++ch) {
        auto &module = modules_[pairOfChannel(ch)];
        if (!module)
            continue;
        for (unsigned scan = 0; scan < kScansPerFrameSet; ++scan) {
            times[scan] = set_start
                          + (scan * kNumChannels + ch)
                                * analog::AdcModel::kConversionTime;
        }
        module->binding->resolveBlock(times.data(), kScansPerFrameSet,
                                      volts.data(), amps.data());
        if (isCurrentChannel(ch)) {
            module->currentSensor->sampleBlock(
                amps.data(), times.data(), kScansPerFrameSet,
                noiseMode_, vout.data());
        } else {
            module->voltageSensor->sampleBlock(
                volts.data(), times.data(), kScansPerFrameSet,
                noiseMode_, vout.data());
        }
        double sum = 0.0;
        for (unsigned scan = 0; scan < kScansPerFrameSet; ++scan)
            sum += analog::AdcModel::convert(vout[scan]);
        code_sum[ch] = sum;
    }
    // The timestamp is captured after processing 3 of the 6 scans
    // (paper Sec. III-B).
    const std::uint64_t timestamp_micros =
        static_cast<std::uint64_t>((set_start + 25e-6) * 1e6 + 0.5);
    clock_.advanceMicros(50);

    enqueueFrame(makeTimestampFrame(timestamp_micros));

    bool marker_armed = markersPending_ > 0;
    for (unsigned ch = 0; ch < kNumChannels; ++ch) {
        if (!modules_[pairOfChannel(ch)] || !configCache_[ch].inUse)
            continue;
        const double avg_code =
            code_sum[ch] / static_cast<double>(kScansPerFrameSet);
        Frame frame;
        frame.sensorId = static_cast<std::uint8_t>(ch);
        frame.level = static_cast<std::uint16_t>(
            std::lround(std::min(avg_code, 1023.0)));
        // The marker rides on the first enabled channel of the set
        // (channel 0 in any standard population).
        if (marker_armed) {
            frame.marker = true;
            marker_armed = false;
            --markersPending_;
        }
        lastAdcVolts_[ch] = analog::AdcModel::toVolts(frame.level);
        enqueueFrame(frame);
    }

    ++frameSets_;
    ++unpublishedSets_; // registry add deferred to produce()
    if (frameSets_ % kDisplayDivider == 0)
        updateDisplay();
}

void
Firmware::updateDisplay()
{
    std::array<PairReading, kPairCount> readings{};
    for (unsigned pair = 0; pair < kPairCount; ++pair) {
        if (!modules_[pair])
            continue;
        const auto &cur_cfg = configCache_[pair * 2];
        const auto &vol_cfg = configCache_[pair * 2 + 1];
        if (!cur_cfg.inUse || !vol_cfg.inUse)
            continue;
        PairReading reading;
        reading.present = true;
        reading.amps = (lastAdcVolts_[pair * 2] - cur_cfg.vref)
                       / cur_cfg.slope;
        reading.volts = lastAdcVolts_[pair * 2 + 1] / vol_cfg.slope;
        readings[pair] = reading;
    }
    display_.update(readings);
}

std::size_t
Firmware::produce(std::uint8_t *buffer, std::size_t max_bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);

    const std::size_t want = std::min(max_bytes, kProduceChunk);
    while (txQueue_.size() - txHead_ < want && streaming_
           && clock_.now() < fence_.load(std::memory_order_acquire)) {
        emitFrameSet();
    }

    // Publish the tallies accumulated by the emit loop in one shot.
    auto &metrics = firmwareMetrics();
    metrics.txQueueHighWater.updateMax(
        static_cast<std::int64_t>(txQueue_.size() - txHead_));
    if (unpublishedFrames_ != 0 || unpublishedSets_ != 0) {
        metrics.frames.inc(unpublishedFrames_);
        metrics.frameSets.inc(unpublishedSets_);
        unpublishedFrames_ = 0;
        unpublishedSets_ = 0;
    }

    const std::size_t count =
        std::min(txQueue_.size() - txHead_, max_bytes);
    if (count != 0)
        std::memcpy(buffer, txQueue_.data() + txHead_, count);
    txHead_ += count;
    if (txHead_ == txQueue_.size()) {
        txQueue_.clear();
        txHead_ = 0;
    } else if (txHead_ >= kProduceChunk) {
        // Partial drains never empty the vector, so fold the consumed
        // prefix back periodically; the surviving tail is at most one
        // produce chunk plus one frame set.
        txQueue_.erase(txQueue_.begin(),
                       txQueue_.begin()
                           + static_cast<std::ptrdiff_t>(txHead_));
        txHead_ = 0;
    }
    return count;
}

void
Firmware::hostWrite(const std::uint8_t *data, std::size_t size)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < size; ++i)
        handleCommand(data[i]);
}

void
Firmware::handleCommand(std::uint8_t byte)
{
    switch (rxState_) {
      case RxState::AwaitMarkerChar:
        // The marker character itself is tracked host-side; the
        // device only flags one upcoming frame set per request.
        ++markersPending_;
        rxState_ = RxState::Idle;
        return;
      case RxState::AwaitConfigBlob:
        rxBuffer_.push_back(byte);
        if (rxBuffer_.size() == kConfigBlobSize) {
            rxState_ = RxState::Idle;
            try {
                const auto config =
                    deserializeConfig(rxBuffer_.data(),
                                      rxBuffer_.size());
                eeprom_.store(config);
                configCache_ = config;
                enqueueStatus(kAck);
            } catch (const DeviceError &) {
                enqueueStatus(kNack);
            }
            rxBuffer_.clear();
        }
        return;
      case RxState::Idle:
        break;
    }

    firmwareMetrics().commands.inc();
    switch (static_cast<Command>(byte)) {
      case Command::StartStream:
        streaming_ = true;
        break;
      case Command::StopStream:
        streaming_ = false;
        break;
      case Command::Marker:
        rxState_ = RxState::AwaitMarkerChar;
        break;
      case Command::ReadConfig:
        if (streaming_) {
            enqueueStatus(kNack);
            break;
        }
        enqueueStatus(kAck);
        for (std::uint8_t b : serializeConfig(configCache_))
            txQueue_.push_back(b);
        break;
      case Command::WriteConfig:
        if (streaming_) {
            enqueueStatus(kNack);
            break;
        }
        rxState_ = RxState::AwaitConfigBlob;
        rxBuffer_.clear();
        break;
      case Command::Version: {
        if (streaming_) {
            enqueueStatus(kNack);
            break;
        }
        enqueueStatus(kAck);
        const std::string version = firmwareVersion();
        txQueue_.push_back(
            static_cast<std::uint8_t>(version.size()));
        for (char c : version)
            txQueue_.push_back(static_cast<std::uint8_t>(c));
        break;
      }
      case Command::TimeSync: {
        if (streaming_) {
            enqueueStatus(kNack);
            break;
        }
        enqueueStatus(kAck);
        std::uint64_t micros =
            static_cast<std::uint64_t>(clock_.now() * 1e6);
        for (int i = 0; i < 8; ++i) {
            txQueue_.push_back(
                static_cast<std::uint8_t>(micros & 0xFF));
            micros >>= 8;
        }
        break;
      }
      case Command::Reboot:
        rebootLocked(false);
        break;
      case Command::RebootDfu:
        rebootLocked(true);
        break;
      default:
        enqueueStatus(kNack);
        break;
    }
}

void
Firmware::rebootLocked(bool dfu)
{
    streaming_ = false;
    markersPending_ = 0;
    rxState_ = RxState::Idle;
    rxBuffer_.clear();
    txQueue_.clear();
    txHead_ = 0;
    dfuMode_ = dfu;
    // Flash-backed configuration survives; RAM cache reloads.
    configCache_ = eeprom_.load();
    enqueueStatus(kAck);
}

} // namespace ps3::firmware
