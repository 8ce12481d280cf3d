#include "power_sensor.hpp"

#include <chrono>

#include "analog/sensor_models.hpp"
#include "common/fast_format.hpp"
#include "common/errors.hpp"
#include "common/logging.hpp"
#include "obs/registry.hpp"
#include "transport/posix_serial_port.hpp"

namespace ps3::host {

using firmware::Command;

namespace {

/** Reader poll timeout; short so shutdown is prompt. */
constexpr double kReadTimeout = 0.05;

/** Control-exchange timeout (generous for real hardware). */
constexpr double kControlTimeout = 1.0;

/** Silence that ends drainStream(): the stream has stopped. */
constexpr double kDrainQuiet = 0.02;

std::vector<std::uint8_t>
commandByte(Command c)
{
    return {static_cast<std::uint8_t>(c)};
}

/**
 * Reader-loop instruments, shared by all PowerSensor instances
 * (registered once, on first connect).
 */
struct ReaderMetrics
{
    obs::Counter &bytes = obs::Registry::global().counter(
        "ps3_reader_bytes_total",
        "Stream bytes fed to the parser by the reader thread");
    obs::Counter &chunks = obs::Registry::global().counter(
        "ps3_reader_chunks_total",
        "Non-empty reads performed by the reader thread");
    obs::Counter &unresolvedMarkers = obs::Registry::global().counter(
        "ps3_reader_unresolved_markers_total",
        "Marker flags seen with no queued marker character");
    obs::Counter &markerOverflow = obs::Registry::global().counter(
        "ps3_reader_marker_queue_overflow_total",
        "mark() calls discarded because the marker queue was full");
    obs::Gauge &markerQueueDepth = obs::Registry::global().gauge(
        "ps3_reader_marker_queue_depth",
        "Marker characters queued and not yet resolved");
    obs::Histogram &callbackNs = obs::Registry::global().histogram(
        "ps3_reader_callback_ns",
        "Per-frame-set processing latency in the reader thread (ns)");
    obs::Histogram &controlRttNs = obs::Registry::global().histogram(
        "ps3_reader_control_rtt_ns",
        "Control-channel command round-trip time (ns)");
};

ReaderMetrics &
readerMetrics()
{
    static ReaderMetrics metrics;
    return metrics;
}

} // namespace

PowerSensor::PowerSensor(const std::string &device_path)
    : PowerSensor(std::make_unique<transport::PosixSerialPort>(
          device_path))
{
}

PowerSensor::PowerSensor(std::unique_ptr<transport::CharDevice> device)
    : ownedDevice_(std::move(device)),
      device_(ownedDevice_.get()),
      parser_([this](const FrameSet &set) { onFrameSet(set); })
{
    if (!device_)
        throw UsageError("PowerSensor: null device");
    connectHandshake();
    startReader();
}

PowerSensor::PowerSensor(transport::CharDevice &device)
    : device_(&device),
      parser_([this](const FrameSet &set) { onFrameSet(set); })
{
    connectHandshake();
    startReader();
}

PowerSensor::~PowerSensor()
{
    stopRequested_.store(true, std::memory_order_release);
    // Wake the reader if it is parked inside device_->read(); without
    // this, shutdown waits out the remainder of kReadTimeout (up to
    // 50 ms).
    device_->interruptReads();
    if (readerThread_.joinable())
        readerThread_.join();
    try {
        if (!device_->closed())
            sendBytes(commandByte(Command::StopStream));
    } catch (...) {
        // Best effort: the device may already be gone.
    }
    // The reader thread is joined: no more pushes. Drain what it
    // queued so the dump file keeps its tail.
    std::lock_guard<std::mutex> lock(dumpMutex_);
    activeDump_.store(nullptr, std::memory_order_release);
    if (dumpWriter_)
        dumpWriter_->close();
}

void
PowerSensor::sendBytes(const std::vector<std::uint8_t> &bytes)
{
    device_->write(bytes);
}

std::unique_lock<std::mutex>
PowerSensor::lockControl()
{
    std::unique_lock<std::mutex> lock(controlMutex_, std::try_to_lock);
    if (lock.owns_lock())
        return lock;
    controlPending_.fetch_add(1, std::memory_order_acq_rel);
    device_->interruptReads();
    lock.lock();
    controlPending_.fetch_sub(1, std::memory_order_acq_rel);
    return lock;
}

void
PowerSensor::drainStream()
{
    // A read cut short by the interrupt lockControl() raised for the
    // reader returns 0 early; only a whole quiet window ends the
    // drain.
    std::uint8_t scratch[4096];
    auto quiet_since = std::chrono::steady_clock::now();
    for (;;) {
        const double left =
            kDrainQuiet
            - std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - quiet_since)
                  .count();
        if (left <= 0.0)
            break;
        const std::size_t got =
            device_->read(scratch, sizeof(scratch), left);
        if (got > 0) {
            parser_.feed(scratch, got);
            quiet_since = std::chrono::steady_clock::now();
        } else if (device_->closed()) {
            break;
        }
    }
    parser_.flush();
}

std::vector<std::uint8_t>
PowerSensor::readControl(std::size_t n, double timeout_seconds)
{
    // Times the tail of every command exchange (send happens just
    // before the first readControl); a timeout records as a long RTT.
    obs::ScopedTimer timer(readerMetrics().controlRttNs);
    std::vector<std::uint8_t> out;
    out.reserve(n);
    const auto deadline =
        std::chrono::steady_clock::now()
        + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(timeout_seconds));
    std::uint8_t buffer[256];
    while (out.size() < n) {
        if (std::chrono::steady_clock::now() > deadline) {
            throw DeviceError(
                "PowerSensor: control response timed out");
        }
        const std::size_t want =
            std::min(n - out.size(), sizeof(buffer));
        const std::size_t got = device_->read(buffer, want, 0.05);
        out.insert(out.end(), buffer, buffer + got);
        if (got == 0 && device_->closed())
            throw DeviceError("PowerSensor: device disappeared");
    }
    return out;
}

void
PowerSensor::connectHandshake()
{
    std::lock_guard<std::mutex> lock(controlMutex_);

    // The device may still be streaming from a previous session:
    // stop it and discard stale bytes.
    sendBytes(commandByte(Command::StopStream));
    std::uint8_t scratch[1024];
    while (device_->read(scratch, sizeof(scratch), 0.02) != 0) {
        // discard
    }

    // Read the sensor configuration. A noisy link can corrupt the
    // blob (checksum failure); retry a few times before giving up.
    constexpr int kConfigRetries = 5;
    for (int attempt = 1;; ++attempt) {
        try {
            sendBytes(commandByte(Command::ReadConfig));
            const auto status = readControl(1, kControlTimeout);
            if (status[0] != firmware::kAck)
                throw DeviceError("PowerSensor: config read rejected");
            const auto blob = readControl(firmware::kConfigBlobSize,
                                          kControlTimeout);
            config_ =
                firmware::deserializeConfig(blob.data(), blob.size());
            break;
        } catch (const DeviceError &) {
            if (attempt >= kConfigRetries)
                throw;
            // Drain any residual bytes before retrying.
            while (device_->read(scratch, sizeof(scratch), 0.02) != 0) {
            }
        }
    }

    // Anchor the device time axis (simulator extension; a real
    // device NACKs and the host keeps a zero base).
    sendBytes(commandByte(Command::TimeSync));
    const auto status = readControl(1, kControlTimeout);
    if (status[0] == firmware::kAck) {
        const auto raw = readControl(8, kControlTimeout);
        std::uint64_t micros = 0;
        for (int i = 7; i >= 0; --i)
            micros = (micros << 8) | raw[static_cast<std::size_t>(i)];
        parser_.setBaseMicros(micros);
    }

    sendBytes(commandByte(Command::StartStream));
}

void
PowerSensor::startReader()
{
    readerThread_ = std::thread([this] { readerLoop(); });
}

void
PowerSensor::readerLoop()
{
    std::uint8_t buffer[16384];
    while (!stopRequested_.load(std::memory_order_acquire)) {
        // A control operation wants the mutex: stand back until it
        // has it, then queue behind it.
        while (controlPending_.load(std::memory_order_acquire) != 0
               && !stopRequested_.load(std::memory_order_acquire))
            std::this_thread::yield();
        std::size_t got = 0;
        {
            std::lock_guard<std::mutex> lock(controlMutex_);
            got = device_->read(buffer, sizeof(buffer), kReadTimeout);
            if (got > 0) {
                readerMetrics().bytes.inc(got);
                readerMetrics().chunks.inc();
                parser_.feed(buffer, got);
            }
        }
        if (got == 0) {
            if (device_->closed()) {
                std::lock_guard<std::mutex> lock(stateMutex_);
                deviceGone_ = true;
                stateCv_.notify_all();
                return;
            }
            // Timed out or interrupted: let others run first.
            std::this_thread::yield();
        }
    }
}

void
PowerSensor::onFrameSet(const FrameSet &set)
{
    obs::ScopedTimer timer(readerMetrics().callbackNs);
    Sample sample;
    sample.time = set.deviceTime;

    {
        std::lock_guard<std::mutex> lock(configMutex_);
        for (unsigned pair = 0; pair < kMaxPairs; ++pair) {
            const unsigned ch_i = pair * 2;
            const unsigned ch_v = pair * 2 + 1;
            const auto &cfg_i = config_[ch_i];
            const auto &cfg_v = config_[ch_v];
            if (!cfg_i.inUse || !cfg_v.inUse || !set.valid[ch_i]
                || !set.valid[ch_v]) {
                continue;
            }
            const double adc_i =
                analog::AdcModel::toVolts(set.level[ch_i]);
            const double adc_v =
                analog::AdcModel::toVolts(set.level[ch_v]);
            sample.current[pair] = (adc_i - cfg_i.vref) / cfg_i.slope;
            sample.voltage[pair] = adc_v / cfg_v.slope;
            sample.present[pair] = true;
        }
    }

    if (set.marker) {
        sample.marker = true;
        char queued = '\0';
        if (markerQueue_.tryPop(queued)) {
            sample.markerChar = queued;
        } else {
            sample.markerChar = '?';
            readerMetrics().unresolvedMarkers.inc();
        }
        readerMetrics().markerQueueDepth.set(
            static_cast<std::int64_t>(markerQueue_.size()));
    }

    history_.addSample(sample);

    // Fan out to dump file and listeners BEFORE publishing the
    // updated state: waitForSamples()/waitUntil() must only wake
    // their callers once every counted sample has been delivered,
    // otherwise a caller could unregister its listener while the
    // final sample is still in flight.
    //
    // Dump fast path: a relaxed null check when no dump is active;
    // with one active, a busy-flag/fence handshake (paired with the
    // fence in dump()) pins the writer alive across the push without
    // the reader ever taking dumpMutex_. The acquire load pairs with
    // dump()'s release store, so the writer's construction is visible
    // before the first push.
    if (activeDump_.load(std::memory_order_relaxed) != nullptr) {
        dumpBusy_.store(true, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (DumpWriter *writer =
                activeDump_.load(std::memory_order_acquire))
            pushDumpRecord(sample, *writer);
        dumpBusy_.store(false, std::memory_order_release);
    }
    {
        std::lock_guard<std::mutex> lock(listenerMutex_);
        for (auto &[token, callback] : listeners_)
            callback(sample);
    }

    bool wake = false;
    {
        std::lock_guard<std::mutex> lock(stateMutex_);
        const double dt = haveLastSampleTime_
                              ? sample.time - lastSampleTime_
                              : 0.0;
        haveLastSampleTime_ = true;
        lastSampleTime_ = sample.time;

        state_.timeAtRead = sample.time;
        ++state_.sampleCount;
        for (unsigned pair = 0; pair < kMaxPairs; ++pair) {
            state_.present[pair] = sample.present[pair];
            if (!sample.present[pair])
                continue;
            state_.current[pair] = sample.current[pair];
            state_.voltage[pair] = sample.voltage[pair];
            if (dt > 0.0) {
                state_.consumedEnergy[pair] +=
                    sample.current[pair] * sample.voltage[pair] * dt;
            }
        }

        // Coalesced wake: only signal when a waiter's registered
        // target is reached. Unsatisfied waiters re-arm after the
        // targets reset, so nothing is lost (both sides hold
        // stateMutex_).
        if (state_.sampleCount >= sampleWakeTarget_
            || state_.timeAtRead >= timeWakeTarget_) {
            sampleWakeTarget_ = kNoSampleTarget;
            timeWakeTarget_ = std::numeric_limits<double>::infinity();
            wake = true;
        }
    }
    if (wake)
        stateCv_.notify_all();
}

State
PowerSensor::read() const
{
    std::lock_guard<std::mutex> lock(stateMutex_);
    return state_;
}

void
PowerSensor::mark(char marker)
{
    // Queue first, then command: the device cannot flag a frame set
    // before the command arrives, so the resolving pop always finds
    // the character. When the bounded queue is full the marker is
    // dropped whole (not sent either) so queue and device stay in
    // step; the drop is observable in the overflow counter.
    if (!markerQueue_.tryPush(marker)) {
        readerMetrics().markerOverflow.inc();
        return;
    }
    readerMetrics().markerQueueDepth.set(
        static_cast<std::int64_t>(markerQueue_.size()));
    sendBytes({static_cast<std::uint8_t>(Command::Marker),
               static_cast<std::uint8_t>(marker)});
}

void
PowerSensor::dump(const std::string &filename, DumpFormat format,
                  DumpOverflow overflow)
{
    std::lock_guard<std::mutex> lock(dumpMutex_);
    std::unique_ptr<DumpWriter> next;
    if (!filename.empty()) {
        DumpWriter::Options options;
        options.format = format;
        options.overflow = overflow;
        next = std::make_unique<DumpWriter>(
            filename, dumpHeaderText(), options);
    }
    // Publish the new writer (or none), then wait out a reader that
    // may have grabbed the old pointer just before the swap: the
    // seq_cst fences on both sides guarantee the reader either sees
    // the new pointer or the busy flag covers its in-flight push.
    std::unique_ptr<DumpWriter> old = std::move(dumpWriter_);
    dumpWriter_ = std::move(next);
    activeDump_.store(dumpWriter_.get(), std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    while (dumpBusy_.load(std::memory_order_acquire))
        std::this_thread::yield();
    if (old)
        old->close(); // drains every queued record before returning
}

bool
PowerSensor::dumping() const
{
    return activeDump_.load(std::memory_order_relaxed) != nullptr;
}

std::string
PowerSensor::dumpHeaderText() const
{
    std::lock_guard<std::mutex> lock(configMutex_);
    return host::dumpHeaderText(config_);
}

void
PowerSensor::pushDumpRecord(const Sample &sample, DumpWriter &writer)
{
    DumpRecord record;
    record.time = sample.time;
    record.voltage = sample.voltage;
    record.current = sample.current;
    for (unsigned pair = 0; pair < kMaxPairs; ++pair) {
        if (sample.present[pair])
            record.presentMask |= static_cast<std::uint8_t>(1u << pair);
    }
    record.marker = sample.marker;
    record.markerChar = sample.markerChar;
    writer.push(record);
}

firmware::DeviceConfig
PowerSensor::config() const
{
    std::lock_guard<std::mutex> lock(configMutex_);
    return config_;
}

void
PowerSensor::writeConfig(const firmware::DeviceConfig &config)
{
    const auto lock = lockControl();
    sendBytes(commandByte(Command::StopStream));
    // Drain residual stream bytes through the parser so no energy is
    // silently lost.
    drainStream();

    std::vector<std::uint8_t> message =
        commandByte(Command::WriteConfig);
    const auto blob = firmware::serializeConfig(config);
    message.insert(message.end(), blob.begin(), blob.end());
    sendBytes(message);
    const auto status = readControl(1, kControlTimeout);
    if (status[0] != firmware::kAck)
        throw DeviceError("PowerSensor: config write rejected");
    {
        std::lock_guard<std::mutex> cfg_lock(configMutex_);
        config_ = config;
    }
    sendBytes(commandByte(Command::StartStream));
}

std::string
PowerSensor::firmwareVersion()
{
    const auto lock = lockControl();
    sendBytes(commandByte(Command::StopStream));
    drainStream();

    sendBytes(commandByte(Command::Version));
    const auto status = readControl(1, kControlTimeout);
    if (status[0] != firmware::kAck)
        throw DeviceError("PowerSensor: version query rejected");
    const auto len = readControl(1, kControlTimeout);
    const auto text = readControl(len[0], kControlTimeout);
    sendBytes(commandByte(Command::StartStream));
    return std::string(text.begin(), text.end());
}

bool
PowerSensor::pairPresent(unsigned pair) const
{
    if (pair >= kMaxPairs)
        throw UsageError("PowerSensor: pair index out of range");
    std::lock_guard<std::mutex> lock(configMutex_);
    return config_[pair * 2].inUse && config_[pair * 2 + 1].inUse;
}

std::string
PowerSensor::pairName(unsigned pair) const
{
    if (pair >= kMaxPairs)
        throw UsageError("PowerSensor: pair index out of range");
    std::lock_guard<std::mutex> lock(configMutex_);
    return config_[pair * 2].name;
}

bool
PowerSensor::waitUntil(double device_time) const
{
    std::unique_lock<std::mutex> lock(stateMutex_);
    while (!(state_.timeAtRead >= device_time || deviceGone_)) {
        // Re-arm on every pass: the reader resets the target when it
        // fires a wake.
        timeWakeTarget_ = std::min(timeWakeTarget_, device_time);
        stateCv_.wait(lock);
    }
    return state_.timeAtRead >= device_time;
}

bool
PowerSensor::waitForSamples(std::uint64_t n) const
{
    std::unique_lock<std::mutex> lock(stateMutex_);
    const std::uint64_t target = state_.sampleCount + n;
    while (!(state_.sampleCount >= target || deviceGone_)) {
        // Re-arm on every pass: the reader resets the target when it
        // fires a wake.
        sampleWakeTarget_ = std::min(sampleWakeTarget_, target);
        stateCv_.wait(lock);
    }
    return state_.sampleCount >= target;
}

std::uint64_t
PowerSensor::addSampleListener(SampleCallback callback)
{
    if (!callback)
        throw UsageError("PowerSensor: null sample listener");
    std::lock_guard<std::mutex> lock(listenerMutex_);
    const std::uint64_t token = nextListenerToken_++;
    listeners_.emplace(token, std::move(callback));
    return token;
}

void
PowerSensor::removeSampleListener(std::uint64_t token)
{
    std::lock_guard<std::mutex> lock(listenerMutex_);
    listeners_.erase(token);
}

std::uint64_t
PowerSensor::resyncByteCount() const
{
    // The reader thread is the counter's only writer; the parser
    // keeps it atomic so this read may race with feed().
    return parser_.resyncByteCount();
}

bool
PowerSensor::deviceGone() const
{
    std::lock_guard<std::mutex> lock(stateMutex_);
    return deviceGone_;
}

} // namespace ps3::host
