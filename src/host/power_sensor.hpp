/**
 * @file
 * The PowerSensor3 host library's main class (paper Sec. III-C).
 *
 * A PowerSensor connects to the device (real serial node or emulated
 * link), reads the sensor configuration, starts streaming, and runs a
 * lightweight reader thread that:
 *
 *  - converts each 20 kHz frame set to calibrated volts/amps,
 *  - integrates cumulative energy per sensor pair,
 *  - queues a record for the asynchronous dump writer when enabled
 *    (one struct copy; formatting and file I/O happen on the
 *    DumpWriter thread, see dump_writer.hpp),
 *  - resolves marker flags against the queued marker characters,
 *  - fans samples out to registered listeners.
 *
 * Both measurement modes of the paper are supported simultaneously:
 * interval-based (read() two States, derive Joules/Watts/seconds) and
 * continuous (dump() to file at full 20 kHz resolution with markers).
 */

#ifndef PS3_HOST_POWER_SENSOR_HPP
#define PS3_HOST_POWER_SENSOR_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/bounded_queue.hpp"
#include "firmware/protocol.hpp"
#include "host/dump_writer.hpp"
#include "host/sensor.hpp"
#include "host/state.hpp"
#include "host/stream_parser.hpp"
#include "transport/char_device.hpp"

namespace ps3::host {

/** Host-side connection to one PowerSensor3 device. */
class PowerSensor : public Sensor
{
  public:
    /**
     * Connect via a serial device node (real hardware).
     * @param device_path e.g. "/dev/ttyACM0".
     */
    explicit PowerSensor(const std::string &device_path);

    /** Connect via an injected transport (simulation, tests). */
    explicit PowerSensor(std::unique_ptr<transport::CharDevice> device);

    /** Non-owning variant: the device must outlive the sensor. */
    explicit PowerSensor(transport::CharDevice &device);

    /** Stops streaming and joins the reader thread. */
    ~PowerSensor() override;

    PowerSensor(const PowerSensor &) = delete;
    PowerSensor &operator=(const PowerSensor &) = delete;

    /** Snapshot the current measurement state (thread safe). */
    State read() const override;

    /**
     * Queue a marker. The device flags the next frame set; the flag
     * is resolved back to this character in the dump file and the
     * sample stream. Lock free: safe to call from sample listeners
     * running on the reader thread. When more than
     * kMarkerQueueCapacity markers are in flight the overflowing
     * marker is discarded (not sent) and counted in
     * ps3_reader_marker_queue_overflow_total.
     */
    void mark(char marker) override;

    /**
     * Continuous mode: stream all samples to a file at 20 kHz
     * through the asynchronous dump pipeline.
     * @param filename Output path; empty string stops dumping (the
     *        queued tail is drained before the file closes).
     * @param format Text, Binary, or Auto ("*.ps3b" means binary).
     * @param overflow Backpressure when the record ring fills:
     *        Block (lossless, default) or DropOldest (never stalls
     *        the reader; drops are counted in
     *        ps3_dump_records_dropped_total).
     */
    void dump(const std::string &filename,
              DumpFormat format = DumpFormat::Auto,
              DumpOverflow overflow = DumpOverflow::Block) override;

    /** True while a dump file is open. */
    bool dumping() const override;

    /** Device configuration as read at connect (or last write). */
    firmware::DeviceConfig config() const override;

    /**
     * Write a new device configuration (stored in device EEPROM).
     * Streaming is paused and resumed around the transfer.
     */
    void writeConfig(const firmware::DeviceConfig &config) override;

    /** Query the firmware version string (pauses streaming). */
    std::string firmwareVersion() override;

    /** True if the given pair has both channels enabled. */
    bool pairPresent(unsigned pair) const override;

    /** Sensor name of a pair (from the current-channel record). */
    std::string pairName(unsigned pair) const override;

    /**
     * Block until device time reaches the given value (virtual-time
     * experiments) or the device disappears.
     * @return false if the device closed before reaching t.
     */
    bool waitUntil(double device_time) const override;

    /**
     * Block until at least n additional frame sets have been
     * processed.
     * @return false if the device closed first.
     */
    bool waitForSamples(std::uint64_t n) const override;

    /** Register a per-sample listener; returns a token. */
    std::uint64_t addSampleListener(SampleCallback callback) override;

    /** Remove a listener by token. */
    void removeSampleListener(std::uint64_t token) override;

    /** Bytes skipped by the parser during resynchronisation. */
    std::uint64_t resyncByteCount() const;

    /** True once the device vanished (read path saw end-of-stream). */
    bool deviceGone() const override;

    /** Multi-resolution history fed by the reader loop. */
    const History *
    history() const override
    {
        return &history_;
    }

    /** Markers that may be in flight at once (bounded, lock free). */
    static constexpr std::size_t kMarkerQueueCapacity = 256;

  private:
    std::unique_ptr<transport::CharDevice> ownedDevice_;
    transport::CharDevice *device_;

    mutable std::mutex stateMutex_;
    mutable std::condition_variable stateCv_;
    State state_;
    bool deviceGone_ = false;

    /**
     * Wake coalescing for waitForSamples()/waitUntil(): waiters
     * register the sample count / device time they need (minimum
     * across waiters) and the reader signals stateCv_ only when a
     * registered target is reached — not once per frame set, which
     * would cost a futex wake per 50 us sample while anyone waits.
     * Both guarded by stateMutex_; reset to the sentinels whenever a
     * wake fires, after which unsatisfied waiters re-arm.
     */
    mutable std::uint64_t sampleWakeTarget_ = kNoSampleTarget;
    mutable double timeWakeTarget_ =
        std::numeric_limits<double>::infinity();

    static constexpr std::uint64_t kNoSampleTarget =
        std::numeric_limits<std::uint64_t>::max();

    mutable std::mutex configMutex_;
    firmware::DeviceConfig config_{};

    /**
     * Markers queued by mark() and resolved by the reader thread.
     * Lock free (Vyukov MPMC): mark() may run on any thread —
     * including a sample listener on the reader thread itself — and
     * never contends with the 20 kHz resolution path.
     */
    MpmcBoundedQueue<char> markerQueue_{kMarkerQueueCapacity};

    std::mutex listenerMutex_;
    std::map<std::uint64_t, SampleCallback> listeners_;
    std::uint64_t nextListenerToken_ = 1;

    /**
     * Asynchronous dump pipeline. dumpMutex_ serializes dump()
     * callers; the reader thread never takes it — it publishes a
     * busy flag and re-reads activeDump_ behind a seq_cst fence
     * (store-buffer/Dekker pairing with the swap in dump()), so the
     * per-sample cost with no dump active is a single relaxed load
     * and an active dump costs one fence plus the record push.
     */
    mutable std::mutex dumpMutex_;
    std::unique_ptr<DumpWriter> dumpWriter_;
    std::atomic<DumpWriter *> activeDump_{nullptr};
    std::atomic<bool> dumpBusy_{false};

    StreamParser parser_;
    std::thread readerThread_;
    std::atomic<bool> stopRequested_{false};

    /** Control-channel coordination: pause the reader for commands. */
    std::mutex controlMutex_;
    /** Control operations waiting for controlMutex_ (lockControl). */
    std::atomic<unsigned> controlPending_{0};

    bool haveLastSampleTime_ = false;
    double lastSampleTime_ = 0.0;

    /** Cascaded downsampling tiers (docs/HISTORY.md). */
    History history_{firmware::kSampleRateHz};

    void connectHandshake();
    void startReader();
    void readerLoop();
    void onFrameSet(const FrameSet &set);
    std::string dumpHeaderText() const;
    void pushDumpRecord(const Sample &sample, DumpWriter &writer);

    /**
     * Take controlMutex_ for a control operation. The reader holds
     * the mutex across its blocking read and takes it again straight
     * after, so a plain lock could starve; this one announces itself
     * (the reader stands back while controlPending_ is non-zero) and
     * cuts the reader's read short with interruptReads().
     */
    std::unique_lock<std::mutex> lockControl();

    /**
     * Feed the stream's residual bytes to the parser until the link
     * stays quiet for a whole drain window, then flush the parser
     * (streaming must be stopped).
     */
    void drainStream();

    /** Read exactly n control bytes (streaming must be paused). */
    std::vector<std::uint8_t> readControl(std::size_t n,
                                          double timeout_seconds);

    /** Send one command byte (plus payload) on the control path. */
    void sendBytes(const std::vector<std::uint8_t> &bytes);
};

} // namespace ps3::host

#endif // PS3_HOST_POWER_SENSOR_HPP
