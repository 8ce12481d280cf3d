/**
 * @file
 * The traced run's instruments, all owned by the benchmark and all
 * outside the program: spans recorded around calls into a layer's
 * public functions, and a CharDevice decorator that times every
 * read() the PowerSensor reader makes.
 *
 * A SpanLog has one writer thread and counts only spans that start
 * inside the measured window. It keeps aggregates for them (count,
 * CPU time where measured, durations for percentiles) and
 * the first `keep` verbatim, which writeCsv() writes out when the
 * run ends. Read a log only after its writer thread has been joined.
 */
#ifndef E2EBENCH_TRACE_HPP
#define E2EBENCH_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "transport/char_device.hpp"

namespace e2e {

/** One timed call into a layer. */
struct Span
{
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Thread CPU spent inside the call, or -1 when not measured. */
    std::int64_t cpuNs = -1;
    /**
     * The record the call served (set index, fleet tick * sensors +
     * sensor, or -1 when a call moves bytes of no single record).
     */
    std::int64_t recordId = -1;
    /** Records or bytes the call moved. */
    std::uint64_t items = 0;
};

/** Single-writer span recorder for one layer boundary. */
class SpanLog
{
  public:
    SpanLog(std::string layer, std::size_t keep);

    /** Count spans starting in [start_ns, end_ns) from now on. */
    void setWindow(std::int64_t start_ns, std::int64_t end_ns);

    /** True when a span starting at `start_ns` would be counted. */
    bool inWindow(std::int64_t start_ns) const;

    void add(const Span &span);

    std::uint64_t count() const { return count_; }
    /** Thread CPU summed over the spans that measured it. */
    std::int64_t cpuNs() const { return cpuNs_; }

    /** Median span duration (ns); 0 when empty. */
    double medianNs() const;

    /** "layer,start_ns,end_ns,cpu_ns,record_id,items" rows. */
    void writeCsv(std::ostream &out) const;

  private:
    std::string layer_;
    std::size_t keep_;
    std::atomic<std::int64_t> windowStart_{INT64_MAX};
    std::atomic<std::int64_t> windowEnd_{INT64_MAX};
    std::vector<Span> kept_;
    std::vector<float> durations_;
    std::uint64_t count_ = 0;
    std::int64_t cpuNs_ = 0;
};

/**
 * CharDevice decorator that records a span (wall and thread CPU)
 * around every read() of the device it wraps; every other call is
 * forwarded untimed. Only the PowerSensor reader thread reads, so
 * the log has a single writer.
 */
class TimedDevice : public ps3::transport::CharDevice
{
  public:
    TimedDevice(ps3::transport::CharDevice &inner, SpanLog &log);

    std::size_t read(std::uint8_t *buffer, std::size_t max_bytes,
                     double timeout_seconds) override;
    void write(const std::uint8_t *data, std::size_t size) override;
    bool closed() const override;
    void interruptReads() override;

  private:
    ps3::transport::CharDevice &inner_;
    SpanLog &log_;
};

} // namespace e2e

#endif // E2EBENCH_TRACE_HPP
