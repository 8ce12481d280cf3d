#include "trace.hpp"

#include <algorithm>

#include "measure.hpp"

namespace e2e {

SpanLog::SpanLog(std::string layer, std::size_t keep)
    : layer_(std::move(layer)), keep_(keep)
{
    kept_.reserve(keep_);
}

void
SpanLog::setWindow(std::int64_t start_ns, std::int64_t end_ns)
{
    windowEnd_.store(end_ns, std::memory_order_relaxed);
    windowStart_.store(start_ns, std::memory_order_relaxed);
}

bool
SpanLog::inWindow(std::int64_t start_ns) const
{
    return start_ns >= windowStart_.load(std::memory_order_relaxed)
           && start_ns < windowEnd_.load(std::memory_order_relaxed);
}

void
SpanLog::add(const Span &span)
{
    if (!inWindow(span.startNs))
        return;
    ++count_;
    if (span.cpuNs >= 0)
        cpuNs_ += span.cpuNs;
    durations_.push_back(static_cast<float>(span.endNs - span.startNs));
    if (kept_.size() < keep_)
        kept_.push_back(span);
}

double
SpanLog::medianNs() const
{
    if (durations_.empty())
        return 0.0;
    std::vector<double> sorted(durations_.begin(), durations_.end());
    std::sort(sorted.begin(), sorted.end());
    return percentileSorted(sorted, 0.5);
}

void
SpanLog::writeCsv(std::ostream &out) const
{
    for (const auto &s : kept_) {
        out << layer_ << ',' << s.startNs << ',' << s.endNs << ','
            << s.cpuNs << ',' << s.recordId << ',' << s.items << '\n';
    }
}

TimedDevice::TimedDevice(ps3::transport::CharDevice &inner,
                         SpanLog &log)
    : inner_(inner), log_(log)
{
}

std::size_t
TimedDevice::read(std::uint8_t *buffer, std::size_t max_bytes,
                  double timeout_seconds)
{
    Span span;
    span.startNs = nowNs();
    const std::int64_t cpu0 = selfThreadCpuNs();
    const std::size_t got =
        inner_.read(buffer, max_bytes, timeout_seconds);
    span.cpuNs = selfThreadCpuNs() - cpu0;
    span.endNs = nowNs();
    span.items = got;
    log_.add(span);
    return got;
}

void
TimedDevice::write(const std::uint8_t *data, std::size_t size)
{
    inner_.write(data, size);
}

bool
TimedDevice::closed() const
{
    return inner_.closed();
}

void
TimedDevice::interruptReads()
{
    inner_.interruptReads();
}

} // namespace e2e
