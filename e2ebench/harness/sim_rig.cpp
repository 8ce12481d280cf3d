/**
 * @file
 * Workload `sim-rig`: the paper's Fig. 6 GPU node (RTX 4000 Ada,
 * three sensor modules) running a seeded kernel schedule, read
 * unthrottled by an in-process PowerSensor. One waiter asks for
 * 586 frame sets (29.3 ms of device time) at a time (closed loop).
 * Firmware and analog synthesis do most of the work; the network
 * stack does none.
 */
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>

#include "analog/error_budget.hpp"
#include "analog/sensor_module_spec.hpp"
#include "host/sim_setup.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace ps3;

/**
 * One closed-loop request: 586 frame sets (29.3 ms of device time),
 * the sets the firmware emulation produces per read() on this rig
 * (an 8192-byte produce chunk of 14-byte, 3-pair sets). Requests of
 * one burst each take one burst period; any other size mixes one-
 * and two-burst waits and its percentiles jump between the two.
 */
constexpr std::uint64_t kSetsPerRequest = 586;

/**
 * Device time the kernel schedule covers: a 60-s run at 30x real
 * time, three times the speed this rig reaches on a 4-core x86-64
 * box. Fixed, so setup work does not depend on --seconds.
 */
constexpr double kScheduleHorizon = 1800.0;

/** Rig + (optional) timing decorator + sensor, torn down in order. */
struct Session
{
    host::SimulatedRig rig;
    std::unique_ptr<SpanLog> readLog;
    std::unique_ptr<TimedDevice> timed;
    std::unique_ptr<host::PowerSensor> sensor;
    pid_t readerTid = 0;
};

/**
 * A seeded repeating schedule: eight kernel shapes (gap, duration,
 * sustained power, phase count) in a seeded order, replayed until
 * kScheduleHorizon. The seed picks the order, not the shapes, so
 * every seed asks the model for the same mix of work. The kernels
 * are exactly those launchKernel() would queue; setProgram() takes
 * them at once, where launchKernel() copies the program per call.
 */
void
scheduleKernels(dut::GpuDutModel &gpu, std::uint64_t seed)
{
    struct Shape
    {
        double gap, duration, power;
        unsigned phases;
    };
    Shape pattern[8];
    for (unsigned i = 0; i < 8; ++i)
        pattern[i] = {0.05 + 0.05 * i, 0.1 + 0.1 * ((i * 5) % 8),
                      90.0 + 5.0 * ((i * 3) % 8), i % 5};
    for (unsigned i = 7; i > 0; --i)
        std::swap(pattern[i], pattern[mix64(seed * 8 + i) % (i + 1)]);
    std::vector<dut::KernelSchedule> program;
    double t = 0.0;
    for (unsigned k = 0; t < kScheduleHorizon; ++k) {
        const Shape &s = pattern[k % 8];
        t += s.gap;
        program.push_back({t, s.duration, s.power, s.phases});
        t += s.duration;
    }
    gpu.setProgram(std::move(program));
}

std::unique_ptr<Session>
setUp(const RunSpec &spec)
{
    auto session = std::make_unique<Session>();
    host::rigs::RigOptions options;
    options.seed = spec.seed;
    session->rig =
        host::rigs::gpuRig(dut::GpuSpec::rtx4000Ada(), options);
    scheduleKernels(*session->rig.gpu, spec.seed);
    transport::CharDevice *device = session->rig.port.get();
    if (spec.traced) {
        session->readLog =
            std::make_unique<SpanLog>("firmware.read", 20000);
        session->timed = std::make_unique<TimedDevice>(
            *session->rig.port, *session->readLog);
        device = session->timed.get();
    }
    const auto before = listTids();
    session->sensor = std::make_unique<host::PowerSensor>(*device);
    session->readerTid =
        singleNewTid(before, listTids(), "PowerSensor");
    return session;
}

/** Right-rectangle integral of the DUT's true power over the samples
 *  after `t0`, exactly as State integrates the measured power. */
double
trueEnergy(dut::Dut &dut, double t0, std::uint64_t samples)
{
    constexpr double dt = 50e-6;
    double energy = 0.0;
    for (std::uint64_t i = 1; i <= samples; ++i)
        energy += dut.truePower(t0 + static_cast<double>(i) * dt) * dt;
    return energy;
}

double
totalEnergy(const host::State &state)
{
    double sum = 0.0;
    for (unsigned p = 0; p < host::kMaxPairs; ++p)
        sum += state.consumedEnergy[p];
    return sum;
}

} // namespace

RunResult
runSimRig(const RunSpec &spec)
{
    RunResult result;

    std::vector<double> setups;
    std::unique_ptr<Session> session;
    for (int trial = 0; trial < kSetupTrials; ++trial) {
        session.reset();
        const std::int64_t t0 = nowNs();
        session = setUp(spec);
        if (!session->sensor->waitForSamples(1))
            throw std::runtime_error("sim-rig: device gone at setup");
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    host::PowerSensor &sensor = *session->sensor;

    // ----- measured window, marked at every slice boundary ----------
    const std::int64_t slices = sliceCount(spec.seconds);
    struct Mark
    {
        std::int64_t t = 0;
        std::int64_t processCpu = 0;
        std::int64_t readerCpu = 0;
        std::int64_t speedCpu = 0;
        std::int64_t requestNs = 0;
        std::int64_t requestRefNs = 0;
        CpuTicks ticks;
        host::State state;
    };
    RequestSpeed speed;
    auto take_mark = [&] {
        Mark m;
        m.t = nowNs();
        m.processCpu = processCpuNs();
        m.readerCpu = threadCpuNs(session->readerTid);
        m.speedCpu = speed.spentNs();
        m.requestNs = speed.measuredNs();
        m.requestRefNs = speed.referenceNs();
        m.ticks = readCpuTicks();
        m.state = sensor.read();
        return m;
    };
    obs::Snapshot obs0;
    std::vector<Mark> marks;
    std::optional<SliceSeries> series;
    std::optional<SliceSeries> ref_series;
    // The reader and this waiter share one CPU from the warm-up on, so
    // the reference chunks run on the CPU the firmware runs on.
    onSharedCpu({session->readerTid}, [&] {
        const std::int64_t warm_end = nowNs() + kWarmupNs;
        while (nowNs() < warm_end)
            sensor.waitForSamples(kSetsPerRequest);
        obs0 = obs::Registry::global().snapshot();
        marks.push_back(take_mark());
        const std::int64_t start = marks.front().t;
        const std::int64_t end_target = start + slices * kSliceNs;
        if (session->readLog)
            session->readLog->setWindow(start, end_target);
        series.emplace(start, end_target, kSliceNs);
        ref_series.emplace(start, end_target, kSliceNs);
        std::int64_t now = start;
        speed.begin();
        while (now < end_target) {
            const std::int64_t t = nowNs();
            if (!sensor.waitForSamples(kSetsPerRequest))
                throw std::runtime_error("sim-rig: device gone mid-run");
            now = nowNs();
            const auto ns = static_cast<double>(now - t);
            series->add(t, ns * 1e-3);
            ref_series->add(t, speed.finish(ns) * 1e-3);
            if (now >= start
                           + static_cast<std::int64_t>(marks.size())
                                 * kSliceNs)
                marks.push_back(take_mark());
        }
    });
    SliceSeries &request_us = *series;
    const auto obs1 = obs::Registry::global().snapshot();
    const Mark &m0 = marks.front();
    const Mark &m1 = marks.back();
    const host::State &s0 = m0.state;
    const host::State &s1 = m1.state;
    const std::uint64_t resync = sensor.resyncByteCount();

    // Stop the reader before reading its span log.
    session->sensor.reset();

    // ----- checks -----------------------------------------------------
    const std::uint64_t sets = s1.sampleCount - s0.sampleCount;
    const double device_span = s1.timeAtRead - s0.timeAtRead;
    const auto expected_sets =
        static_cast<std::uint64_t>(std::llround(device_span / 50e-6));
    const auto delta = obs::diff(obs0, obs1);
    const double dropped_sets =
        counterValue(delta, "ps3_parser_dropped_sets_total")
        + counterValue(delta, "ps3_parser_partial_sets_total");
    result.attempted = expected_sets;
    result.failed = expected_sets > sets ? expected_sets - sets : 0;
    if (sets != expected_sets)
        result.fail("sim-rig: " + std::to_string(sets)
                    + " frame sets over " + std::to_string(expected_sets)
                    + " sample periods of device time");
    if (dropped_sets != 0.0)
        result.fail("sim-rig: parser dropped or cut "
                    + formatNumber(dropped_sets) + " frame sets");
    if (resync != 0)
        result.fail("sim-rig: " + std::to_string(resync)
                    + " resync bytes");

    const double measured = totalEnergy(s1) - totalEnergy(s0);
    const double truth = trueEnergy(*session->rig.dut, s0.timeAtRead, sets);
    const double budget_watts =
        analog::computeErrorBudget(analog::modules::slot3V3_10A())
            .powerError
        + analog::computeErrorBudget(analog::modules::slot12V10A())
              .powerError
        + analog::computeErrorBudget(analog::modules::pcie8pin20A())
              .powerError;
    const double budget = budget_watts * device_span;
    std::ostringstream energy_note;
    energy_note << "sim-rig energy: measured " << measured
                << " J, true " << truth << " J, error "
                << measured - truth << " J, Table I budget " << budget
                << " J over " << device_span << " s device time";
    result.notes.push_back(energy_note.str());
    if (!(std::abs(measured - truth) <= budget) || truth <= 0.0)
        result.fail(energy_note.str());

    // ----- metrics ----------------------------------------------------
    WindowFigures window;
    window.latencyUs = &*ref_series;
    window.bounds.push_back(m0.t);
    for (std::size_t i = 1; i < marks.size(); ++i) {
        window.bounds.push_back(marks[i].t);
        window.stealPct.push_back(
            stealPct(marks[i - 1].ticks, marks[i].ticks));
        const double n = static_cast<double>(
            marks[i].state.sampleCount - marks[i - 1].state.sampleCount);
        window.cpuPerRecord.push_back(perRecord(
            static_cast<double>(
                (marks[i].processCpu - marks[i - 1].processCpu)
                - (marks[i].speedCpu - marks[i - 1].speedCpu)),
            n));
        window.rate.push_back(
            n * 1e9 / static_cast<double>(marks[i].t - marks[i - 1].t));
        window.speedFactors.push_back(speedFactor(
            marks[i - 1].requestNs, marks[i - 1].requestRefNs,
            marks[i].requestNs, marks[i].requestRefNs));
    }
    const auto latency = request_us.overall();
    const double cpu = static_cast<double>(
        (m1.processCpu - m0.processCpu) - (m1.speedCpu - m0.speedCpu));
    reportSetups(result, setups);
    std::ostringstream lat_note;
    lat_note << "sim-rig requests of " << kSetsPerRequest
             << " sets over the window: n=" << latency.count
             << " p50=" << latency.p50 << " p90=" << latency.p90
             << " p99="
             << (latency.p99Reportable ? formatNumber(latency.p99)
                                       : std::string("n/a"))
             << " max=" << latency.max << " us; "
             << formatNumber(static_cast<double>(sets) * 1e9
                             / static_cast<double>(m1.t - m0.t))
             << " sets/s over the window; CPU steal "
             << stealPct(m0.ticks, m1.ticks) << " %";
    result.notes.push_back(lat_note.str());
    reportWindow(result, std::move(window));

    if (spec.traced) {
        const double n = static_cast<double>(sets);
        const double reader =
            static_cast<double>(m1.readerCpu - m0.readerCpu);
        const auto [cb_sum, cb_count] =
            histogramSumCount(delta, "ps3_reader_callback_ns");
        const double read_cpu =
            static_cast<double>(session->readLog->cpuNs());
        result.set("firmware.read_ns_per_set", perRecord(read_cpu, n),
                   "ns");
        result.set("host.reader_cpu_ns_per_set", perRecord(reader, n),
                   "ns");
        result.set("host.parse_ns_per_set",
                   perRecord(reader - read_cpu - cb_sum, n), "ns");
        result.set("host.on_frame_set_ns_p50",
                   histogramMedian(histogramBuckets(
                       delta, "ps3_reader_callback_ns")),
                   "ns");
        result.set("health.cpu_steal_pct", stealPct(m0.ticks, m1.ticks),
                   "%");
        result.set("trace.cpu_ns_per_record", perRecord(cpu, n), "ns");
        result.set("trace.unattributed_cpu_ns_per_record",
                   perRecord(cpu - reader, n), "ns");
        result.notes.push_back(
            "sim-rig trace: " + std::to_string(session->readLog->count())
            + " read() spans, "
            + std::to_string(static_cast<std::uint64_t>(cb_count))
            + " callbacks in the window");
        writeSpans(spec, {session->readLog.get()});
    }
    return result;
}

} // namespace e2e
