/**
 * @file
 * ps3_e2ebench --workload NAME --seed N --seconds S --trace 0|1
 *              [--work-dir DIR]
 *
 * Untraced (--trace 0): one measured window of S seconds; prints
 * every end-to-end metric. Traced (--trace 1): an untraced window
 * and a traced window of S/2 seconds each; prints every per-layer
 * metric plus trace.overhead_pct, the traced run's change of the
 * workload's headline metric. The last stdout line is the result
 * JSON; the exit code is 1 when an output check failed and 2 on a
 * usage or setup error.
 */
#include <sys/stat.h>

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace e2e;

const char *const kEndToEnd[] = {
    "setup_s",        "frame_sets_per_s",  "latency_p50_us",
    "latency_p90_us", "cpu_ns_per_record",
};

/** Every per-layer metric; a workload that has no such layer
 *  reports 0 (README.md lists which apply where). */
const std::pair<const char *, const char *> kPerLayer[] = {
    {"firmware.read_ns_per_set", "ns"},
    {"transport.read_ns_per_set", "ns"},
    {"host.reader_cpu_ns_per_set", "ns"},
    {"host.parse_ns_per_set", "ns"},
    {"host.on_frame_set_ns_p50", "ns"},
    {"host.ingest_latency_p50_us", "us"},
    {"registry.publish_ns_p50", "ns"},
    {"registry.publish_ns_per_record", "ns"},
    {"server.loop_cpu_ns_per_record", "ns"},
    {"server.wakeups_per_krecord", "1/krecord"},
    {"server.frames_per_krecord", "1/krecord"},
    {"server.bytes_per_record", "B"},
    {"server.tier_buckets", "count"},
    {"server.records_dropped", "count"},
    {"server.credit_stalls", "count"},
    {"client.v1_cpu_ns_per_record", "ns"},
    {"client.v2_cpu_ns_per_record", "ns"},
    {"client.v2_tier_cpu_ns_per_record", "ns"},
    {"client.v2_latency_p50_us", "us"},
    {"net.delivery_latency_p50_us", "us"},
    {"client.gap_records", "count"},
    {"lost_fraction", "1"},
    {"health.cpu_steal_pct", "%"},
    {"trace.cpu_ns_per_record", "ns"},
    {"trace.unattributed_cpu_ns_per_record", "ns"},
    {"trace.overhead_pct", "%"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "ps3_e2ebench: %s\nusage: ps3_e2ebench --workload "
                 "sim-rig|primary-stream|fleet-fanout --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n",
                 why);
    return 2;
}

RunResult
runWorkload(const std::string &name, const RunSpec &spec)
{
    if (name == "sim-rig")
        return runSimRig(spec);
    if (name == "primary-stream")
        return runPrimaryStream(spec);
    return runFleetFanout(spec);
}

/**
 * Tracing overhead on the workload's headline metric: throughput for
 * the rig, CPU per record for the net workloads.
 */
double
overheadPct(const std::string &name, const RunResult &plain,
            const RunResult &traced)
{
    if (name == "sim-rig") {
        const double p = plain.metrics.at("frame_sets_per_s").value;
        const double t = traced.metrics.at("frame_sets_per_s").value;
        return t > 0.0 ? (p / t - 1.0) * 100.0 : 0.0;
    }
    const double p = plain.metrics.at("cpu_ns_per_record").value;
    const double t = traced.metrics.at("cpu_ns_per_record").value;
    return p > 0.0 ? (t / p - 1.0) * 100.0 : 0.0;
}

void
printNotes(const RunResult &r, const char *prefix)
{
    for (const auto &n : r.notes)
        std::cout << prefix << n << '\n';
    for (const auto &p : r.problems)
        std::cout << prefix << "CHECK FAILED: " << p << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string work_dir = ".bench_build/e2ebench/run";
    long long seed = -1;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                workload = value;
            else if (arg == "--seed")
                seed = std::stoll(value);
            else if (arg == "--seconds")
                seconds = std::stod(value);
            else if (arg == "--trace")
                trace = std::stoi(value);
            else if (arg == "--work-dir")
                work_dir = value;
            else
                return usage(("unknown argument " + arg).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (workload != "sim-rig" && workload != "primary-stream"
        && workload != "fleet-fanout")
        return usage("unknown or missing --workload");
    if (seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1))
        return usage("--seed, --seconds and --trace are required");
    // Threads are attributed to layers by diffing the task list, so
    // let any runtime helper thread that starts with the first
    // std::thread (sanitizer runtimes do) appear now.
    std::thread([] {}).join();
    ::mkdir(work_dir.c_str(), 0755);

    RunSpec spec;
    spec.seed = static_cast<std::uint64_t>(seed);
    spec.workDir = work_dir;
    spec.tag = workload + "-" + std::to_string(seed);

    RunResult out;
    try {
        if (trace == 0) {
            spec.seconds = seconds;
            out = runWorkload(workload, spec);
            printNotes(out, "");
            RunResult printed = out;
            printed.metrics.clear();
            for (const char *name : kEndToEnd)
                printed.metrics[name] = out.metrics.at(name);
            out = printed;
        } else {
            spec.seconds = seconds / 2.0;
            spec.pinned = false;
            const RunResult plain = runWorkload(workload, spec);
            printNotes(plain, "[untraced] ");
            spec.traced = true;
            spec.tag += "-traced";
            const RunResult traced = runWorkload(workload, spec);
            printNotes(traced, "[traced] ");
            out = traced;
            out.correct = plain.correct && traced.correct;
            out.attempted = plain.attempted + traced.attempted;
            out.failed = plain.failed + traced.failed;
            out.metrics.clear();
            for (const auto &[name, unit] : kPerLayer) {
                const auto it = traced.metrics.find(name);
                out.metrics[name] = it != traced.metrics.end()
                                        ? it->second
                                        : Metric{0.0, unit};
            }
            out.metrics["trace.overhead_pct"] =
                Metric{overheadPct(workload, plain, traced), "%"};
            std::cout << "untraced end-to-end:";
            for (const char *name : kEndToEnd)
                std::cout << ' ' << name << '='
                          << formatNumber(plain.metrics.at(name).value);
            std::cout << '\n';
        }
    } catch (const std::exception &e) {
        std::cerr << "ps3_e2ebench: " << workload << ": " << e.what()
                  << '\n';
        return 2;
    }
    std::cout << resultJson(out) << std::endl;
    return out.correct ? 0 : 1;
}
