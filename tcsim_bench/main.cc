/**
 * @file
 * tcsim-bench benchmark program. Usage:
 *
 *   tcsim_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *               [--program-seed N] [--work-dir DIR] [--spans-out FILE]
 *
 * Prints the run's metrics with their units, then, as the last line of
 * stdout, one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
 * per-layer metrics of a profiled run and writes its spans to
 * --spans-out. Normally started through run.py, which builds it first.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/log.h"

using namespace tcsim;
using namespace tcsim::bench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "tcsim_bench: %s\nusage: tcsim_bench --workload "
                 "<core-window|core-mispredict|frontend-server> "
                 "[--seed N] [--seconds S] [--trace 0|1] [--program-seed N] "
                 "[--work-dir DIR] [--spans-out FILE]\n",
                 why);
    std::exit(2);
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    if (*text == '\0' || *text == '-')
        return false;
    out = std::strtoull(text, &end, 10);
    return *end == '\0';
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    const WorkloadSpec *spec = nullptr;
    std::string spans_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        std::uint64_t number = 0;
        if (arg == "--workload") {
            spec = findWorkload(value);
            if (spec == nullptr)
                usage("unknown workload");
        } else if (arg == "--seed") {
            if (!parseUnsigned(value, opts.seed))
                usage("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            if (!parseUnsigned(value, number) || number == 0 ||
                number > 3600)
                usage("--seconds takes an integer from 1 to 3600");
            opts.seconds = static_cast<double>(number);
        } else if (arg == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            opts.trace = value[0] == '1';
        } else if (arg == "--program-seed") {
            if (!parseUnsigned(value, number))
                usage("--program-seed takes a non-negative integer");
            opts.programSeed = number;
        } else if (arg == "--work-dir") {
            opts.workDir = value;
        } else if (arg == "--spans-out") {
            spans_out = value;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (spec == nullptr)
        usage("--workload is required");
    opts.spec = *spec;
    setLogLevel(LogLevel::Warn);

    const Report report = runWorkload(opts);

    std::printf("tcsim-bench %s: benchmark %s, program seed 0x%llx, "
                "seed %llu (window starts at inst %llu), %s run, "
                "%u repetitions (%u aborted)\n",
                report.workload.c_str(), report.benchmark.c_str(),
                static_cast<unsigned long long>(report.programSeed),
                static_cast<unsigned long long>(report.seed),
                static_cast<unsigned long long>(report.windowStart),
                opts.trace ? "traced" : "untraced", report.reps,
                report.failedReps);
    std::printf("checks: %llu attempted, %llu failed, failed_frac %.6g\n",
                static_cast<unsigned long long>(report.checksAttempted),
                static_cast<unsigned long long>(report.checksFailed),
                report.checksAttempted
                    ? static_cast<double>(report.checksFailed) /
                          static_cast<double>(report.checksAttempted)
                    : 1.0);
    for (const std::string &failure : report.failures)
        std::printf("  FAILED: %s\n", failure.c_str());
    for (const std::string &note : report.notes)
        std::printf("%s\n", note.c_str());

    if (!opts.trace) {
        std::printf("kinst_us samples: %zu chunks, %zu beyond p90\n",
                    report.chunkSamples, report.chunkSamplesBeyondP90);
        printMetrics("end-to-end metrics (untraced):", report.endToEnd);
    } else {
        printMetrics("per-layer metrics (traced):", report.perLayer);
        const auto self = report.spans.selfNsByLayer();
        std::uint64_t total = 0;
        for (const auto &[layer, ns] : self)
            total += ns;
        std::printf("span self time by layer (%zu spans):\n",
                    report.spans.spans().size());
        for (const auto &[layer, ns] : self)
            std::printf("  %-10s %10.3f s %6.1f%%\n", layer.c_str(),
                        static_cast<double>(ns) / 1e9,
                        total ? 100.0 * static_cast<double>(ns) /
                                    static_cast<double>(total)
                              : 0.0);
        if (!spans_out.empty()) {
            std::FILE *file = std::fopen(spans_out.c_str(), "w");
            if (file == nullptr ||
                std::fputs(report.spans.toJson().c_str(), file) < 0 ||
                std::fclose(file) != 0) {
                std::fprintf(stderr, "tcsim_bench: cannot write %s\n",
                             spans_out.c_str());
                return 1;
            }
            std::printf("spans written to %s\n", spans_out.c_str());
        }
    }
    std::printf("%s\n", resultJson(report, opts.trace).c_str());
    return 0;
}
