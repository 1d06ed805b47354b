/**
 * @file
 * tcsim_sched: the sweep scheduler, the one multi-process way to run a
 * sweep (run_benches.sh --sweep N starts it plus N local pull workers).
 *
 * Serves the scheduler's authenticated HTTP routes (bench/sched.h
 * SchedServer): the lease protocol driven by `tcsim_sweep --pull`
 * workers, who pull work and push result fragments (POST /complete)
 * through one URL, plus /status and /partial. The scheduler persists
 * every fragment it accepts into its --fragments-dir store.
 *
 * The scheduler exits once every unit of the matrix has a result,
 * after writing the canonical results document — rendered by the same
 * shared renderer as the single-process path, hence byte-identical.
 * Resume is crash-safe: on startup, valid fragments already in the
 * store mark their units completed and only the holes are dispatched.
 *
 * Matrix flags are shared with tcsim_sweep (see tools/matrix_args.h);
 * scheduler flags:
 *   --fragments-dir d     fragment store directory (required)
 *   --out f               final canonical results document (required)
 *   --bind a              bind address (default 127.0.0.1)
 *   --port n              TCP port (default 0 = ephemeral)
 *   --port-file f         write the bound port (for launchers)
 *   --lease-timeout sec   unrenewed-lease expiry (default 120)
 *   --straggler-k f       re-dispatch past k x median (default 3)
 *   --min-median-samples n  completions before the median is trusted
 *   --partial-out f       rolling partial document (rewritten live)
 *   --status-out f        status document (rewritten live + at exit)
 *   --max-seconds sec     abort (exit 5) if not done in time
 *
 * Auth: TCSIM_FARM_TOKEN must be set; workers present the same token.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/sched.h"
#include "bench/store.h"
#include "bench/sweep.h"
#include "common/atomic_file.h"
#include "tools/matrix_args.h"

namespace
{

using namespace tcsim;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --fragments-dir d --out f [--bind a] "
                 "[--port n] [--port-file f]\n"
                 "  [--lease-timeout sec] [--straggler-k f] "
                 "[--min-median-samples n]\n"
                 "  [--partial-out f] [--status-out f] "
                 "[--max-seconds sec]\n"
                 "  [matrix flags: --benchmarks --configs --insts "
                 "--warmup --insts-for\n"
                 "   --sampled-interval --sampled-max-k --replay]\n",
                 argv0);
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string fragments_dir, out_path, partial_out, status_out;
    std::string port_file, bind_addr = "127.0.0.1";
    long port = 0;
    double max_seconds = 0.0;
    bench::SchedOptions sched_options;
    tools::MatrixArgs matrix;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (matrix.consume(arg, next)) {
            continue;
        } else if (arg == "--fragments-dir") {
            fragments_dir = next();
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--bind") {
            bind_addr = next();
        } else if (arg == "--port") {
            port = std::strtol(next(), nullptr, 10);
        } else if (arg == "--port-file") {
            port_file = next();
        } else if (arg == "--lease-timeout") {
            sched_options.leaseTimeoutSeconds =
                std::strtod(next(), nullptr);
        } else if (arg == "--straggler-k") {
            sched_options.stragglerK = std::strtod(next(), nullptr);
        } else if (arg == "--min-median-samples") {
            sched_options.minMedianSamples = static_cast<std::uint32_t>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--partial-out") {
            partial_out = next();
        } else if (arg == "--status-out") {
            status_out = next();
        } else if (arg == "--max-seconds") {
            max_seconds = std::strtod(next(), nullptr);
        } else {
            usage(argv[0]);
        }
    }
    if (fragments_dir.empty() || out_path.empty())
        usage(argv[0]);
    if (!matrix.finalize())
        return 1;

    const std::string token = bench::farmToken();
    if (token.empty()) {
        std::fprintf(stderr,
                     "tcsim_sched: set TCSIM_FARM_TOKEN\n");
        return 1;
    }

    bench::FragmentStore store(fragments_dir);
    bench::SchedServer service(bench::enumerateUnits(matrix.options),
                               sched_options, store);
    const std::size_t units = service.withScheduler(
        [](bench::Scheduler &sched) { return sched.units().size(); });

    obs::HttpServer server;
    if (!server.start(bind_addr, static_cast<std::uint16_t>(port), token,
                      [&service](const obs::HttpRequest &request) {
                          return service.handle(request);
                      })) {
        return 1;
    }
    if (!port_file.empty() &&
        !writeFileAtomic(port_file, std::to_string(server.port()) + "\n")) {
        std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "tcsim_sched: %zu units (matrix %s), %zu resumed, "
                 "serving on %s:%u\n",
                 units, service.matrixHash().c_str(), service.resumed(),
                 bind_addr.c_str(), static_cast<unsigned>(server.port()));

    const double start = bench::schedClock();
    double last_docs = 0.0;
    const auto writeLiveDocs = [&](double now) {
        std::string partial, status;
        service.withScheduler([&](bench::Scheduler &sched) {
            if (!partial_out.empty())
                partial = sched.renderPartial();
            if (!status_out.empty())
                status = sched.renderStatus(now);
        });
        if (!partial.empty())
            (void)writeFileAtomic(partial_out, partial);
        if (!status.empty())
            (void)writeFileAtomic(status_out, status);
    };

    bool timed_out = false;
    for (;;) {
        const double now = bench::schedClock();
        const bool finished =
            service.withScheduler([now](bench::Scheduler &sched) {
                sched.tick(now);
                return sched.done();
            });
        if (finished)
            break;
        if (max_seconds > 0.0 && now - start > max_seconds) {
            timed_out = true;
            break;
        }
        if (now - last_docs >= 1.0) {
            writeLiveDocs(now);
            last_docs = now;
        }
        // Short poll: the loop only ticks leases and watches for
        // done, but its period bounds how stale the exit detection
        // is — and that latency lands directly on the sweep's
        // wall-clock.
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }

    // Final documents, then shut the endpoint down. The status and
    // partial documents are rewritten one last time so post-mortem
    // tooling (validate_obs.py, CI assertions) sees the end state.
    writeLiveDocs(bench::schedClock());
    server.stop();

    // The server thread is joined: the scheduler is ours alone now.
    return service.withScheduler([&](bench::Scheduler &sched) {
        if (timed_out) {
            std::fprintf(stderr,
                         "tcsim_sched: --max-seconds %.1f exceeded "
                         "(%llu/%zu units)\n",
                         max_seconds,
                         static_cast<unsigned long long>(
                             sched.completedUnits()),
                         units);
            return 5;
        }
        if (!writeFileAtomic(out_path, sched.renderResults())) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 3;
        }
        std::fprintf(
            stderr,
            "tcsim_sched: done — %zu units, %llu leases, %llu "
            "expired, %llu redispatched, %llu duplicates\n",
            units, static_cast<unsigned long long>(sched.leasesIssued()),
            static_cast<unsigned long long>(sched.leasesExpired()),
            static_cast<unsigned long long>(sched.redispatches()),
            static_cast<unsigned long long>(sched.duplicates()));
        return 0;
    });
}
