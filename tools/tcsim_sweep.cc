/**
 * @file
 * tcsim_sweep: the sweep runner and pull worker.
 *
 * One binary, three modes over the same deterministically enumerated
 * (benchmark, configuration) work-unit matrix:
 *
 *   tcsim_sweep --list
 *       Print every work unit (index, content hash, id) plus the
 *       matrix hash, without simulating.
 *
 *   tcsim_sweep [--out <file>]
 *       Single-process mode: simulate the whole matrix in-process and
 *       write the canonical tcsim-bench-results-v1 document. Byte-
 *       identical to a scheduled run of the same matrix.
 *
 *   tcsim_sweep --pull <url>
 *       Pulled worker mode: lease units from a tcsim_sched at
 *       http://host:port (matrix flags must match the scheduler's —
 *       the lease handshake verifies the matrix hash), execute each
 *       under a renewed lease, and POST the fragment back, so
 *       fragments need no shared filesystem; artifacts are cached in
 *       the worker's own TCSIM_CACHE_DIR. Requires TCSIM_FARM_TOKEN.
 *       run_benches.sh --sweep N starts a scheduler plus N of these.
 *
 * Matrix options (must match between workers and the scheduler;
 * parsed by the shared tools/matrix_args.h, so tcsim_sweep and
 * tcsim_sched cannot drift):
 *   --benchmarks a,b,c   subset of the suite (default: all)
 *   --configs x,y        preset names (default: icache, baseline,
 *                        promotion-t64, packing-unregulated,
 *                        promo-pack-unregulated)
 *   --insts <n>          per-unit budget (default: profile default)
 *   --insts-for sel=n    per-unit budget overrides ("bench" or
 *                        "bench@config"); skews the matrix
 *   --warmup <n>         predictor warm-up instructions; warmed
 *                        predictor state is cached and imported into a
 *                        fresh processor (0 = cold start)
 *   --sampled-interval n SimPoint-style sampled execution: BBV
 *   --sampled-max-k k    interval length (must divide --insts) and the
 *                        k-means cluster-count cap. Both must be given
 *                        together; they add a "@sampled-..." suffix to
 *                        every unit id and fold into the unit hashes.
 *   --replay             drive each unit's front end from a recorded
 *                        tcsim-btrace-v1 control-flow trace instead of
 *                        cycle simulation. The trace is recorded once
 *                        per (benchmark, insts) and cached as a
 *                        "btrace" artifact shared by every config;
 *                        unit ids gain an "@replay" suffix and hashes
 *                        fold the btrace format version. Only
 *                        front-end stats (mispredicts, trace-cache and
 *                        icache activity) are meaningful; cycles stay
 *                        zero. Excludes --warmup and sampled mode.
 *
 * Sampling-error report (single-process only):
 *   --error-out <file>   run the matrix both sampled and full, write
 *                        the tcsim-sampling-error-v1 comparison
 *   --error-tolerance f  per-unit IPC / fetch-rate relative-error
 *                        bound (default 0.05); exit 4 when any unit
 *                        exceeds it
 *   --mispredict-tolerance f
 *                        per-unit mispredict-rate ABSOLUTE error bound
 *                        (default 0.08, i.e. 8 percentage points —
 *                        per-region predictor warm-up bias shifts the
 *                        sampled rate by a few points regardless of
 *                        the base rate, so a relative bound diverges
 *                        at long budgets where the rate is smallest)
 *
 * Artifact cache:
 *   --cache-dir <dir>    content-addressed cache for program images
 *                        and warmed predictor checkpoints (also via
 *                        TCSIM_CACHE_DIR)
 *   --no-cache           disable the cache even if the env var is set
 *
 * Diagnostics / testing:
 *   --timing-out <file>  non-canonical timing+cache-stats JSON
 *                        (tcsim-bench-timing-v1)
 *   --worker <name>      pulled worker's name (default pid<N>)
 *   --die-mid-unit <k>   pulled worker raises SIGKILL right after
 *                        acquiring its k-th lease, BEFORE executing —
 *                        the lease is left dangling, exercising lease
 *                        expiry and re-dispatch
 *   --inject-slow-ms <n> pulled worker sleeps n ms after executing
 *                        each unit (lease kept renewed) — makes it a
 *                        straggler, exercising speculative re-dispatch
 */

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/artifact_cache.h"
#include "bench/sched.h"
#include "bench/sweep.h"
#include "common/atomic_file.h"
#include "common/json.h"
#include "obs/http.h"
#include "tools/matrix_args.h"

namespace
{

using namespace tcsim;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--list | --pull url] [--out f] "
                 "[--benchmarks a,b] [--configs x,y]\n"
                 "  [--insts n] [--insts-for sel=n] [--warmup n] "
                 "[--cache-dir d] [--no-cache]\n"
                 "  [--sampled-interval n --sampled-max-k k] [--replay]\n"
                 "  [--error-out f] [--error-tolerance f] "
                 "[--mispredict-tolerance f]\n"
                 "  [--timing-out f] [--worker name] "
                 "[--die-mid-unit k] [--inject-slow-ms n]\n",
                 argv0);
    std::exit(1);
}

struct TimedUnit
{
    const bench::WorkUnit *unit = nullptr;
    double wallSeconds = 0.0;
};

void
writeTimingDoc(const std::string &path,
               const std::vector<TimedUnit> &timed, double total_seconds)
{
    const bench::ArtifactCacheStats cache =
        bench::ArtifactCache::process().stats();
    std::string out = "{\n";
    out += "  \"schema\": \"tcsim-bench-timing-v1\",\n";
    out += "  \"total_wall_seconds\": " +
           std::to_string(total_seconds) + ",\n";
    out += "  \"cache\": {\n";
    out += "    \"enabled\": ";
    out += bench::ArtifactCache::process().enabled() ? "true" : "false";
    out += ",\n";
    out += "    \"hits\": " + std::to_string(cache.hits) + ",\n";
    out += "    \"misses\": " + std::to_string(cache.misses) + ",\n";
    out += "    \"stores\": " + std::to_string(cache.stores) + ",\n";
    out += "    \"rejected\": " + std::to_string(cache.rejected) + "\n";
    out += "  },\n";
    out += "  \"units\": [\n";
    for (std::size_t i = 0; i < timed.size(); ++i) {
        out += "    {\"id\": \"" + timed[i].unit->id + "\", ";
        out += "\"hash\": \"" + timed[i].unit->hash + "\", ";
        out += "\"wall_seconds\": " +
               std::to_string(timed[i].wallSeconds) + "}";
        out += i + 1 < timed.size() ? ",\n" : "\n";
    }
    out += "  ]\n";
    out += "}\n";
    if (!writeFileAtomic(path, out))
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
}

/**
 * One scheduler round trip with transport retries: the scheduler may
 * briefly be unreachable (starting up, momentary accept backlog)
 * without that costing the worker its whole run.
 */
std::optional<obs::HttpResult>
schedRequest(const std::string &host, std::uint16_t port,
             const std::string &path, const std::string &token,
             std::string_view body = {})
{
    for (int attempt = 0; attempt < 50; ++attempt) {
        if (auto result =
                obs::httpRequest(host, port, "POST", path, token, body))
            return result;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    return std::nullopt;
}

/**
 * Pulled worker: lease units from a tcsim_sched until it says done.
 * Leases and fragments (POST /complete) both flow over the
 * scheduler's endpoint.
 */
int
runPullWorker(const std::string &url,
              const std::vector<bench::WorkUnit> &units,
              const std::string &worker, long die_mid_unit,
              long inject_slow_ms)
{
    std::string host;
    std::uint16_t port = 0;
    if (!obs::parseHttpUrl(url, host, port)) {
        std::fprintf(stderr, "--pull: bad url '%s'\n", url.c_str());
        return 1;
    }
    const std::string token = bench::farmToken();
    if (token.empty()) {
        std::fprintf(stderr, "--pull needs TCSIM_FARM_TOKEN\n");
        return 1;
    }
    const std::string matrix_hash = bench::matrixHash(units);

    using Clock = std::chrono::steady_clock;
    long leased = 0;
    bool contacted = false;
    // The scheduler exits the moment the last unit lands, so a worker
    // that loses a straggler race can find it gone mid-conversation.
    // Once we have spoken to it successfully, "unreachable" means the
    // sweep is over, not that we failed.
    const auto schedulerGone = [&]() -> int {
        if (!contacted) {
            std::fprintf(stderr, "worker %s: scheduler unreachable\n",
                         worker.c_str());
            return 1;
        }
        std::fprintf(stderr, "worker %s: scheduler gone; sweep "
                             "finished without us\n",
                     worker.c_str());
        return 0;
    };
    for (;;) {
        const auto lease = schedRequest(
            host, port, "/lease?worker=" + worker, token);
        if (!lease)
            return schedulerGone();
        if (lease->status != 200) {
            std::fprintf(stderr, "worker %s: lease refused (%d)\n",
                         worker.c_str(), lease->status);
            return 1;
        }
        contacted = true;
        const std::optional<json::Value> doc = json::parse(lease->body);
        if (!doc || !doc->isObject() ||
            doc->getString("schema") != "tcsim-sched-lease-v1") {
            std::fprintf(stderr, "worker %s: bad lease response\n",
                         worker.c_str());
            return 1;
        }
        if (doc->getString("matrix_hash") != matrix_hash) {
            // The scheduler enumerates a different matrix than our
            // flags do — completing anything would poison the merge.
            std::fprintf(stderr,
                         "worker %s: matrix mismatch (ours %s, "
                         "scheduler %s)\n",
                         worker.c_str(), matrix_hash.c_str(),
                         doc->getString("matrix_hash").c_str());
            return 1;
        }
        const std::string status = doc->getString("status");
        if (status == "done")
            break;
        if (status == "wait") {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
            continue;
        }
        const std::string hash = doc->getString("hash");
        const double renew_seconds =
            std::max(0.05, doc->getDouble("renew_seconds"));
        const bench::WorkUnit *unit = nullptr;
        for (const bench::WorkUnit &candidate : units) {
            if (candidate.hash == hash) {
                unit = &candidate;
                break;
            }
        }
        if (unit == nullptr) {
            std::fprintf(stderr, "worker %s: leased unknown hash %s\n",
                         worker.c_str(), hash.c_str());
            return 1;
        }

        ++leased;
        if (die_mid_unit >= 0 && leased >= die_mid_unit) {
            // Chaos injection: die holding the lease, before any work
            // lands — the scheduler must expire and re-dispatch it.
            std::fprintf(stderr,
                         "worker %s: --die-mid-unit %ld: raising "
                         "SIGKILL holding %s\n",
                         worker.c_str(), die_mid_unit, hash.c_str());
            raise(SIGKILL);
        }

        std::fprintf(stderr, "worker %s: leased %s\n", worker.c_str(),
                     unit->id.c_str());

        // Renew from a side thread for the whole execution, so a slow
        // (or deliberately slowed) unit keeps its lease and becomes a
        // straggler rather than an expiry.
        std::mutex renew_mutex;
        std::condition_variable renew_wake;
        bool renew_stop = false;
        std::thread renewer([&] {
            std::unique_lock<std::mutex> lock(renew_mutex);
            const auto interval =
                std::chrono::duration<double>(renew_seconds);
            while (!renew_wake.wait_for(lock, interval,
                                        [&] { return renew_stop; })) {
                lock.unlock();
                schedRequest(host, port,
                             "/renew?worker=" + worker + "&hash=" + hash,
                             token);
                lock.lock();
            }
        });

        const bench::ArtifactCacheStats before =
            bench::ArtifactCache::process().stats();
        const Clock::time_point start = Clock::now();
        const bench::ResultIntegers n =
            bench::executeUnitIntegers(*unit);
        if (inject_slow_ms > 0) {
            // Chaos injection: stay leased but slow, so the scheduler
            // classifies this unit a straggler and re-dispatches it.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(inject_slow_ms));
        }
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        const bench::ArtifactCacheStats after =
            bench::ArtifactCache::process().stats();

        bench::UnitTiming timing;
        timing.wallSeconds = seconds;
        timing.cacheHits = after.hits - before.hits;
        timing.cacheMisses = after.misses - before.misses;
        const std::string fragment =
            bench::renderFragment(*unit, n, timing);

        {
            std::lock_guard<std::mutex> lock(renew_mutex);
            renew_stop = true;
        }
        renew_wake.notify_all();
        renewer.join();

        const auto delivered = schedRequest(
            host, port, "/complete?worker=" + worker + "&hash=" + hash,
            token, fragment);
        if (!delivered)
            return schedulerGone();
        if (delivered->status != 200) {
            std::fprintf(stderr,
                         "worker %s: could not deliver %s (%d)\n",
                         worker.c_str(), unit->id.c_str(),
                         delivered->status);
            return 1;
        }
    }
    std::fprintf(stderr, "worker %s: scheduler reports done\n",
                 worker.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool list = false;
    std::string out_path, timing_out, error_out, pull_url, worker_name;
    double error_tolerance = 0.05;
    double mispredict_tolerance = 0.08;
    long die_mid_unit = -1, inject_slow_ms = 0;
    bool no_cache = false;
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
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--pull") {
            pull_url = next();
        } else if (arg == "--worker") {
            worker_name = next();
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--error-out") {
            error_out = next();
        } else if (arg == "--error-tolerance") {
            error_tolerance = std::strtod(next(), nullptr);
        } else if (arg == "--mispredict-tolerance") {
            mispredict_tolerance = std::strtod(next(), nullptr);
        } else if (arg == "--cache-dir") {
            setenv("TCSIM_CACHE_DIR", next(), 1);
        } else if (arg == "--no-cache") {
            no_cache = true;
        } else if (arg == "--timing-out") {
            timing_out = next();
        } else if (arg == "--die-mid-unit") {
            die_mid_unit = std::strtol(next(), nullptr, 10);
        } else if (arg == "--inject-slow-ms") {
            inject_slow_ms = std::strtol(next(), nullptr, 10);
        } else {
            usage(argv[0]);
        }
    }
    if (no_cache)
        unsetenv("TCSIM_CACHE_DIR");
    if (!matrix.finalize())
        return 1;
    bench::SweepOptions &options = matrix.options;

    if (!error_out.empty() && !options.sampled.enabled) {
        std::fprintf(stderr, "--error-out needs --sampled-interval / "
                             "--sampled-max-k\n");
        return 1;
    }

    const std::vector<bench::WorkUnit> units =
        bench::enumerateUnits(options);

    if (!pull_url.empty()) {
        if (worker_name.empty())
            worker_name = "pid" + std::to_string(getpid());
        return runPullWorker(pull_url, units, worker_name, die_mid_unit,
                             inject_slow_ms);
    }

    if (list) {
        std::printf("matrix %s (%zu units)\n",
                    bench::matrixHash(units).c_str(), units.size());
        for (const bench::WorkUnit &unit : units)
            std::printf("%4u  %s  %s\n", unit.index, unit.hash.c_str(),
                        unit.id.c_str());
        return 0;
    }

    if (!error_out.empty()) {
        // Calibration mode: run the matrix both sampled and full and
        // report per-unit relative error plus the speedup.
        bool all_within = false;
        const std::string report = bench::samplingErrorReport(
            options, error_tolerance, mispredict_tolerance,
            &all_within);
        if (!writeFileAtomic(error_out, report)) {
            std::fprintf(stderr, "cannot write %s\n", error_out.c_str());
            return 3;
        }
        if (!all_within) {
            std::fprintf(stderr,
                         "sampling error exceeds tolerance %.3f "
                         "(mispredict %.3f)\n",
                         error_tolerance, mispredict_tolerance);
            return 4;
        }
        return 0;
    }

    // Single-process mode: the whole matrix, in enumeration order.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point run_start = Clock::now();
    std::vector<bench::ResultIntegers> integers;
    std::vector<TimedUnit> timed;
    for (const bench::WorkUnit &unit : units) {
        std::fprintf(stderr, "[%zu/%zu] %s\n", timed.size() + 1,
                     units.size(), unit.id.c_str());
        const Clock::time_point start = Clock::now();
        integers.push_back(bench::executeUnitIntegers(unit));
        timed.push_back(
            {&unit,
             std::chrono::duration<double>(Clock::now() - start).count()});
    }
    const double total_seconds =
        std::chrono::duration<double>(Clock::now() - run_start).count();

    if (!out_path.empty()) {
        const std::string doc = bench::renderResultsDoc(units, integers);
        if (!writeFileAtomic(out_path, doc)) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 3;
        }
    }
    if (!timing_out.empty())
        writeTimingDoc(timing_out, timed, total_seconds);

    const bench::ArtifactCacheStats cache =
        bench::ArtifactCache::process().stats();
    std::fprintf(stderr,
                 "done: %zu units in %.2fs (cache: %llu hits, %llu "
                 "misses, %llu stores, %llu rejected)\n",
                 timed.size(), total_seconds,
                 static_cast<unsigned long long>(cache.hits),
                 static_cast<unsigned long long>(cache.misses),
                 static_cast<unsigned long long>(cache.stores),
                 static_cast<unsigned long long>(cache.rejected));
    return 0;
}
