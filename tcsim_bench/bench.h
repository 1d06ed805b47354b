/**
 * @file
 * tcsim-bench: host speed of the timing core and the front-end engines,
 * plus the simulated results they produce, measured through the
 * simulator's public API (Processor, FunctionalExecutor, btrace).
 *
 * One repetition of a workload generates the program, runs the timing
 * core through a detailed warm-up and a chunked measurement window,
 * then runs the three front-end engines (functional warm-up, then
 * several short btrace record and btrace open + replay passes), each
 * on a fresh Processor. Every repetition does identical simulated work,
 * so every simulated count must repeat exactly, and each host time is
 * the fastest over the repetitions (per chunk or per pass, where the
 * engine runs in chunks or passes): host interference only ever adds
 * time.
 */

#ifndef TCSIM_BENCH_BENCH_H
#define TCSIM_BENCH_BENCH_H

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tcsim::bench
{

/** One benchmark workload: a synthetic benchmark and its run sizes. */
struct WorkloadSpec
{
    std::string name;
    std::string benchmark;          ///< workload::findProfile() name
    std::uint64_t warmupInsts = 0; ///< detailed warm-up before resetStats
    std::uint64_t windowInsts = 0; ///< measured window after resetStats
    std::uint64_t chunkInsts = 0;  ///< retired insts per timed run() call
    std::uint64_t frontEndInsts = 0; ///< functional warm-up length
    std::uint64_t traceInsts = 0;  ///< length of each record/replay pass
    unsigned tracePasses = 1;      ///< record + replay passes per rep, >= 1
};

/** @return the benchmark's workloads (core-window, core-mispredict,
 * frontend-server). */
const std::vector<WorkloadSpec> &workloads();

/** @return the workload named @p name, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/**
 * @return the retired-instruction index at which the timing core's
 * detailed warm-up starts for workload seed @p seed. Seed 0 starts at
 * the program entry; other seeds skip a seed-derived prefix of up to
 * 31K instructions by functional warming, so each seed measures a
 * different slice of the same program.
 */
std::uint64_t windowStart(std::uint64_t seed);

/** A nearest-rank percentile with the samples ranked above it. */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0; ///< total sample count
    std::size_t beyond = 0;  ///< samples ranked above the percentile
};

/** Nearest-rank @p pct percentile (0 < pct <= 100) of @p samples. */
Percentile percentile(std::vector<double> samples, double pct);

double median(std::vector<double> samples);

/** Metric names: a letter or digit, then up to 63 of [A-Za-z0-9_.-]. */
bool validMetricName(const std::string &name);

/** Units: 1 to 16 of [A-Za-z0-9_/%.-]. */
bool validUnit(const std::string &unit);

/** One host-time span around a public call (traced runs only). */
struct Span
{
    std::string name;
    std::string layer;
    std::string id;     ///< "<workload>/<repetition>", shared per rep
    int parent = -1;    ///< index into the span list, -1 for a root
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

/** Spans held in memory and written once at the end of the run. */
class SpanLog
{
  public:
    int begin(const std::string &name, const std::string &layer,
              const std::string &id, int parent);
    void end(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Per layer: summed span durations minus the time their child
     * spans cover, in ns. */
    std::map<std::string, std::uint64_t> selfNsByLayer() const;

    /** All spans as one JSON array. */
    std::string toJson() const;

  private:
    std::vector<Span> spans_;
};

/** A named metric value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Run settings. */
struct Options
{
    WorkloadSpec spec;
    std::uint64_t seed = 0; ///< workload seed, picks windowStart()
    /** Overrides BenchmarkProfile::seed before generateProgram(); unset
     * keeps the profile's tuned seed. */
    std::optional<std::uint64_t> programSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the btrace file each repetition records. */
    std::string workDir = ".";
    // Failure injection for the benchmark's own tests.
    bool injectReplayMismatch = false;
    bool injectAbort = false;
};

/** Everything one benchmark run measured. */
struct Report
{
    std::string workload;
    std::string benchmark;
    std::uint64_t seed = 0;
    std::uint64_t programSeed = 0; ///< BenchmarkProfile::seed used
    std::uint64_t windowStart = 0;
    unsigned reps = 0;
    unsigned failedReps = 0;
    std::uint64_t checksAttempted = 0;
    std::uint64_t checksFailed = 0;
    std::vector<std::string> failures; ///< one line per failed check
    std::size_t chunkSamples = 0;
    std::size_t chunkSamplesBeyondP90 = 0;
    std::vector<Metric> endToEnd;      ///< untraced runs
    std::vector<Metric> perLayer;      ///< traced runs
    std::vector<std::string> notes;    ///< human-readable extra lines
    SpanLog spans;

    const Metric *find(const std::string &name) const;
};

/** Run @p opts.spec for @p opts.seconds: an unchunked reference rep,
 * then chunked reps (at least one untraced, plus one traced when
 * tracing) until the time is up. */
Report runWorkload(const Options &opts);

/** The result line the benchmark prints last. */
std::string resultJson(const Report &report, bool trace);

/**
 * Run @p body; return false instead of terminating if it raises
 * SIGABRT (panic()/TCSIM_ASSERT, e.g. the Processor's oracle retire
 * check). Objects @p body owned at that point are leaked.
 */
bool runGuarded(const std::function<void()> &body);

} // namespace tcsim::bench

#endif // TCSIM_BENCH_BENCH_H
