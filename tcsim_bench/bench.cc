#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csetjmp>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "common/fnv.h"
#include "common/log.h"
#include "common/rng.h"
#include "obs/profiler.h"
#include "sim/config.h"
#include "sim/processor.h"
#include "workload/btrace.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/profile.h"
#include "workload/serialize.h"

namespace tcsim::bench
{

namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

// ----------------------------------------------------------------------
// Workloads.
// ----------------------------------------------------------------------

const std::vector<WorkloadSpec> &
workloads()
{
    // Same run sizes everywhere; the benchmark is what differs. compress
    // is window-bound, gcc branch-bound, server-oltp footprint-bound.
    // Record and replay cannot be chunked, so each repetition runs them
    // as several short passes: the fastest pass then needs only a short
    // quiet spell of the host.
    static const std::vector<WorkloadSpec> specs = {
        {"core-window", "compress", 300'000, 300'000, 3'000, 1'000'000,
         200'000, 8},
        {"core-mispredict", "gcc", 300'000, 300'000, 3'000, 1'000'000,
         200'000, 8},
        {"frontend-server", "server-oltp", 300'000, 300'000, 3'000,
         1'000'000, 200'000, 8},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloads()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

std::uint64_t
windowStart(std::uint64_t seed)
{
    if (seed == 0)
        return 0;
    std::uint64_t state = seed;
    return splitmix64(state) % 32 * 1'000;
}

// ----------------------------------------------------------------------
// Statistics helpers.
// ----------------------------------------------------------------------

Percentile
percentile(std::vector<double> samples, double pct)
{
    Percentile result;
    result.samples = samples.size();
    if (samples.empty())
        return result;
    std::sort(samples.begin(), samples.end());
    // Nearest rank: the smallest value with at least pct% of the
    // samples at or below it.
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    result.value = samples[rank - 1];
    result.beyond = samples.size() - rank;
    return result;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    return samples.size() % 2 == 1
               ? samples[mid]
               : 0.5 * (samples[mid - 1] + samples[mid]);
}

namespace
{

bool
isAlnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
}

} // namespace

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 || !isAlnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '.' || c == '-';
    });
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '/' || c == '%' ||
               c == '.' || c == '-';
    });
}

// ----------------------------------------------------------------------
// Spans.
// ----------------------------------------------------------------------

int
SpanLog::begin(const std::string &name, const std::string &layer,
               const std::string &id, int parent)
{
    spans_.push_back({name, layer, id, parent, nowNs(), 0});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::end(int index)
{
    spans_[static_cast<std::size_t>(index)].endNs = nowNs();
}

std::map<std::string, std::uint64_t>
SpanLog::selfNsByLayer() const
{
    // A repetition that aborted leaves its open spans unfinished
    // (endNs == 0); they and their ancestors are skipped.
    auto finished = [](const Span &span) { return span.endNs != 0; };
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span &span : spans_) {
        if (span.parent >= 0 && finished(span))
            child_ns[static_cast<std::size_t>(span.parent)] +=
                span.endNs - span.startNs;
    }
    std::map<std::string, std::uint64_t> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (!finished(spans_[i]))
            continue;
        const std::uint64_t duration = spans_[i].endNs - spans_[i].startNs;
        self[spans_[i].layer] +=
            duration > child_ns[i] ? duration - child_ns[i] : 0;
    }
    return self;
}

std::string
SpanLog::toJson() const
{
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"index\":%zu,\"name\":\"%s\",\"layer\":\"%s\","
                      "\"id\":\"%s\",\"parent\":%d,\"start_ns\":%llu,"
                      "\"end_ns\":%llu}",
                      i == 0 ? "" : ",", i, s.name.c_str(), s.layer.c_str(),
                      s.id.c_str(), s.parent,
                      static_cast<unsigned long long>(s.startNs),
                      static_cast<unsigned long long>(s.endNs));
        out += buf;
    }
    out += "\n]\n";
    return out;
}

const Metric *
Report::find(const std::string &name) const
{
    for (const auto *list : {&endToEnd, &perLayer}) {
        for (const Metric &metric : *list) {
            if (metric.name == name)
                return &metric;
        }
    }
    return nullptr;
}

// ----------------------------------------------------------------------
// Abort guard.
// ----------------------------------------------------------------------

namespace
{

sigjmp_buf *activeGuard = nullptr;

extern "C" void
onAbortSignal(int)
{
    if (activeGuard != nullptr)
        siglongjmp(*activeGuard, 1);
}

} // namespace

bool
runGuarded(const std::function<void()> &body)
{
    sigjmp_buf jump;
    struct sigaction action = {};
    struct sigaction previous = {};
    action.sa_handler = onAbortSignal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGABRT, &action, &previous);
    if (sigsetjmp(jump, 1) != 0) {
        activeGuard = nullptr;
        sigaction(SIGABRT, &previous, nullptr);
        return false;
    }
    activeGuard = &jump;
    body();
    activeGuard = nullptr;
    sigaction(SIGABRT, &previous, nullptr);
    return true;
}

// ----------------------------------------------------------------------
// One repetition.
// ----------------------------------------------------------------------

namespace
{

using ControlFlowResult = sim::Processor::ControlFlowResult;

/** Everything one repetition measured. */
struct RepSample
{
    bool reference = false; ///< one unchunked run(N) window
    bool traced = false;

    std::uint64_t generateNs = 0;
    /** generate + the construction of one Processor per engine. */
    std::uint64_t setupNs = 0;

    std::uint64_t timingNs = 0; ///< detailed warm-up + window
    std::uint64_t timingInsts = 0;
    /** Per timed run() chunk, in order (chunked reps only). */
    std::vector<std::uint64_t> chunkNs;
    std::vector<std::uint64_t> chunkInsts;
    std::uint64_t phaseNs[obs::kNumPhases] = {};

    std::uint64_t warmupNs = 0;
    std::vector<std::uint64_t> warmupChunkNs; ///< chunked reps only
    // Per record/replay pass, in order.
    std::vector<std::uint64_t> recordNs; ///< writer open + recordTrace
    std::vector<std::uint64_t> openNs;   ///< BtraceReader::open + validate
    std::vector<std::uint64_t> replayNs;
    std::uint64_t oracleNs = 0; ///< traced reps only

    std::uint64_t programDigest = 0;
    std::uint64_t windowDigest = 0;
    std::uint64_t warmStateDigest = 0;
    std::uint64_t oracleDigest = 0;
    sim::SimResult window;
    std::vector<ControlFlowResult> recorded; ///< per pass
    std::vector<ControlFlowResult> replayed; ///< per pass
};

/** Times one public call and, in traced reps, records it as a span. */
class Spans
{
  public:
    Spans(SpanLog *log, std::string id) : log_(log), id_(std::move(id)) {}

    struct Open
    {
        int span;
        std::uint64_t startNs;
    };

    Open
    start(const char *name, const char *layer, int parent)
    {
        const int span = log_ ? log_->begin(name, layer, id_, parent) : -1;
        return {span, nowNs()};
    }

    /** @return the call's host ns. */
    std::uint64_t
    stop(const Open &open)
    {
        const std::uint64_t ns = nowNs() - open.startNs;
        if (log_ != nullptr)
            log_->end(open.span);
        return ns;
    }

    template <typename F>
    std::uint64_t
    time(const char *name, const char *layer, int parent, F &&body)
    {
        const Open open = start(name, layer, parent);
        body();
        return stop(open);
    }

  private:
    SpanLog *log_;
    std::string id_;
};

std::uint64_t
statsDigest(const sim::SimResult &result)
{
    std::uint64_t hash = kFnvOffsetBasis;
    for (const auto &[name, value] : result.stats.entries()) {
        hash = fnv1aAppend(hash, name);
        hash = fnv1aAppendScalar(hash, value);
    }
    return hash;
}

std::uint64_t
programDigest(const workload::Program &program)
{
    std::ostringstream os;
    workload::saveProgram(program, os);
    return fnv1a(os.str());
}

std::uint64_t
warmStateDigest(const sim::Processor &processor)
{
    std::ostringstream os;
    processor.exportWarmState(os);
    return fnv1a(os.str());
}

#define TCSIM_BENCH_CF_FIELDS(X)                                            \
    X(instructions) X(records) X(condBranches) X(condMispredicts)           \
    X(returns) X(returnMispredicts) X(indirectJumps)                        \
    X(indirectMispredicts) X(traps) X(icacheAccesses) X(icacheMisses)       \
    X(tcLookups) X(tcHits) X(outcomeHash) X(finalHistory) X(halted)

/** @return the first field on which @p a and @p b differ, or "". */
std::string
controlFlowMismatch(const ControlFlowResult &a, const ControlFlowResult &b)
{
#define TCSIM_BENCH_CF_CMP(field)                                           \
    if (a.field != b.field)                                                 \
        return #field;
    TCSIM_BENCH_CF_FIELDS(TCSIM_BENCH_CF_CMP)
#undef TCSIM_BENCH_CF_CMP
    return "";
}

std::uint64_t
controlFlowDigest(const ControlFlowResult &cf)
{
    std::uint64_t hash = kFnvOffsetBasis;
#define TCSIM_BENCH_CF_HASH(field) hash = fnv1aAppendScalar(hash, cf.field);
    TCSIM_BENCH_CF_FIELDS(TCSIM_BENCH_CF_HASH)
#undef TCSIM_BENCH_CF_HASH
    return hash;
}

struct RepContext
{
    const Options &opts;
    const workload::BenchmarkProfile &profile;
    const sim::ProcessorConfig &config;
    std::uint64_t start; ///< windowStart()
    unsigned index;
    bool reference;
    bool traced;
    SpanLog *log;
};

/** functionalWarmup() step in chunked reps. */
constexpr std::uint64_t kWarmupStepInsts = 50'000;

void
runRep(const RepContext &ctx, RepSample &out)
{
    const WorkloadSpec &spec = ctx.opts.spec;
    Spans spans(ctx.log, spec.name + "/" + std::to_string(ctx.index));
    out.reference = ctx.reference;
    out.traced = ctx.traced;
    const auto rep = spans.start("repetition", "bench", -1);

    std::unique_ptr<workload::Program> program;
    out.generateNs = spans.time("generate", "workload", rep.span, [&] {
        program = std::make_unique<workload::Program>(
            workload::generateProgram(ctx.profile));
    });
    out.setupNs = out.generateNs;
    out.programDigest = programDigest(*program);

    // Timing core: detailed warm-up, resetStats(), measured window.
    {
        std::unique_ptr<sim::Processor> proc;
        out.setupNs += spans.time("construct", "sim", rep.span, [&] {
            proc = std::make_unique<sim::Processor>(ctx.config, *program);
        });
        const std::uint64_t start = ctx.start;
        if (start > 0)
            spans.time("fast-forward", "sim", rep.span,
                       [&] { proc->functionalWarmup(start); });
        obs::SelfProfiler profiler;
        if (ctx.traced)
            proc->attachProfiler(&profiler);
        // Runs the core to retired index @p target: one run() call in
        // the reference rep, fixed-size timed chunks in the others.
        auto advance = [&](const char *name, std::uint64_t from,
                           std::uint64_t target) {
            const auto phase = spans.start(name, "sim", rep.span);
            sim::SimResult result;
            if (ctx.reference) {
                result = proc->run(target);
            } else {
                for (std::uint64_t at = from; at < target;) {
                    at = std::min(target, at + spec.chunkInsts);
                    const std::uint64_t before = proc->retiredInsts();
                    out.chunkNs.push_back(spans.time(
                        "chunk", "sim", phase.span,
                        [&] { result = proc->run(at); }));
                    out.chunkInsts.push_back(proc->retiredInsts() - before);
                }
            }
            out.timingNs += spans.stop(phase);
            return result;
        };
        const std::uint64_t warm_end = start + spec.warmupInsts;
        advance("detailed-warmup", start, warm_end);
        proc->resetStats();
        if (ctx.opts.injectAbort && !ctx.reference)
            panic("injected abort in %s repetition %u", spec.name.c_str(),
                  ctx.index);
        out.window = advance("window", warm_end, warm_end + spec.windowInsts);
        out.timingInsts = proc->retiredInsts() - start;
        out.windowDigest = statsDigest(out.window);
        for (unsigned p = 0; p < obs::kNumPhases; ++p)
            out.phaseNs[p] = static_cast<std::uint64_t>(
                profiler.phaseSeconds(static_cast<obs::Phase>(p)) * 1e9);
    }

    // Front-end engines, each on a fresh processor.
    {
        std::unique_ptr<sim::Processor> proc;
        out.setupNs += spans.time("construct", "sim", rep.span, [&] {
            proc = std::make_unique<sim::Processor>(ctx.config, *program);
        });
        // One call in the reference rep, fixed steps in the others (the
        // way sampled simulation emits checkpoints along one pass).
        const auto warm = spans.start("functional-warmup", "sim", rep.span);
        if (ctx.reference) {
            proc->functionalWarmup(spec.frontEndInsts);
        } else {
            for (std::uint64_t at = 0; at < spec.frontEndInsts;) {
                at = std::min(spec.frontEndInsts, at + kWarmupStepInsts);
                out.warmupChunkNs.push_back(
                    spans.time("chunk", "sim", warm.span,
                               [&] { proc->functionalWarmup(at); }));
            }
        }
        out.warmupNs = spans.stop(warm);
        out.warmStateDigest = warmStateDigest(*proc);
    }
    // Record and replay passes alternate; each replay reads the file the
    // record pass before it wrote. Only the first pass's constructions
    // count towards set-up, so set-up does not grow with the pass count.
    const std::string path = ctx.opts.workDir + "/" + spec.name + "-" +
                             std::to_string(ctx.opts.seed) + ".btrace";
    for (unsigned pass = 0; pass < spec.tracePasses; ++pass) {
        {
            std::unique_ptr<sim::Processor> proc;
            const std::uint64_t construct_ns =
                spans.time("construct", "sim", rep.span, [&] {
                    proc = std::make_unique<sim::Processor>(ctx.config,
                                                            *program);
                });
            if (pass == 0)
                out.setupNs += construct_ns;
            out.recordNs.push_back(spans.time("record", "sim", rep.span, [&] {
                workload::BtraceWriter writer(
                    path, workload::kGeneratorVersion,
                    workload::profileFingerprint(ctx.profile),
                    program->entry());
                out.recorded.push_back(
                    proc->recordTrace(writer, spec.traceInsts));
            }));
        }
        workload::BtraceReader reader;
        std::string error;
        bool opened = false;
        out.openNs.push_back(
            spans.time("btrace-open", "workload", rep.span,
                       [&] { opened = reader.open(path, &error); }));
        if (!opened)
            fatal("cannot reopen %s: %s", path.c_str(), error.c_str());
        std::unique_ptr<sim::Processor> proc;
        const std::uint64_t construct_ns =
            spans.time("construct", "sim", rep.span, [&] {
                proc = std::make_unique<sim::Processor>(ctx.config, *program);
            });
        if (pass == 0)
            out.setupNs += construct_ns;
        out.replayNs.push_back(spans.time("replay", "sim", rep.span, [&] {
            out.replayed.push_back(proc->replayTrace(reader));
        }));
    }
    std::remove(path.c_str());
    if (ctx.opts.injectReplayMismatch)
        out.replayed.back().outcomeHash ^= 1;

    // The oracle alone over the same stream (the engines' common floor).
    if (ctx.traced) {
        workload::FunctionalExecutor oracle(*program);
        std::uint64_t digest = kFnvOffsetBasis;
        out.oracleNs = spans.time("oracle", "workload", rep.span, [&] {
            for (std::uint64_t i = 0; i < spec.frontEndInsts; ++i)
                digest = fnv1aAppendScalar(digest, oracle.step().nextPc);
        });
        out.oracleDigest = digest;
    }
    spans.stop(rep);
}

/** Counts checks; a failed check is recorded, never fatal. */
class Checks
{
  public:
    explicit Checks(Report &report) : report_(report) {}

    void
    expect(bool ok, const std::string &what)
    {
        ++report_.checksAttempted;
        if (!ok) {
            ++report_.checksFailed;
            report_.failures.push_back(what);
        }
    }

  private:
    Report &report_;
};

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

double
statRatio(const StatDump &stats, const std::string &num,
          const std::string &den)
{
    return stats.get(den) == 0 ? 0.0 : stats.get(num) / stats.get(den);
}

std::uint64_t
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

/** Fastest value of @p field over the (un)traced reps; 0 if none. */
double
minOver(const std::vector<RepSample> &reps, bool traced,
        std::uint64_t RepSample::*field)
{
    std::uint64_t best = 0;
    for (const RepSample &r : reps) {
        if (r.traced == traced && (best == 0 || r.*field < best))
            best = r.*field;
    }
    return static_cast<double>(best);
}

/** Fastest pass in @p field over the (un)traced reps; 0 if none. */
double
minOver(const std::vector<RepSample> &reps, bool traced,
        std::vector<std::uint64_t> RepSample::*field)
{
    std::uint64_t best = 0;
    for (const RepSample &r : reps) {
        if (r.traced != traced)
            continue;
        for (const std::uint64_t ns : r.*field)
            best = best == 0 ? ns : std::min(best, ns);
    }
    return static_cast<double>(best);
}

double
nsPerInst(const RepSample &r)
{
    return static_cast<double>(r.timingNs) /
           static_cast<double>(r.timingInsts);
}

/** The rep whose timing core ran fastest, or null. */
const RepSample *
fastestRep(const std::vector<RepSample> &reps, bool traced)
{
    const RepSample *best = nullptr;
    for (const RepSample &r : reps) {
        if (r.traced == traced &&
            (best == nullptr || nsPerInst(r) < nsPerInst(*best)))
            best = &r;
    }
    return best;
}

/** Fold one rep's per-chunk times into the per-chunk minima. */
void
keepFastest(std::vector<std::uint64_t> &best,
            const std::vector<std::uint64_t> &sample)
{
    if (sample.empty())
        return;
    best.resize(sample.size(), 0);
    for (std::size_t c = 0; c < sample.size(); ++c) {
        if (best[c] == 0 || sample[c] < best[c])
            best[c] = sample[c];
    }
}

void
addMetric(std::vector<Metric> &list, const std::string &name, double value,
          const std::string &unit)
{
    list.push_back({name, value, unit});
}

} // namespace

// ----------------------------------------------------------------------
// The run.
// ----------------------------------------------------------------------

Report
runWorkload(const Options &opts)
{
    const WorkloadSpec &spec = opts.spec;
    Report report;
    report.workload = spec.name;
    report.benchmark = spec.benchmark;
    report.seed = opts.seed;

    workload::BenchmarkProfile profile =
        workload::findProfile(spec.benchmark);
    if (opts.programSeed.has_value())
        profile.seed = *opts.programSeed;
    report.programSeed = profile.seed;
    report.windowStart = windowStart(opts.seed);
    const sim::ProcessorConfig config = sim::promotionPackingConfig();

    // Rep 0 is the unchunked reference. Each chunked rep yields one
    // sample per chunk index, so the per-chunk best times need only one
    // untraced chunked rep; traced runs alternate untraced and traced.
    const unsigned min_reps = opts.trace ? 3 : 2;

    Checks checks(report);
    std::vector<RepSample> reps;
    std::optional<RepSample> ref;
    std::uint64_t peak_rss_kb = 0;
    const std::uint64_t start = nowNs();
    for (unsigned index = 0;
         index < min_reps ||
         static_cast<double>(nowNs() - start) < opts.seconds * 1e9;
         ++index) {
        // Traced runs alternate untraced and traced chunked reps so the
        // profiler's overhead is measured in the same process.
        const RepContext ctx{opts,
                             profile,
                             config,
                             report.windowStart,
                             index,
                             !ref.has_value(),
                             opts.trace && ref.has_value() &&
                                 reps.size() % 2 == 1,
                             opts.trace ? &report.spans : nullptr};
        RepSample sample;
        const bool completed = runGuarded([&] { runRep(ctx, sample); });
        ++report.reps;
        checks.expect(completed, "repetition " + std::to_string(index) +
                                     " aborted");
        if (!completed) {
            ++report.failedReps;
            continue;
        }
        const std::string tag = "rep " + std::to_string(index) + ": ";
        checks.expect(sample.timingInsts >=
                          spec.warmupInsts + spec.windowInsts,
                      tag + "timing core stopped short");
        checks.expect(sample.recorded.size() == spec.tracePasses &&
                          sample.replayed.size() == spec.tracePasses,
                      tag + "record/replay pass count differs");
        for (std::size_t pass = 0;
             pass < std::min(sample.recorded.size(), sample.replayed.size());
             ++pass) {
            const std::string mismatch = controlFlowMismatch(
                sample.recorded[pass], sample.replayed[pass]);
            checks.expect(mismatch.empty(),
                          tag + "pass " + std::to_string(pass) +
                              ": record and replay differ in " + mismatch);
        }
        // Every pass of every repetition records the same stream.
        const std::uint64_t first_pass = controlFlowDigest(
            (ref ? *ref : sample).recorded.front());
        for (const ControlFlowResult &recorded : sample.recorded)
            checks.expect(controlFlowDigest(recorded) == first_pass,
                          tag + "record counters differ between passes");
        if (ctx.reference) {
            ref = sample;
            continue;
        }
        checks.expect(sample.programDigest == ref->programDigest,
                      tag + "generated program differs");
        checks.expect(sample.windowDigest == ref->windowDigest,
                      tag + "chunked run() counters differ from run(N)");
        if (!reps.empty())
            checks.expect(sample.warmStateDigest ==
                              reps.front().warmStateDigest,
                          tag + "stepped functionalWarmup state differs");
        if (!reps.empty())
            checks.expect(sample.chunkInsts == reps.front().chunkInsts,
                          tag + "chunk boundaries differ");
        if (sample.traced) {
            const auto first = std::find_if(
                reps.begin(), reps.end(),
                [](const RepSample &r) { return r.traced; });
            if (first != reps.end())
                checks.expect(sample.oracleDigest == first->oracleDigest,
                              tag + "oracle stream differs");
        }
        reps.push_back(std::move(sample));
        // Every engine has now run twice. Later reps repeat the same
        // work; read the peak here so that it does not depend on how
        // many reps fit in the run (the allocator's layout drifts as
        // the benchmark's own records grow).
        if (peak_rss_kb == 0)
            peak_rss_kb = peakRssKb();
    }
    if (!ref.has_value() || reps.empty()) {
        checks.expect(false, "no repetition completed");
        return report;
    }

    // Other tenants of the host only ever slow the simulator down (one
    // rep's speed moved by up to 40% within a minute on a shared 4-core
    // host), and every rep does identical simulated work, so each host
    // time is the fastest over the untraced reps. The timing core and
    // the functional warm-up are chunked: chunk i is the same work in
    // every rep, so its fastest time is kept, and sim_mips, the kinst_us
    // percentiles and warmup_mips come from those. setup_s is the
    // median over all reps.
    std::vector<double> setup_s;
    setup_s.push_back(static_cast<double>(ref->setupNs) / 1e9);
    std::vector<std::uint64_t> chunk_best, warmup_best;
    for (const RepSample &r : reps) {
        setup_s.push_back(static_cast<double>(r.setupNs) / 1e9);
        if (!r.traced) {
            keepFastest(chunk_best, r.chunkNs);
            keepFastest(warmup_best, r.warmupChunkNs);
        }
    }
    if (chunk_best.empty()) {
        checks.expect(false, "no untraced repetition completed");
        return report;
    }
    const std::vector<std::uint64_t> &chunk_insts = reps.front().chunkInsts;
    std::vector<double> chunk_us; // us per 1000 insts == ns per inst
    double best_ns = 0;
    double best_insts = 0;
    for (std::size_t c = 0; c < chunk_best.size(); ++c) {
        chunk_us.push_back(static_cast<double>(chunk_best[c]) /
                           static_cast<double>(chunk_insts[c]));
        best_ns += static_cast<double>(chunk_best[c]);
        best_insts += static_cast<double>(chunk_insts[c]);
    }
    const Percentile p50 = percentile(chunk_us, 50.0);
    const Percentile p90 = percentile(chunk_us, 90.0);
    report.chunkSamples = p90.samples;
    report.chunkSamplesBeyondP90 = p90.beyond;
    checks.expect(p90.beyond >= 10, "fewer than ten chunk samples beyond "
                                    "p90");

    const sim::SimResult &w = ref->window;
    auto &e2e = report.endToEnd;
    const auto fe_insts = static_cast<double>(spec.frontEndInsts);
    const auto trace_insts = static_cast<double>(spec.traceInsts);
    addMetric(e2e, "sim_mips", best_insts * 1e3 / best_ns, "MIPS");
    addMetric(e2e, "kinst_us_p50", p50.value, "us");
    addMetric(e2e, "kinst_us_p90", p90.value, "us");
    const double warmup_ns =
        std::accumulate(warmup_best.begin(), warmup_best.end(), 0.0);
    addMetric(e2e, "warmup_mips", fe_insts * 1e3 / warmup_ns, "MIPS");
    addMetric(e2e, "record_mips",
              trace_insts * 1e3 / minOver(reps, false, &RepSample::recordNs),
              "MIPS");
    // Replay pays for open + validate on every use.
    addMetric(e2e, "replay_mips",
              trace_insts * 1e3 /
                  (minOver(reps, false, &RepSample::openNs) +
                   minOver(reps, false, &RepSample::replayNs)),
              "MIPS");
    addMetric(e2e, "setup_s", median(setup_s), "s");
    addMetric(e2e, "peak_rss_mb", static_cast<double>(peak_rss_kb) / 1024.0,
              "MB");
    addMetric(e2e, "ipc", w.ipc, "inst/cycle");
    addMetric(e2e, "fetch_rate", w.effectiveFetchRate, "inst/fetch");
    addMetric(e2e, "mispredict_rate", w.condMispredictRate, "fraction");

    // Per-layer metrics: counts from the reference window and record
    // pass (identical in every rep), host times from the traced reps
    // (the stage split from the fastest one).
    auto &layer = report.perLayer;
    const RepSample *traced = fastestRep(reps, true);
    const double traced_insts =
        traced ? static_cast<double>(traced->timingInsts) : 0.0;
    double stage_ns = 0;
    for (unsigned p = 0; p < obs::kNumPhases; ++p) {
        const double ns =
            traced ? static_cast<double>(traced->phaseNs[p]) : 0.0;
        stage_ns += ns;
        addMetric(layer,
                  std::string("sim.") +
                      obs::phaseName(static_cast<obs::Phase>(p)) + "_ns",
                  traced ? ns / traced_insts : 0.0, "ns/inst");
    }
    const double traced_timing_ns =
        traced ? static_cast<double>(traced->timingNs) : 0.0;
    addMetric(layer, "sim.outside_step_ns",
              traced ? (traced_timing_ns - stage_ns) / traced_insts : 0.0,
              "ns/inst");
    addMetric(layer, "sim.warmup_ns",
              minOver(reps, true, &RepSample::warmupNs) / fe_insts,
              "ns/inst");
    addMetric(layer, "sim.record_ns",
              minOver(reps, true, &RepSample::recordNs) / trace_insts,
              "ns/inst");
    addMetric(layer, "sim.replay_ns",
              minOver(reps, true, &RepSample::replayNs) / trace_insts,
              "ns/inst");
    addMetric(layer, "workload.generate_ms",
              minOver(reps, true, &RepSample::generateNs) / 1e6, "ms");
    addMetric(layer, "workload.oracle_ns",
              minOver(reps, true, &RepSample::oracleNs) / fe_insts,
              "ns/inst");
    addMetric(layer, "workload.btrace_open_ms",
              minOver(reps, true, &RepSample::openNs) / 1e6, "ms");

    const StatDump &stats = w.stats;
    const auto kinst = static_cast<double>(w.instructions) / 1000.0;
    addMetric(layer, "trace.tc_hit_rate", ratio(w.tcHits, w.tcLookups),
              "fraction");
    addMetric(layer, "trace.segments_per_kinst",
              stats.get("fill_unit.segments_built") / kinst, "1/kinst");
    addMetric(layer, "bpred.promotions", stats.get("bias_table.promotions"),
              "count");
    addMetric(layer, "bpred.demotions", stats.get("bias_table.demotions"),
              "count");
    addMetric(layer, "bpred.faults_per_kinst",
              static_cast<double>(w.promotedFaults) / kinst, "1/kinst");
    addMetric(layer, "memory.l1i_miss_rate",
              statRatio(stats, "l1i.misses", "l1i.accesses"), "fraction");
    addMetric(layer, "memory.l1d_miss_rate",
              statRatio(stats, "l1d.misses", "l1d.accesses"), "fraction");
    addMetric(layer, "memory.l2_miss_rate",
              statRatio(stats, "l2.misses", "l2.accesses"), "fraction");
    for (unsigned c = 0;
         c < static_cast<unsigned>(sim::CycleCategory::NumCategories); ++c) {
        std::string name = sim::cycleCategoryName(
            static_cast<sim::CycleCategory>(c));
        std::transform(name.begin(), name.end(), name.begin(),
                       [](unsigned char ch) { return std::tolower(ch); });
        addMetric(layer, "sim.cycles_" + name + "_frac",
                  ratio(w.cycleCat[c], w.cycles), "fraction");
    }
    const ControlFlowResult &cf = ref->recorded.front();
    addMetric(layer, "replay.cond_mispredict_rate",
              ratio(cf.condMispredicts, cf.condBranches), "fraction");
    addMetric(layer, "replay.return_mispredict_rate",
              ratio(cf.returnMispredicts, cf.returns), "fraction");
    addMetric(layer, "replay.indirect_mispredict_rate",
              ratio(cf.indirectMispredicts, cf.indirectJumps), "fraction");
    addMetric(layer, "replay.icache_miss_rate",
              ratio(cf.icacheMisses, cf.icacheAccesses), "fraction");
    addMetric(layer, "replay.tc_hit_rate", ratio(cf.tcHits, cf.tcLookups),
              "fraction");
    const RepSample *untraced = fastestRep(reps, false);
    addMetric(layer, "obs.profiler_overhead_frac",
              traced ? nsPerInst(*traced) / nsPerInst(*untraced) - 1.0 : 0.0,
              "fraction");

    for (const auto *list : {&report.endToEnd, &report.perLayer}) {
        for (const Metric &metric : *list)
            checks.expect(validMetricName(metric.name) &&
                              validUnit(metric.unit),
                          "malformed metric name or unit: " + metric.name);
    }

    // Bases of the ratios above.
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "window: %llu insts, %llu cycles, %llu useful fetches, %llu cond "
        "branches, %llu tc lookups; record/replay: %llu insts, %llu cond "
        "branches, %llu icache accesses, %llu tc lookups",
        static_cast<unsigned long long>(w.instructions),
        static_cast<unsigned long long>(w.cycles),
        static_cast<unsigned long long>(w.usefulFetches),
        static_cast<unsigned long long>(w.condBranches),
        static_cast<unsigned long long>(w.tcLookups),
        static_cast<unsigned long long>(cf.instructions),
        static_cast<unsigned long long>(cf.condBranches),
        static_cast<unsigned long long>(cf.icacheAccesses),
        static_cast<unsigned long long>(cf.tcLookups));
    report.notes.push_back(line);
    if (reps.front().warmStateDigest != ref->warmStateDigest)
        report.notes.push_back(
            "note: functionalWarmup in 50K steps leaves a different warm "
            "state than one call (known defect, see README)");
    if (opts.trace) {
        std::snprintf(line, sizeof(line),
                      "fastest traced rep: timing core host time %.4f s = "
                      "stages %.4f s + outside step() %.4f s",
                      traced_timing_ns / 1e9, stage_ns / 1e9,
                      (traced_timing_ns - stage_ns) / 1e9);
        report.notes.push_back(line);
    }
    return report;
}

// ----------------------------------------------------------------------
// Output.
// ----------------------------------------------------------------------

std::string
resultJson(const Report &report, bool trace)
{
    std::string out = "{\"correct\": ";
    out += report.checksFailed == 0 && report.checksAttempted > 0
               ? "true"
               : "false";
    out += ", \"attempted\": " + std::to_string(report.checksAttempted);
    out += ", \"failed\": " + std::to_string(report.checksFailed);
    out += ", \"metrics\": {";
    const std::vector<Metric> &metrics =
        trace ? report.perLayer : report.endToEnd;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
        out += buf;
    }
    out += "}}";
    return out;
}

} // namespace tcsim::bench
