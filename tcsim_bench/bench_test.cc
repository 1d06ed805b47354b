#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>

#include "bench.h"
#include "common/log.h"

using namespace tcsim;
using namespace tcsim::bench;

namespace
{

/** A per-test directory (test name + pid), removed afterwards. */
class TestDir
{
  public:
    TestDir()
    {
        const auto *info = testing::UnitTest::GetInstance()->current_test_info();
        path_ = std::filesystem::path(testing::TempDir()) /
                ("tcsim_bench_" + std::string(info->test_suite_name()) + "_" +
                 info->name() + "_" + std::to_string(::getpid()));
        std::filesystem::create_directories(path_);
    }
    ~TestDir() { std::filesystem::remove_all(path_); }
    TestDir(const TestDir &) = delete;
    TestDir &operator=(const TestDir &) = delete;

    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

/** Tens of thousands of instructions per engine: a run takes well
 * under a second. */
Options
tinyOptions(const std::string &work_dir)
{
    Options opts;
    opts.spec = {"tiny", "compress", 30'000, 30'000, 500, 20'000, 10'000, 2};
    opts.seconds = 0.0;
    opts.workDir = work_dir;
    return opts;
}

} // namespace

// The reported p90 needs at least ten samples ranked above it: 100
// samples give exactly ten, 99 give nine.
TEST(Percentile, NearestRankCountsSamplesBeyond)
{
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i)
        samples.push_back(i);
    const Percentile p90 = percentile(samples, 90.0);
    EXPECT_EQ(p90.value, 90.0);
    EXPECT_EQ(p90.samples, 100u);
    EXPECT_EQ(p90.beyond, 10u);
    EXPECT_EQ(percentile(samples, 50.0).value, 50.0);
    EXPECT_EQ(percentile(samples, 100.0).beyond, 0u);

    samples.pop_back();
    EXPECT_EQ(percentile(samples, 90.0).beyond, 9u);
    EXPECT_EQ(percentile({}, 90.0).samples, 0u);
}

TEST(Percentile, Median)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(MetricNames, Charset)
{
    EXPECT_TRUE(validMetricName("sim_mips"));
    EXPECT_TRUE(validMetricName("sim.cycles_fullwindow_frac"));
    EXPECT_TRUE(validMetricName("0-x"));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_lead"));
    EXPECT_FALSE(validMetricName(".lead"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/no"));

    EXPECT_TRUE(validUnit("ns/inst"));
    EXPECT_TRUE(validUnit("%"));
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit(std::string(17, 'u')));
    EXPECT_FALSE(validUnit("a b"));
}

TEST(RunWorkload, CleanRunPassesEveryCheck)
{
    TestDir dir;
    Options opts = tinyOptions(dir.str());
    const Report report = runWorkload(opts);
    EXPECT_EQ(report.checksFailed, 0u) << (report.failures.empty()
                                               ? ""
                                               : report.failures.front());
    EXPECT_GT(report.checksAttempted, 0u);
    EXPECT_GE(report.chunkSamplesBeyondP90, 10u);
    ASSERT_FALSE(report.endToEnd.empty());
    for (const Metric &metric : report.endToEnd) {
        EXPECT_TRUE(validMetricName(metric.name)) << metric.name;
        EXPECT_TRUE(validUnit(metric.unit)) << metric.unit;
        EXPECT_GT(metric.value, 0.0) << metric.name;
    }
    EXPECT_NE(resultJson(report, false).find("\"correct\": true"),
              std::string::npos);
}

TEST(RunWorkload, TracedRunReportsLayersAndSpans)
{
    TestDir dir;
    Options opts = tinyOptions(dir.str());
    opts.trace = true;
    opts.seed = 3; // also exercises the fast-forward to windowStart()
    const Report report = runWorkload(opts);
    EXPECT_EQ(report.checksFailed, 0u);
    for (const char *name :
         {"sim.fetch_ns", "sim.schedule_ns", "sim.recovery_ns",
          "workload.oracle_ns", "trace.tc_hit_rate",
          "obs.profiler_overhead_frac"}) {
        EXPECT_NE(report.find(name), nullptr) << name;
    }
    for (const Metric &metric : report.perLayer)
        EXPECT_TRUE(validMetricName(metric.name)) << metric.name;
    EXPECT_GT(report.find("sim.schedule_ns")->value, 0.0);

    // Self times partition the root spans' time.
    std::uint64_t roots = 0;
    for (const Span &span : report.spans.spans()) {
        EXPECT_GE(span.endNs, span.startNs);
        if (span.parent < 0)
            roots += span.endNs - span.startNs;
    }
    std::uint64_t self = 0;
    for (const auto &[layer, ns] : report.spans.selfNsByLayer())
        self += ns;
    EXPECT_EQ(self, roots);
    EXPECT_EQ(report.spans.selfNsByLayer().count("workload"), 1u);
}

TEST(RunWorkload, ReplayMismatchIsCountedNotFatal)
{
    TestDir dir;
    Options opts = tinyOptions(dir.str());
    opts.injectReplayMismatch = true;
    const Report report = runWorkload(opts);
    EXPECT_EQ(report.failedReps, 0u);
    EXPECT_EQ(report.checksFailed, report.reps);
    EXPECT_LT(report.checksFailed, report.checksAttempted);
    EXPECT_NE(report.failures.front().find("outcomeHash"), std::string::npos);
    EXPECT_NE(resultJson(report, false).find("\"correct\": false"),
              std::string::npos);
}

TEST(RunWorkload, AbortedRepetitionIsCountedNotFatal)
{
    TestDir dir;
    Options opts = tinyOptions(dir.str());
    opts.injectAbort = true;
    setLogLevel(LogLevel::Silent);
    const Report report = runWorkload(opts);
    setLogLevel(LogLevel::Warn);
    EXPECT_EQ(report.failedReps, report.reps - 1);
    EXPECT_EQ(report.checksFailed, report.failedReps + 1); // + no samples
    EXPECT_TRUE(report.endToEnd.empty());
}

TEST(RunWorkload, AbortedTracedRepetitionLeavesSaneSelfTimes)
{
    TestDir dir;
    Options opts = tinyOptions(dir.str());
    opts.trace = true;
    opts.injectAbort = true;
    setLogLevel(LogLevel::Silent);
    const Report report = runWorkload(opts);
    setLogLevel(LogLevel::Warn);
    EXPECT_GT(report.failedReps, 0u);
    // The aborted reps' open spans are skipped, not counted as ~2^64 ns.
    for (const auto &[layer, ns] : report.spans.selfNsByLayer())
        EXPECT_LT(ns, 60'000'000'000ull) << layer;
}

TEST(RunGuarded, CatchesPanic)
{
    setLogLevel(LogLevel::Silent);
    EXPECT_FALSE(runGuarded([] { panic("deliberate"); }));
    setLogLevel(LogLevel::Warn);
    int ran = 0;
    EXPECT_TRUE(runGuarded([&] { ++ran; }));
    EXPECT_EQ(ran, 1);
}
