/**
 * @file
 * Tests for the sweep engine: stable unit enumeration and content
 * hashing, the byte-identity of the scheduler's fold of delivered
 * fragments against the single-process document, and the one
 * fragment-validity predicate (readFragment) that resume and the
 * /complete heal path share — missing, stale, corrupt, renamed and
 * truncated-mid-record fragments.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/sched.h"
#include "bench/store.h"
#include "bench/sweep.h"
#include "common/json.h"
#include "scratch_dir.h"
#include "sim/config.h"

namespace
{

using namespace tcsim;
using namespace tcsim::bench;

SweepOptions
smallMatrix()
{
    SweepOptions options;
    options.benchmarks = {"compress", "li"};
    options.configs = {sim::baselineConfig(), sim::promotionConfig(64)};
    options.insts = 8000;
    return options;
}

TEST(SweepUnits, EnumerationIsStableAndConfigMajor)
{
    const SweepOptions options = smallMatrix();
    const std::vector<WorkUnit> units = enumerateUnits(options);
    ASSERT_EQ(units.size(), 4u);
    // Config-major, matching sweepMatrix: all benchmarks of config 0
    // first, so fragments line up with the exhibit tables.
    EXPECT_EQ(units[0].benchmark, "compress");
    EXPECT_EQ(units[1].benchmark, "li");
    EXPECT_EQ(units[0].config.name, units[1].config.name);
    EXPECT_EQ(units[2].benchmark, "compress");
    EXPECT_NE(units[0].config.name, units[2].config.name);
    for (std::size_t i = 0; i < units.size(); ++i) {
        EXPECT_EQ(units[i].index, i);
        EXPECT_EQ(units[i].id, units[i].benchmark + "@" +
                                   units[i].config.name + "@8000");
        EXPECT_EQ(units[i].hash.size(), 16u);
    }
    // A second enumeration reproduces ids and hashes exactly.
    const std::vector<WorkUnit> again = enumerateUnits(options);
    ASSERT_EQ(again.size(), units.size());
    for (std::size_t i = 0; i < units.size(); ++i) {
        EXPECT_EQ(again[i].id, units[i].id);
        EXPECT_EQ(again[i].hash, units[i].hash);
    }
    EXPECT_EQ(matrixHash(again), matrixHash(units));
}

TEST(SweepUnits, HashTracksEveryResultInput)
{
    const SweepOptions base = smallMatrix();
    const std::vector<WorkUnit> units = enumerateUnits(base);

    SweepOptions warmed = base;
    warmed.warmup = 5000;
    const std::vector<WorkUnit> warmed_units = enumerateUnits(warmed);
    ASSERT_EQ(warmed_units.size(), units.size());
    for (std::size_t i = 0; i < units.size(); ++i)
        EXPECT_NE(warmed_units[i].hash, units[i].hash);

    SweepOptions retuned = base;
    retuned.configs[0].fetchWidth += 1; // any behavioral config change
    const std::vector<WorkUnit> retuned_units = enumerateUnits(retuned);
    EXPECT_NE(retuned_units[0].hash, units[0].hash);
    // Units of the untouched config keep their hashes.
    EXPECT_EQ(retuned_units[2].hash, units[2].hash);
}

TEST(SweepUnits, ConfigByNameResolvesPresets)
{
    for (const char *name :
         {"icache", "baseline", "promotion-t64", "promotion-t16",
          "packing-atomic", "packing-cost-regulated",
          "promo-pack-n-regulated", "promo-pack-unregulated"}) {
        const auto config = configByName(name);
        ASSERT_TRUE(config.has_value()) << name;
        EXPECT_EQ(config->name, name);
    }
    EXPECT_FALSE(configByName("nonsense").has_value());
    EXPECT_FALSE(configByName("promotion-t").has_value());
    EXPECT_FALSE(configByName("packing-bogus").has_value());
}

SweepOptions
sampledMatrix()
{
    SweepOptions options = smallMatrix();
    options.insts = 40000;
    options.warmup = 2000;
    options.sampled.enabled = true;
    options.sampled.interval = 10000;
    options.sampled.maxK = 2;
    return options;
}

TEST(SweepUnits, SampledDimensionInIdsAndHashes)
{
    const std::vector<WorkUnit> sampled =
        enumerateUnits(sampledMatrix());
    ASSERT_EQ(sampled.size(), 4u);
    EXPECT_EQ(sampled[0].id,
              "compress@baseline@40000@sampled-i10000-k2-w2000");

    SweepOptions full = sampledMatrix();
    full.sampled = SampledParams{};
    const std::vector<WorkUnit> full_units = enumerateUnits(full);
    for (std::size_t i = 0; i < sampled.size(); ++i)
        EXPECT_NE(sampled[i].hash, full_units[i].hash);

    // Every sampled parameter feeds the hash.
    SweepOptions finer = sampledMatrix();
    finer.sampled.interval = 5000;
    EXPECT_NE(enumerateUnits(finer)[0].hash, sampled[0].hash);
    SweepOptions wider = sampledMatrix();
    wider.sampled.maxK = 3;
    EXPECT_NE(enumerateUnits(wider)[0].hash, sampled[0].hash);
}

TEST(SweepSampled, DegenerateParametersReproduceFullIntegers)
{
    // One interval, one cluster, no warm-up: the sampled path must
    // collapse to exactly the full run's integers.
    SweepOptions degenerate = smallMatrix();
    degenerate.insts = 20000;
    degenerate.sampled.enabled = true;
    degenerate.sampled.interval = 20000;
    degenerate.sampled.maxK = 1;
    const WorkUnit sampled_unit = enumerateUnits(degenerate)[0];

    SweepOptions full = degenerate;
    full.sampled = SampledParams{};
    const WorkUnit full_unit = enumerateUnits(full)[0];

    const ResultIntegers s = executeUnitIntegers(sampled_unit);
    const ResultIntegers f = executeUnitIntegers(full_unit);
    EXPECT_EQ(s.instructions, f.instructions);
    EXPECT_EQ(s.cycles, f.cycles);
    EXPECT_EQ(s.condBranches, f.condBranches);
    EXPECT_EQ(s.condMispredicts, f.condMispredicts);
    EXPECT_EQ(s.usefulFetches, f.usefulFetches);
    EXPECT_EQ(s.fetchedInsts, f.fetchedInsts);
    EXPECT_EQ(s.tcLookups, f.tcLookups);
    EXPECT_EQ(s.tcHits, f.tcHits);
    EXPECT_EQ(s.icacheMisses, f.icacheMisses);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(s.fetchesNeedingPreds[i], f.fetchesNeedingPreds[i]);
}

TEST(SweepSampled, WeightedEstimateTracksFullRun)
{
    // The sampled weighted estimate must land near the full run even
    // at test scale (tight calibration happens at 4M in the bench
    // suite; this guards gross regressions in weighting or warm-up).
    for (const WorkUnit &unit : enumerateUnits(sampledMatrix())) {
        WorkUnit full_unit = unit;
        full_unit.sampled = SampledParams{};
        const ResultIntegers s = executeUnitIntegers(unit);
        const ResultIntegers f = executeUnitIntegers(full_unit);
        const double sampled_ipc =
            static_cast<double>(s.instructions) /
            static_cast<double>(s.cycles);
        const double full_ipc = static_cast<double>(f.instructions) /
                                static_cast<double>(f.cycles);
        EXPECT_NEAR(sampled_ipc / full_ipc, 1.0, 0.15) << unit.id;
    }
}

/**
 * Deliver each unit's fragment in @p order, as pulled workers do:
 * rendered by renderFragment, parsed back by parseFragmentBytes and
 * folded by Scheduler::complete. Alternating worker names stand in
 * for two workers. @return the document the scheduler renders.
 */
std::string
foldThroughScheduler(const std::vector<WorkUnit> &units,
                     const std::vector<ResultIntegers> &integers,
                     const std::vector<std::size_t> &order)
{
    Scheduler sched(units, SchedOptions{});
    double now = 0.0;
    for (const std::size_t i : order) {
        UnitTiming timing;
        timing.wallSeconds = 0.125 * static_cast<double>(i + 1);
        FragmentData fragment;
        EXPECT_TRUE(parseFragmentBytes(
            renderFragment(units[i], integers[i], timing), fragment));
        EXPECT_EQ(fragment.hash, units[i].hash);
        EXPECT_EQ(sched.complete("w" + std::to_string(i % 2),
                                 fragment.hash, fragment.integers,
                                 now += 1.0),
                  Scheduler::CompleteStatus::Accepted);
    }
    EXPECT_TRUE(sched.done());
    return sched.renderResults();
}

std::vector<std::size_t>
inOrder(std::size_t count)
{
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < count; ++i)
        order.push_back(i);
    return order;
}

TEST(SweepMergeTest, TwoShardMergeIsByteIdentical)
{
    // The tentpole guarantee: fragments delivered by independent
    // workers fold into exactly the bytes the single-process path
    // renders — because both funnel through the one canonical
    // renderer on the same deterministic integers.
    const SweepOptions options = smallMatrix();
    const std::vector<WorkUnit> units = enumerateUnits(options);

    std::vector<ResultIntegers> integers;
    for (const WorkUnit &unit : units)
        integers.push_back(integersOf(executeUnit(unit)));
    const std::string single = renderResultsDoc(units, integers);

    EXPECT_EQ(foldThroughScheduler(units, integers, inOrder(units.size())),
              single); // byte-identical
}

TEST(SweepMergeTest, SampledShardedMergeIsByteIdentical)
{
    // The byte-identity contract extends to sampled units: fragments
    // carry the same deterministic integers the single-process
    // renderer consumes, sampled dimension included.
    const SweepOptions options = sampledMatrix();
    const std::vector<WorkUnit> units = enumerateUnits(options);

    std::vector<ResultIntegers> integers;
    for (const WorkUnit &unit : units)
        integers.push_back(executeUnitIntegers(unit));
    const std::string single = renderResultsDoc(units, integers);
    EXPECT_NE(single.find("\"sampled_interval\""), std::string::npos);

    EXPECT_EQ(foldThroughScheduler(units, integers, inOrder(units.size())),
              single);
}

TEST(SweepMergeTest, ServerProfileShardedMergeIsByteIdentical)
{
    // Server-class profiles must hold the same determinism contract
    // as the legacy suite: any worker layout (TCSIM_JOBS, pulled
    // workers) reproduces the single-process document byte for byte.
    // Each unit is executed twice — as two independent workers would
    // — and both the integers and the folded bytes must agree.
    SweepOptions options;
    options.benchmarks = {"server-oltp", "server-web"};
    options.configs = {sim::baselineConfig(), sim::promotionConfig(64)};
    options.insts = 8000;
    const std::vector<WorkUnit> units = enumerateUnits(options);
    ASSERT_EQ(units.size(), 4u);

    std::vector<ResultIntegers> integers;
    for (const WorkUnit &unit : units) {
        const ResultIntegers first = integersOf(executeUnit(unit));
        const ResultIntegers second = integersOf(executeUnit(unit));
        EXPECT_EQ(first.instructions, second.instructions) << unit.id;
        EXPECT_EQ(first.cycles, second.cycles) << unit.id;
        EXPECT_EQ(first.condMispredicts, second.condMispredicts)
            << unit.id;
        EXPECT_EQ(first.tcHits, second.tcHits) << unit.id;
        EXPECT_EQ(first.icacheMisses, second.icacheMisses) << unit.id;
        integers.push_back(first);
    }
    const std::string single = renderResultsDoc(units, integers);

    // Fragments land in reverse order — worker completion order must
    // not matter to the folded bytes.
    EXPECT_EQ(foldThroughScheduler(units, integers, {3, 2, 1, 0}), single);
}

TEST(SweepMergeTest, ReplayUnitsShardAndMergeByteIdentical)
{
    // The @replay dimension rides the same fragment pipeline: replay
    // units are deterministic (the btrace artifact is recorded from
    // the same oracle every time), their ids and hashes carry the
    // replay marker, and the scheduler's fold reproduces the
    // single-process document.
    SweepOptions options;
    options.benchmarks = {"compress", "server-oltp"};
    options.configs = {sim::baselineConfig()};
    options.insts = 8000;
    options.replay = true;
    const std::vector<WorkUnit> units = enumerateUnits(options);
    ASSERT_EQ(units.size(), 2u);
    EXPECT_EQ(units[0].id, "compress@baseline@8000@replay");

    SweepOptions cycle_options = options;
    cycle_options.replay = false;
    const std::vector<WorkUnit> cycle = enumerateUnits(cycle_options);
    for (std::size_t i = 0; i < units.size(); ++i)
        EXPECT_NE(units[i].hash, cycle[i].hash);

    std::vector<ResultIntegers> integers;
    for (const WorkUnit &unit : units) {
        const ResultIntegers first = executeUnitIntegers(unit);
        const ResultIntegers second = executeUnitIntegers(unit);
        EXPECT_EQ(first.instructions, second.instructions) << unit.id;
        EXPECT_EQ(first.condMispredicts, second.condMispredicts)
            << unit.id;
        EXPECT_EQ(first.tcLookups, second.tcLookups) << unit.id;
        EXPECT_EQ(first.tcHits, second.tcHits) << unit.id;
        EXPECT_EQ(first.icacheMisses, second.icacheMisses) << unit.id;
        // Replay drives the front end only: no pipeline cycles.
        EXPECT_EQ(first.cycles, 0u) << unit.id;
        EXPECT_EQ(first.instructions, options.insts) << unit.id;
        integers.push_back(first);
    }
    const std::string single = renderResultsDoc(units, integers);

    EXPECT_EQ(foldThroughScheduler(units, integers, inOrder(units.size())),
              single);
}

TEST(SweepMergeTest, ExecuteUnitIsDeterministic)
{
    const std::vector<WorkUnit> units = enumerateUnits(smallMatrix());
    const ResultIntegers a = integersOf(executeUnit(units[0]));
    const ResultIntegers b = integersOf(executeUnit(units[0]));
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.condMispredicts, b.condMispredicts);
    EXPECT_EQ(a.tcHits, b.tcHits);
    EXPECT_GE(a.instructions, 8000u);
}

// ---------------------------------------------------------------------
// The fragment-validity predicate, through the scheduler's resume scan.
// ---------------------------------------------------------------------

/** Store @p unit's fragment under its own "<hash>.json" name. */
void
putFragment(FragmentStore &store, const WorkUnit &unit,
            const ResultIntegers &integers,
            const std::string &name = "")
{
    ASSERT_TRUE(store.put(name.empty() ? unit.hash + ".json" : name,
                          renderFragment(unit, integers, UnitTiming{})));
}

TEST(SweepMergeTest, MissingFragmentsReported)
{
    // One unit's fragment in the store: resume fills exactly that
    // unit, the status document counts the rest pending, and the
    // holes are what gets dispatched.
    const testing_util::ScratchDir scratch;
    FragmentStore store(scratch.path());
    const std::vector<WorkUnit> units = enumerateUnits(smallMatrix());
    putFragment(store, units[0], integersOf(executeUnit(units[0])));

    Scheduler sched(units, SchedOptions{});
    EXPECT_EQ(resumeFromStore(sched, store), 1u);
    EXPECT_FALSE(sched.done());
    const auto status = json::parse(sched.renderStatus(0.0));
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->getUint64("completed"), 1u);
    EXPECT_EQ(status->getUint64("pending"), units.size() - 1);
    LeaseGrant grant;
    ASSERT_EQ(sched.acquire("w1", 0.0, grant), AcquireStatus::Granted);
    EXPECT_EQ(grant.hash, units[1].hash);
}

TEST(SweepMergeTest, StaleFragmentsSkippedButMergeCompletes)
{
    // A fragment from yesterday's matrix (different warm-up, so a
    // different content hash) is a valid fragment, but not one of
    // this matrix: resume must ignore it, not fold it.
    const testing_util::ScratchDir scratch;
    FragmentStore store(scratch.path());
    SweepOptions options = smallMatrix();
    SweepOptions stale_options = options;
    stale_options.warmup = 2000;
    const WorkUnit stale_unit = enumerateUnits(stale_options)[0];
    putFragment(store, stale_unit, integersOf(executeUnit(stale_unit)));
    EXPECT_TRUE(readFragment(store, stale_unit.hash + ".json").has_value());

    const std::vector<WorkUnit> units = enumerateUnits(options);
    std::vector<ResultIntegers> integers;
    for (const WorkUnit &unit : units) {
        integers.push_back(integersOf(executeUnit(unit)));
        putFragment(store, unit, integers.back());
    }

    Scheduler sched(units, SchedOptions{});
    EXPECT_EQ(resumeFromStore(sched, store), units.size());
    ASSERT_TRUE(sched.done());
    EXPECT_EQ(sched.renderResults(), renderResultsDoc(units, integers));
}

TEST(SweepMergeTest, CorruptFragmentsBlockTheMerge)
{
    // Garbage under a real unit's name and garbage under a made-up
    // name: neither counts, so the merge cannot finish until the
    // damaged unit is simulated again.
    const testing_util::ScratchDir scratch;
    FragmentStore store(scratch.path());
    const std::vector<WorkUnit> units = enumerateUnits(smallMatrix());
    for (const WorkUnit &unit : units)
        putFragment(store, unit, integersOf(executeUnit(unit)));
    ASSERT_TRUE(store.put(units[1].hash + ".json", "{ not json",
                          /*overwrite=*/true));
    ASSERT_TRUE(store.put("garbage.json", "{ not json"));
    EXPECT_FALSE(readFragment(store, units[1].hash + ".json").has_value());
    EXPECT_FALSE(readFragment(store, "garbage.json").has_value());

    Scheduler sched(units, SchedOptions{});
    EXPECT_EQ(resumeFromStore(sched, store), units.size() - 1);
    EXPECT_FALSE(sched.done());
    LeaseGrant grant;
    ASSERT_EQ(sched.acquire("w1", 0.0, grant), AcquireStatus::Granted);
    EXPECT_EQ(grant.hash, units[1].hash);
}

TEST(SweepMergeTest, RenamedFragmentIsCorruptNotTrusted)
{
    // The name stem must match the embedded hash; a renamed object
    // cannot claim another unit's slot.
    const testing_util::ScratchDir scratch;
    FragmentStore store(scratch.path());
    const std::vector<WorkUnit> units = enumerateUnits(smallMatrix());
    putFragment(store, units[0], integersOf(executeUnit(units[0])),
                units[1].hash + ".json");
    EXPECT_FALSE(readFragment(store, units[1].hash + ".json").has_value());

    Scheduler sched(units, SchedOptions{});
    EXPECT_EQ(resumeFromStore(sched, store), 0u);
}

TEST(SweepMergeTest, TruncatedMidRecordFragmentIsRejected)
{
    // A torn upload from a dying worker can still be valid JSON: the
    // schema and unit header survive, the result record does not.
    const testing_util::ScratchDir scratch;
    FragmentStore store(scratch.path());
    const std::vector<WorkUnit> units = enumerateUnits(smallMatrix());
    const std::string torn =
        "{\"schema\": \"tcsim-bench-fragment-v1\",\n"
        " \"unit\": {\"index\": 0, \"id\": \"" + units[0].id +
        "\", \"hash\": \"" + units[0].hash + "\"},\n"
        " \"result\": {\"benchmark\": \"compress\", "
        "\"config\": \"baseline\", \"instructions\": 8000}}\n";
    ASSERT_TRUE(json::parse(torn).has_value());
    ASSERT_TRUE(store.put(units[0].hash + ".json", torn));

    FragmentData parsed;
    EXPECT_FALSE(parseFragmentBytes(torn, parsed));
    EXPECT_FALSE(readFragment(store, units[0].hash + ".json").has_value());
    Scheduler sched(units, SchedOptions{});
    EXPECT_EQ(resumeFromStore(sched, store), 0u);
}

} // namespace
