/**
 * @file
 * google-benchmark microbenchmarks of the hot simulator components:
 * cache lookups, multiple-branch prediction, fill-unit throughput,
 * functional execution, and whole-processor simulation speed.
 */

#include <benchmark/benchmark.h>

#include "bpred/bias_table.h"
#include "bpred/hybrid.h"
#include "bpred/multi.h"
#include "core/inst_ring.h"
#include "core/rename_overlay.h"
#include "memory/cache.h"
#include "sim/processor.h"
#include "trace/fill_unit.h"
#include "trace/trace_cache.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace
{

using namespace tcsim;

const workload::Program &
compressProgram()
{
    static const workload::Program program =
        workload::generateProgram(workload::findProfile("compress"));
    return program;
}

void
BM_CacheAccess(benchmark::State &state)
{
    memory::Cache cache(memory::CacheParams{"l1", 64 * 1024, 4, 64, 0},
                        nullptr, 50);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr, false));
        addr = (addr + 4096 + 64) & 0xfffff;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_TreeMbpPredict(benchmark::State &state)
{
    bpred::TreeMbp mbp;
    std::uint64_t hist = 0x123456789abcdefULL;
    Addr pc = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mbp.predict(pc, hist, 0, 0));
        hist = hist * 6364136223846793005ULL + 1;
        pc += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeMbpPredict);

void
BM_SplitMbpPredict(benchmark::State &state)
{
    bpred::SplitMbp mbp;
    std::uint64_t hist = 0x123456789abcdefULL;
    Addr pc = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mbp.predict(pc, hist, 0, 0));
        hist = hist * 6364136223846793005ULL + 1;
        pc += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SplitMbpPredict);

/** Build a small straight-line segment starting at @p start. */
trace::TraceSegment
makeSegment(Addr start)
{
    trace::TraceSegment segment;
    segment.startAddr = start;
    for (unsigned i = 0; i < trace::kMaxSegmentInsts; ++i) {
        trace::TraceInst ti;
        ti.inst = isa::Instruction{isa::Opcode::Add, 10, 11, 12, 0};
        ti.pc = start + i * isa::kInstBytes;
        segment.insts.push_back(ti);
    }
    return segment;
}

void
BM_TraceCacheLookupHit(benchmark::State &state)
{
    // The per-fetch probe: cycle through resident segments so every
    // lookup hits (the trace-cache steady state of a hot loop).
    trace::TraceCache cache(trace::TraceCacheParams{2048, 4});
    constexpr unsigned kResident = 256;
    for (unsigned i = 0; i < kResident; ++i)
        cache.insert(makeSegment(0x1000 + i * 64));
    unsigned i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.lookup(0x1000 + (i++ % kResident) * 64));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceCacheLookupHit);

void
BM_TraceCacheLookupAllPathAssoc(benchmark::State &state)
{
    // The path-associative probe with a caller-owned scratch vector —
    // the allocation-free pattern the fetch engine uses per cycle.
    trace::TraceCacheParams params{2048, 4};
    params.pathAssociativity = true;
    trace::TraceCache cache(params);
    constexpr unsigned kResident = 256;
    for (unsigned i = 0; i < kResident; ++i)
        cache.insert(makeSegment(0x1000 + i * 64));
    std::vector<const trace::TraceSegment *> candidates;
    unsigned i = 0;
    for (auto _ : state) {
        cache.lookupAll(0x1000 + (i++ % kResident) * 64, candidates);
        benchmark::DoNotOptimize(candidates.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceCacheLookupAllPathAssoc);

void
BM_HybridPredict(benchmark::State &state)
{
    bpred::HybridPredictor hybrid;
    std::uint64_t hist = 0x123456789abcdefULL;
    Addr pc = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hybrid.predict(pc, hist));
        hist = hist * 6364136223846793005ULL + 1;
        pc += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HybridPredict);

void
BM_BiasTableUpdate(benchmark::State &state)
{
    // The per-retired-branch bias-table update driving promotion.
    bpred::BranchBiasTable table(bpred::BiasTableParams{});
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    for (auto _ : state) {
        rng = rng * 6364136223846793005ULL + 1;
        const Addr pc = 0x1000 + (rng >> 33) % 4096 * 4;
        table.update(pc, (rng >> 17) & 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BiasTableUpdate);

void
BM_BiasTableAdvice(benchmark::State &state)
{
    // The per-retired-branch promotion-advice probe on the packed
    // 8-byte-entry table (eight entries per cache line). Warm the
    // whole table first so the scan measures lookup locality, not
    // cold-miss handling.
    bpred::BranchBiasTable table(bpred::BiasTableParams{});
    for (std::uint32_t i = 0; i < 8192; ++i)
        table.update(0x1000 + Addr{i} * 4, true);
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    std::uint64_t hits = 0;
    for (auto _ : state) {
        rng = rng * 6364136223846793005ULL + 1;
        const Addr pc = 0x1000 + (rng >> 33) % 8192 * 4;
        hits += table.advice(pc).promote;
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BiasTableAdvice);

void
BM_BiasTableAdviceWideLayout(benchmark::State &state)
{
    // Reference point for the packed layout: the same random probe
    // stream over a 16-byte-per-entry table (the pre-packing shape:
    // u64 tag + u32 meta + padding, four entries per cache line).
    // The delta against BM_BiasTableAdvice is the cache-locality win
    // of the 8-byte entries.
    struct WideEntry
    {
        std::uint64_t tag = ~std::uint64_t{0};
        std::uint32_t meta = 0;
    };
    static_assert(sizeof(WideEntry) == 16, "pre-packing entry shape");
    std::vector<WideEntry> entries(8192);
    for (std::uint32_t i = 0; i < 8192; ++i) {
        entries[i].tag = (0x1000 / 4 + i) >> 13;
        entries[i].meta = (1u << 29) | 64;
    }
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    std::uint64_t hits = 0;
    for (auto _ : state) {
        rng = rng * 6364136223846793005ULL + 1;
        const Addr pc = 0x1000 + (rng >> 33) % 8192 * 4;
        const std::uint64_t word = pc / 4;
        const WideEntry &entry = entries[word & 8191];
        hits += entry.tag == word >> 13 && (entry.meta & (1u << 29));
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BiasTableAdviceWideLayout);

void
BM_FillUnitThroughput(benchmark::State &state)
{
    trace::TraceCache cache(trace::TraceCacheParams{2048, 4});
    trace::FillUnitParams params;
    params.packing = trace::PackingPolicy::Unregulated;
    params.promotion = true;
    trace::FillUnit unit(params, cache);

    trace::RetiredInst alu;
    alu.inst = isa::Instruction{isa::Opcode::Add, 10, 11, 12, 0};
    trace::RetiredInst br;
    br.inst = isa::Instruction{isa::Opcode::Bne, 0, 4, 0, 8};
    br.taken = true;

    Addr pc = 0x1000;
    unsigned i = 0;
    for (auto _ : state) {
        trace::RetiredInst inst = (++i % 6 == 0) ? br : alu;
        inst.pc = pc;
        pc = (pc + 4) & 0xffff;
        unit.retire(inst);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FillUnitThroughput);

void
BM_FillUnitSegmentBuild(benchmark::State &state)
{
    // Finalize-heavy stream: short blocks ending in Ret terminate a
    // segment each, so every iteration exercises the full build →
    // insert → reset cycle. Measures the segment-build allocation
    // path (pending_ buffer recycling via TraceCache::insert swap).
    trace::TraceCache cache(trace::TraceCacheParams{256, 4});
    trace::FillUnitParams params;
    params.packing = trace::PackingPolicy::CostRegulated;
    trace::FillUnit unit(params, cache);

    trace::RetiredInst alu;
    alu.inst = isa::Instruction{isa::Opcode::Add, 10, 11, 12, 0};
    trace::RetiredInst ret;
    ret.inst = isa::Instruction{isa::Opcode::Ret, 0, isa::kRegRa, 0, 0};

    Addr pc = 0x1000;
    for (auto _ : state) {
        for (unsigned i = 0; i < 7; ++i) {
            trace::RetiredInst inst = alu;
            inst.pc = pc;
            pc += 4;
            unit.retire(inst);
        }
        trace::RetiredInst inst = ret;
        inst.pc = pc;
        pc = 0x1000 + ((pc + 4) & 0x3fff);
        unit.retire(inst);
    }
    state.SetItemsProcessed(state.iterations()); // one segment per iter
}
BENCHMARK(BM_FillUnitSegmentBuild);

void
BM_FunctionalExecution(benchmark::State &state)
{
    workload::FunctionalExecutor exec(compressProgram());
    for (auto _ : state)
        benchmark::DoNotOptimize(exec.step());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FunctionalExecution);

void
BM_InstRingAllocate(benchmark::State &state)
{
    // Dispatch-and-retire cost of one window slot: a 512-slot ring
    // (the default ROB) held at 384 in flight allocates one fetched
    // instruction and retires the oldest per iteration.
    core::InstRing ring(512);
    fetch::FetchedInst fetched;
    fetched.inst = {isa::Opcode::Add, 3, 1, 2, 0};
    fetched.pc = 0x1000;
    for (unsigned i = 0; i < 384; ++i)
        ring.allocate(fetched);
    for (auto _ : state) {
        fetched.pc += isa::kInstBytes;
        core::DynInst &di = ring.allocate(fetched);
        benchmark::DoNotOptimize(&di);
        ring.popFront();
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InstRingAllocate);

void
BM_ProcessorSimulation(benchmark::State &state)
{
    // Whole-machine simulation speed in retired instructions/second.
    std::int64_t retired = 0;
    for (auto _ : state) {
        sim::Processor proc(sim::promotionPackingConfig(),
                            compressProgram());
        proc.run(20000);
        benchmark::DoNotOptimize(proc.retiredInsts());
        retired += static_cast<std::int64_t>(proc.retiredInsts());
    }
    state.SetItemsProcessed(retired);
}
BENCHMARK(BM_ProcessorSimulation)->Unit(benchmark::kMillisecond);

/** Promotion+packing config with an @p rob_entries-entry window (the
 * checkpoint pool is scaled up so it never caps the window). */
sim::ProcessorConfig
windowConfig(std::uint32_t rob_entries, bool speculative)
{
    sim::ProcessorConfig config = sim::promotionPackingConfig(64);
    config.robEntries = rob_entries;
    config.checkpoints = std::max(64u, rob_entries / 4);
    if (speculative)
        config.disambiguation = sim::Disambiguation::Speculative;
    return config;
}

void
BM_StoreViolationWindow(benchmark::State &state)
{
    // Per-event cost of the store-order-violation and load
    // disambiguation checks as the in-flight window grows: compress
    // under speculative disambiguation exercises both on every store
    // address resolution and load schedule. With the indexed lookups
    // the time per retired instruction should stay flat from 64- to
    // 1024-entry windows.
    const sim::ProcessorConfig config = windowConfig(
        static_cast<std::uint32_t>(state.range(0)), true);
    std::int64_t retired = 0;
    for (auto _ : state) {
        sim::Processor proc(config, compressProgram());
        proc.run(24000);
        benchmark::DoNotOptimize(proc.retiredInsts());
        retired += static_cast<std::int64_t>(proc.retiredInsts());
    }
    state.SetItemsProcessed(retired);
}
BENCHMARK(BM_StoreViolationWindow)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void
BM_BlockedLoadWindow(benchmark::State &state)
{
    // Per-attempt cost of scheduling loads that conservative
    // disambiguation blocks behind unknown-address stores (the default
    // policy, which BM_StoreViolationWindow bypasses). A full window
    // holds many such loads, each rotating through the ready queue
    // every cycle. With cached verdicts a re-attempt scans only the
    // store events since the last one, so the time per retired
    // instruction should grow well under 2x from 64- to 1024-entry
    // windows. compress fills its window only once the front end is
    // warm, so a functional warm-up skips the cold start; items count
    // only the detailed instructions.
    constexpr std::uint64_t kSkip = 300000;
    const sim::ProcessorConfig config = windowConfig(
        static_cast<std::uint32_t>(state.range(0)), false);
    std::int64_t retired = 0;
    for (auto _ : state) {
        sim::Processor proc(config, compressProgram());
        proc.functionalWarmup(kSkip);
        proc.run(kSkip + 24000);
        benchmark::DoNotOptimize(proc.retiredInsts());
        retired += static_cast<std::int64_t>(proc.retiredInsts() - kSkip);
    }
    state.SetItemsProcessed(retired);
}
BENCHMARK(BM_BlockedLoadWindow)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void
BM_FaultRecoveryWindow(benchmark::State &state)
{
    // Per-event cost of promoted-branch fault recovery (checkpoint
    // selection + override-skip counting) as the window grows:
    // gnuchess under promotion+packing has the densest promoted-fault
    // rate in the suite.
    const sim::ProcessorConfig config = windowConfig(
        static_cast<std::uint32_t>(state.range(0)), false);
    static const workload::Program program =
        workload::generateProgram(workload::findProfile("gnuchess"));
    std::int64_t retired = 0;
    for (auto _ : state) {
        sim::Processor proc(config, program);
        proc.run(24000);
        benchmark::DoNotOptimize(proc.retiredInsts());
        retired += static_cast<std::int64_t>(proc.retiredInsts());
    }
    state.SetItemsProcessed(retired);
}
BENCHMARK(BM_FaultRecoveryWindow)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------------------
// Shadow-rename fork cost: full RAT copy (the old dispatch scheme)
// vs. the copy-on-write RenameOverlay. Each iteration forks once and
// renames a short inactive tail (4 reads + 4 writes), the typical
// shape of a post-divergence segment tail.
// ----------------------------------------------------------------------

struct MockRatEntry
{
    bool isValue = true;
    RegVal value = 0;
    InstSeqNum tag = 0;
};
using MockRat = std::array<MockRatEntry, isa::kNumArchRegs>;

MockRat
makeMockRat()
{
    MockRat rat;
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        rat[r] = MockRatEntry{(r % 3) != 0, r * 7ull, r + 100ull};
    return rat;
}

void
BM_ShadowRenameFullCopy(benchmark::State &state)
{
    const MockRat rat = makeMockRat();
    std::uint64_t seq = 1;
    for (auto _ : state) {
        MockRat shadow = rat; // the old fork: copy all entries
        std::uint64_t sum = 0;
        for (unsigned i = 0; i < 4; ++i) {
            const unsigned r = (i * 5 + 3) & (isa::kNumArchRegs - 1);
            sum += shadow[r].value;
            shadow[r] = MockRatEntry{false, 0, seq++};
        }
        benchmark::DoNotOptimize(sum);
        benchmark::DoNotOptimize(shadow);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowRenameFullCopy);

void
BM_ShadowRenameOverlay(benchmark::State &state)
{
    const MockRat rat = makeMockRat();
    core::RenameOverlay<MockRatEntry, isa::kNumArchRegs> shadow;
    std::uint64_t seq = 1;
    for (auto _ : state) {
        shadow.fork(rat); // O(1) fork
        std::uint64_t sum = 0;
        for (unsigned i = 0; i < 4; ++i) {
            const unsigned r = (i * 5 + 3) & (isa::kNumArchRegs - 1);
            sum += shadow.get(r).value;
            shadow.set(r, MockRatEntry{false, 0, seq++});
        }
        benchmark::DoNotOptimize(sum);
        shadow.reset();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowRenameOverlay);

} // namespace

BENCHMARK_MAIN();
