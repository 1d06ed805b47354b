/**
 * @file
 * Tests for the workload substrate: program builder, functional
 * executor, sparse memory, generator determinism and the benchmark
 * suite's stream properties.
 */

#include <gtest/gtest.h>

#include "workload/builder.h"
#include "workload/characterize.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/profile.h"
#include "workload/program.h"

namespace tcsim::workload
{
namespace
{

using isa::Opcode;

// ----------------------------------------------------------------------
// SparseMemory.
// ----------------------------------------------------------------------

TEST(SparseMemory, UnmappedReadsZero)
{
    SparseMemory mem;
    EXPECT_EQ(mem.load(0x123456789ULL), 0u);
    EXPECT_EQ(mem.numPages(), 0u);
}

TEST(SparseMemory, StoreLoadRoundTrip)
{
    SparseMemory mem;
    mem.store(0x1000, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mem.load(0x1000), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mem.numPages(), 1u);
}

TEST(SparseMemory, AccessesForceAligned)
{
    SparseMemory mem;
    mem.store(0x1003, 42); // aligns down to 0x1000
    EXPECT_EQ(mem.load(0x1000), 42u);
    EXPECT_EQ(mem.load(0x1007), 42u);
    EXPECT_EQ(mem.load(0x1008), 0u);
}

TEST(SparseMemory, DistinctPages)
{
    SparseMemory mem;
    mem.store(0x0, 1);
    mem.store(0x10000, 2);
    EXPECT_EQ(mem.numPages(), 2u);
    EXPECT_EQ(mem.load(0x0), 1u);
    EXPECT_EQ(mem.load(0x10000), 2u);
}

// ----------------------------------------------------------------------
// ProgramBuilder.
// ----------------------------------------------------------------------

TEST(Builder, ForwardAndBackwardBranchFixups)
{
    ProgramBuilder b("t");
    Label top = b.here();
    b.addi(3, 3, 1);
    Label fwd = b.newLabel();
    b.beq(3, 0, fwd);   // forward
    b.bne(3, 0, top);   // backward
    b.bind(fwd);
    b.halt();
    Program p = b.build();

    const isa::Instruction &beq = p.fetch(kCodeBase + 4);
    EXPECT_EQ(isa::directTarget(beq, kCodeBase + 4), kCodeBase + 12);
    const isa::Instruction &bne = p.fetch(kCodeBase + 8);
    EXPECT_EQ(isa::directTarget(bne, kCodeBase + 8), kCodeBase);
}

TEST(Builder, DataAllocationAlignedAndDisjoint)
{
    ProgramBuilder b("t");
    const Addr a1 = b.allocData(10);
    const Addr a2 = b.allocData(8);
    EXPECT_EQ(a1 % 8, 0u);
    EXPECT_EQ(a2 % 8, 0u);
    EXPECT_GE(a2, a1 + 10);
    b.halt();
    (void)b.build();
}

TEST(Builder, DataLabelsResolveToCode)
{
    ProgramBuilder b("t");
    const Addr slot = b.allocData(8);
    b.nop();
    Label target = b.newLabel();
    b.setDataLabel(slot, target);
    b.bind(target);
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.initData().at(slot), kCodeBase + 4);
}

TEST(Builder, LoadImm64TwoInstructionSequence)
{
    ProgramBuilder b("t");
    b.loadImm64(5, 0xabcd1234);
    b.halt();
    Program p = b.build();
    FunctionalExecutor exec(p);
    exec.step();
    exec.step();
    EXPECT_EQ(exec.reg(5), 0xabcd1234u);
}

TEST(Builder, EntryDefaultsToCodeBase)
{
    ProgramBuilder b("t");
    b.halt();
    EXPECT_EQ(b.build().entry(), kCodeBase);
}

TEST(Builder, GeneratedEncodingsRoundTrip)
{
    // Every instruction a generated benchmark emits must be encodable.
    BenchmarkProfile profile = benchmarkSuite().front();
    profile.numFunctions = 12;
    Program p = generateProgram(profile);
    for (Addr a = p.codeBase(); a < p.codeLimit(); a += isa::kInstBytes) {
        const isa::Instruction &inst = p.fetch(a);
        ASSERT_EQ(isa::decode(isa::encode(inst)), inst)
            << isa::disassemble(inst, a);
    }
}

// ----------------------------------------------------------------------
// Program image.
// ----------------------------------------------------------------------

TEST(Program, FetchOutsideCodeReturnsNop)
{
    ProgramBuilder b("t");
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.fetch(0x4).op, Opcode::Nop);
    EXPECT_EQ(p.fetch(p.codeLimit()).op, Opcode::Nop);
    EXPECT_EQ(p.fetch(kCodeBase + 2).op, Opcode::Nop); // misaligned
}

TEST(Program, IsCodeBounds)
{
    ProgramBuilder b("t");
    b.nop();
    b.halt();
    Program p = b.build();
    EXPECT_TRUE(p.isCode(kCodeBase));
    EXPECT_TRUE(p.isCode(kCodeBase + 4));
    EXPECT_FALSE(p.isCode(kCodeBase + 8));
    EXPECT_FALSE(p.isCode(kCodeBase - 4));
}

// ----------------------------------------------------------------------
// FunctionalExecutor on hand-written programs.
// ----------------------------------------------------------------------

TEST(Executor, ArithmeticAndHalt)
{
    ProgramBuilder b("t");
    b.addi(3, 0, 7);
    b.addi(4, 0, 5);
    b.add(5, 3, 4);
    b.mul(6, 3, 4);
    b.sub(7, 3, 4);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(5), 12u);
    EXPECT_EQ(exec.reg(6), 35u);
    EXPECT_EQ(static_cast<std::int64_t>(exec.reg(7)), 2);
    EXPECT_EQ(exec.instCount(), 6u);
}

TEST(Executor, LoopSum)
{
    // sum = 1 + 2 + ... + 10
    ProgramBuilder b("t");
    b.addi(3, 0, 10); // i = 10
    b.addi(4, 0, 0);  // sum = 0
    Label top = b.here();
    b.add(4, 4, 3);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(4), 55u);
}

TEST(Executor, CallAndReturn)
{
    ProgramBuilder b("t");
    Label fn = b.newLabel();
    b.call(fn);
    b.addi(4, 3, 1); // after return: r4 = r3 + 1
    b.halt();
    b.bind(fn);
    b.addi(3, 0, 41);
    b.ret();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(4), 42u);
}

TEST(Executor, JumpTableDispatch)
{
    ProgramBuilder b("t");
    const Addr table = b.allocData(16);
    Label case0 = b.newLabel(), case1 = b.newLabel(), join = b.newLabel();
    b.setDataLabel(table, case0);
    b.setDataLabel(table + 8, case1);
    // select case 1
    b.loadImm64(5, static_cast<std::uint32_t>(table));
    b.ld(6, 8, 5);
    b.jr(6);
    b.bind(case0);
    b.addi(7, 0, 100);
    b.j(join);
    b.bind(case1);
    b.addi(7, 0, 200);
    b.j(join);
    b.bind(join);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(7), 200u);
}

TEST(Executor, MemoryStoreLoad)
{
    ProgramBuilder b("t");
    const Addr buf = b.allocData(64);
    b.loadImm64(5, static_cast<std::uint32_t>(buf));
    b.addi(6, 0, 77);
    b.st(6, 16, 5);
    b.ld(7, 16, 5);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(7), 77u);
    EXPECT_EQ(exec.memory().load(buf + 16), 77u);
}

TEST(Executor, InitialDataVisible)
{
    ProgramBuilder b("t");
    const Addr buf = b.allocData(8);
    b.setData(buf, 0x1234);
    b.loadImm64(5, static_cast<std::uint32_t>(buf));
    b.ld(6, 0, 5);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(6), 0x1234u);
}

TEST(Executor, BranchDirectionsAndShifts)
{
    ProgramBuilder b("t");
    b.addi(3, 0, -5);
    b.addi(4, 0, 5);
    b.slt(5, 3, 4);   // signed: 1
    b.sltu(6, 3, 4);  // unsigned: huge > 5 -> 0
    b.srli(7, 4, 1);  // 2
    b.sra(8, 3, 7);   // -5 >> 2 = -2
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(5), 1u);
    EXPECT_EQ(exec.reg(6), 0u);
    EXPECT_EQ(static_cast<std::int64_t>(exec.reg(8)), -2);
}

TEST(Executor, DivByZeroDefined)
{
    ProgramBuilder b("t");
    b.addi(3, 0, 9);
    b.div(5, 3, 0);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    while (!exec.halted())
        exec.step();
    EXPECT_EQ(exec.reg(5), ~std::uint64_t{0});
}

TEST(Executor, StepAfterHaltIsIdempotent)
{
    ProgramBuilder b("t");
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    exec.step();
    EXPECT_TRUE(exec.halted());
    const Addr pc = exec.pc();
    const StepResult r = exec.step();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(exec.pc(), pc);
}

/** Expect two step records to agree on every field. */
void
expectSameStep(const StepResult &a, const StepResult &b, std::uint64_t i)
{
    EXPECT_EQ(a.pc, b.pc) << "step " << i;
    EXPECT_EQ(a.inst, b.inst) << "step " << i;
    EXPECT_EQ(a.nextPc, b.nextPc) << "step " << i;
    EXPECT_EQ(a.taken, b.taken) << "step " << i;
    EXPECT_EQ(a.memAddr, b.memAddr) << "step " << i;
    EXPECT_EQ(a.result, b.result) << "step " << i;
    EXPECT_EQ(a.halted, b.halted) << "step " << i;
}

/** A record with every field set to something no step writes. */
StepResult
dirtyStep()
{
    StepResult r;
    r.pc = 0xdead0;
    r.inst = {Opcode::Div, 9, 10, 11, 12};
    r.nextPc = 0xdead4;
    r.taken = true;
    r.memAddr = 0xbeef8;
    r.result = 0x5a5a5a5a;
    r.halted = true;
    return r;
}

TEST(Executor, InPlaceStepMatchesStepOnGeneratedProgram)
{
    BenchmarkProfile profile = benchmarkSuite().front();
    profile.numFunctions = 8;
    const Program program = generateProgram(profile);
    FunctionalExecutor by_value(program), in_place(program);
    // One slot reused for every step, as the oracle ring does.
    StepResult slot = dirtyStep();
    for (std::uint64_t i = 0; i < 100000; ++i) {
        const StepResult expected = by_value.step();
        in_place.step(slot);
        expectSameStep(slot, expected, i);
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_EQ(in_place.pc(), by_value.pc());
    EXPECT_EQ(in_place.instCount(), by_value.instCount());
    for (RegIndex r = 0; r < isa::kNumArchRegs; ++r)
        EXPECT_EQ(in_place.reg(r), by_value.reg(r)) << "r" << unsigned{r};
}

TEST(Executor, InPlaceStepMatchesStepThroughHalt)
{
    ProgramBuilder b("t");
    Label loop = b.newLabel();
    const Addr data = b.allocData(64);
    b.loadImm64(4, data);
    b.addi(3, 0, 5);
    b.bind(loop);
    b.st(3, 0, 4);
    b.ld(5, 0, 4);
    b.add(6, 6, 5);
    b.addi(3, 3, -1);
    b.bne(3, 0, loop);
    b.halt();
    const Program prog = b.build();
    FunctionalExecutor by_value(prog), in_place(prog);
    StepResult slot = dirtyStep();
    std::uint64_t i = 0;
    // Past Halt too: a halted step rewrites the whole record.
    for (unsigned after_halt = 0; after_halt < 3; ++i) {
        if (by_value.halted())
            ++after_halt;
        const StepResult expected = by_value.step();
        slot = dirtyStep();
        in_place.step(slot);
        expectSameStep(slot, expected, i);
    }
    EXPECT_TRUE(in_place.halted());
    EXPECT_EQ(in_place.reg(6), by_value.reg(6));
    EXPECT_EQ(in_place.instCount(), by_value.instCount());
}

TEST(Executor, TakenRecordsAndNextPc)
{
    ProgramBuilder b("t");
    Label t = b.newLabel();
    b.addi(3, 0, 1);
    b.bne(3, 0, t); // taken
    b.nop();
    b.bind(t);
    b.halt();
    Program prog = b.build();
    FunctionalExecutor exec(prog);
    exec.step();
    const StepResult r = exec.step();
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.nextPc, kCodeBase + 12);
}

// ----------------------------------------------------------------------
// Generator and suite.
// ----------------------------------------------------------------------

TEST(Generator, DeterministicForSeed)
{
    const BenchmarkProfile &profile = benchmarkSuite().front();
    Program a = generateProgram(profile);
    Program c = generateProgram(profile);
    ASSERT_EQ(a.codeSize(), c.codeSize());
    for (Addr addr = a.codeBase(); addr < a.codeLimit();
         addr += isa::kInstBytes) {
        ASSERT_EQ(a.fetch(addr), c.fetch(addr));
    }
    EXPECT_EQ(a.initData(), c.initData());
}

TEST(Generator, SeedChangesProgram)
{
    BenchmarkProfile profile = benchmarkSuite().front();
    Program a = generateProgram(profile);
    profile.seed += 1;
    Program c = generateProgram(profile);
    EXPECT_NE(a.codeSize(), c.codeSize());
}

TEST(Suite, HasFifteenBenchmarks)
{
    EXPECT_EQ(benchmarkSuite().size(), 15u);
}

TEST(Suite, FindProfileByName)
{
    EXPECT_EQ(findProfile("gcc").name, "gcc");
    EXPECT_EQ(findProfile("tex").name, "tex");
}

class SuiteStream : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteStream, StreamPropertiesInRange)
{
    const BenchmarkProfile &profile = findProfile(GetParam());
    Program p = generateProgram(profile);
    const WorkloadStats ws = characterize(p, 120000);

    EXPECT_EQ(ws.instCount, 120000u) << "program halted early";

    // Conditional-branch density typical of integer code.
    const double cond_frac =
        static_cast<double>(ws.condBranches) / ws.instCount;
    EXPECT_GT(cond_frac, 0.04);
    EXPECT_LT(cond_frac, 0.30);

    // Fill-block sizes in the range the trace cache responds to.
    EXPECT_GT(ws.avgFillBlockSize, 3.0);
    EXPECT_LT(ws.avgFillBlockSize, 13.0);

    // Taken fraction typical of loops + forward branches.
    const double taken =
        static_cast<double>(ws.condTaken) / ws.condBranches;
    EXPECT_GT(taken, 0.4);
    EXPECT_LT(taken, 0.98);

    // The stream must contain calls, returns and some indirection.
    EXPECT_GT(ws.calls, 0u);
    // The window can cut mid-call: allow the nesting depth as slack.
    EXPECT_NEAR(static_cast<double>(ws.calls),
                static_cast<double>(ws.returns), 8.0);
    EXPECT_GT(ws.indirectJumps, 0u);

    // A healthy share of dynamic branches continues long
    // same-direction runs (the promotion population).
    EXPECT_GT(ws.fracDynLongRun, 0.10);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteStream,
    ::testing::Values("compress", "gcc", "go", "ijpeg", "li", "m88ksim",
                      "perl", "vortex", "gnuchess", "ghostscript", "pgp",
                      "python", "gnuplot", "sim-outorder", "tex"),
    [](const ::testing::TestParamInfo<std::string> &param_info) {
        std::string name = param_info.param;
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        return name;
    });

} // namespace
} // namespace tcsim::workload

namespace tcsim::workload
{
namespace
{

TEST(ProfileStaticBias, FindsBiasedSitesWithDirections)
{
    // A loop with a never-taken check and a strongly-taken latch.
    ProgramBuilder b("prof");
    b.addi(3, 0, 2000);
    Label top = b.here();
    Label cold = b.newLabel();
    const Addr check_pc = b.pc();
    b.bne(0, 0, cold); // never taken
    b.addi(4, 4, 1);
    const Addr latch_pc = b.pc();
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    b.bind(cold);
    b.j(top);
    Program p = b.build();

    const auto biased = profileStronglyBiased(p, 100000, 0.98, 16);
    ASSERT_TRUE(biased.count(check_pc));
    EXPECT_FALSE(biased.at(check_pc)); // dominant direction: not taken
    ASSERT_TRUE(biased.count(latch_pc + isa::kInstBytes));
    EXPECT_TRUE(biased.at(latch_pc + isa::kInstBytes)); // latch: taken
}

TEST(ProfileStaticBias, IgnoresRareAndUnbiasedSites)
{
    ProgramBuilder b("prof2");
    b.addi(3, 0, 400);
    Label top = b.here();
    b.andi(5, 3, 1);
    Label skip = b.newLabel();
    const Addr alternating_pc = b.pc();
    b.beq(5, 0, skip); // alternates every iteration
    b.addi(6, 6, 1);
    b.bind(skip);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    Program p = b.build();

    const auto biased = profileStronglyBiased(p, 100000, 0.98, 16);
    EXPECT_FALSE(biased.count(alternating_pc));
}

} // namespace
} // namespace tcsim::workload

#include "workload/serialize.h"

#include <sstream>

namespace tcsim::workload
{
namespace
{

TEST(Serialize, RoundTripsGeneratedProgram)
{
    BenchmarkProfile profile = benchmarkSuite().front();
    profile.numFunctions = 8;
    Program original = generateProgram(profile);

    std::stringstream buffer;
    ASSERT_TRUE(saveProgram(original, buffer));
    auto loaded = loadProgram(buffer);
    ASSERT_TRUE(loaded.has_value());

    EXPECT_EQ(loaded->name(), original.name());
    EXPECT_EQ(loaded->codeBase(), original.codeBase());
    EXPECT_EQ(loaded->entry(), original.entry());
    ASSERT_EQ(loaded->codeSize(), original.codeSize());
    for (Addr a = original.codeBase(); a < original.codeLimit();
         a += isa::kInstBytes) {
        ASSERT_EQ(loaded->fetch(a), original.fetch(a));
    }
    EXPECT_EQ(loaded->initData(), original.initData());

    // The reloaded image executes identically.
    FunctionalExecutor exec_a(original), exec_b(*loaded);
    for (int i = 0; i < 20000; ++i) {
        const StepResult sa = exec_a.step();
        const StepResult sb = exec_b.step();
        ASSERT_EQ(sa.pc, sb.pc);
        ASSERT_EQ(sa.nextPc, sb.nextPc);
        ASSERT_EQ(sa.result, sb.result);
    }
}

TEST(Serialize, RejectsGarbage)
{
    std::stringstream buffer("definitely not a program image");
    EXPECT_FALSE(loadProgram(buffer).has_value());
}

TEST(Serialize, RejectsTruncated)
{
    BenchmarkProfile profile = benchmarkSuite().front();
    profile.numFunctions = 8;
    Program original = generateProgram(profile);
    std::stringstream buffer;
    ASSERT_TRUE(saveProgram(original, buffer));
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream truncated(bytes);
    EXPECT_FALSE(loadProgram(truncated).has_value());
}

} // namespace
} // namespace tcsim::workload

namespace tcsim::workload
{
namespace
{

TEST(BuilderDeath, DoubleBindAborts)
{
    ProgramBuilder b("t");
    Label label = b.here();
    EXPECT_DEATH(b.bind(label), "bound twice");
}

TEST(BuilderDeath, UnboundLabelAtBuildAborts)
{
    ProgramBuilder b("t");
    Label label = b.newLabel();
    b.j(label);
    EXPECT_DEATH(b.build(), "unbound label");
}

TEST(BuilderDeath, DefaultLabelAborts)
{
    ProgramBuilder b("t");
    Label label;
    EXPECT_DEATH(b.j(label), "default-constructed");
}

TEST(BuilderDeath, MisalignedDataWordAborts)
{
    ProgramBuilder b("t");
    EXPECT_DEATH(b.setData(0x1001, 1), "unaligned");
}

} // namespace
} // namespace tcsim::workload
