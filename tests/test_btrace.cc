/**
 * @file
 * tcsim-btrace-v1 format and record→replay round-trip tests: a trace
 * recorded from the oracle must drive the front end to a bit-identical
 * outcome stream (outcomeHash) and predictor-visible history
 * (finalHistory) on both a legacy and a server-class workload, and the
 * reader must reject truncated or corrupted files with a specific
 * reason rather than serving bad records.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "scratch_dir.h"
#include "sim/config.h"
#include "sim/processor.h"
#include "workload/btrace.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace tcsim::workload
{
namespace
{

constexpr std::uint64_t kTraceInsts = 40000;

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return std::move(buf).str();
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** Record @p insts instructions of @p benchmark to @p path. */
sim::Processor::ControlFlowResult
recordBenchmark(const std::string &benchmark, const std::string &path,
                std::uint64_t insts)
{
    const BenchmarkProfile &profile = findProfile(benchmark);
    const Program program = generateProgram(profile);
    BtraceWriter writer(path, kGeneratorVersion,
                        profileFingerprint(profile), program.entry());
    sim::Processor recorder(sim::icacheConfig(), program);
    return recorder.recordTrace(writer, insts);
}

class BtraceRoundTrip : public testing::TestWithParam<const char *>
{
};

// The core bit-identity contract: replaying a recorded trace through a
// fresh front end reproduces every counter, the FNV outcome hash over
// each control transfer, and the final global history register — on a
// legacy profile and on a server-class profile (deep call chains,
// indirect dispatch, large code footprint).
TEST_P(BtraceRoundTrip, RecordReplayBitIdentical)
{
    const std::string benchmark = GetParam();
    const testing_util::ScratchDir scratch;
    const std::string path = scratch.file("trace.btrace");
    const auto recorded = recordBenchmark(benchmark, path, kTraceInsts);
    ASSERT_GT(recorded.records, 0u);
    EXPECT_EQ(recorded.instructions, kTraceInsts);

    BtraceReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    EXPECT_EQ(reader.header().formatVersion, kBtraceFormatVersion);
    EXPECT_EQ(reader.header().generatorVersion, kGeneratorVersion);
    EXPECT_EQ(reader.header().profileFingerprint,
              profileFingerprint(findProfile(benchmark)));
    EXPECT_EQ(reader.header().instCount, recorded.instructions);
    EXPECT_EQ(reader.recordCount(), recorded.records);

    const Program program = generateProgram(findProfile(benchmark));
    sim::Processor replayer(sim::icacheConfig(), program);
    const auto replayed = replayer.replayTrace(reader);

    EXPECT_EQ(replayed.outcomeHash, recorded.outcomeHash);
    EXPECT_EQ(replayed.finalHistory, recorded.finalHistory);
    EXPECT_EQ(replayed.instructions, recorded.instructions);
    EXPECT_EQ(replayed.records, recorded.records);
    EXPECT_EQ(replayed.condBranches, recorded.condBranches);
    EXPECT_EQ(replayed.condMispredicts, recorded.condMispredicts);
    EXPECT_EQ(replayed.returns, recorded.returns);
    EXPECT_EQ(replayed.returnMispredicts, recorded.returnMispredicts);
    EXPECT_EQ(replayed.indirectJumps, recorded.indirectJumps);
    EXPECT_EQ(replayed.indirectMispredicts, recorded.indirectMispredicts);
    EXPECT_EQ(replayed.traps, recorded.traps);
    EXPECT_EQ(replayed.icacheAccesses, recorded.icacheAccesses);
    EXPECT_EQ(replayed.icacheMisses, recorded.icacheMisses);
    EXPECT_EQ(replayed.tcLookups, recorded.tcLookups);
    EXPECT_EQ(replayed.tcHits, recorded.tcHits);
    EXPECT_EQ(replayed.halted, recorded.halted);
}

INSTANTIATE_TEST_SUITE_P(LegacyAndServer, BtraceRoundTrip,
                         testing::Values("compress", "server-oltp"),
                         [](const auto &param_info) {
                             std::string name = param_info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

// openBytes() must validate an in-memory image (the artifact-cache
// path) exactly like open() validates a file, and serve identical
// records from the adopted buffer.
TEST(Btrace, OpenBytesMatchesOpen)
{
    const testing_util::ScratchDir scratch;
    const std::string path = scratch.file("trace.btrace");
    recordBenchmark("compress", path, kTraceInsts);
    const std::string bytes = readFileBytes(path);

    BtraceReader from_file;
    BtraceReader from_bytes;
    std::string error;
    ASSERT_TRUE(from_file.open(path, &error)) << error;
    ASSERT_TRUE(from_bytes.openBytes(bytes, &error)) << error;
    ASSERT_EQ(from_file.recordCount(), from_bytes.recordCount());
    EXPECT_EQ(from_file.header().profileFingerprint,
              from_bytes.header().profileFingerprint);
    for (std::uint64_t i : {std::uint64_t{0},
                            from_file.recordCount() / 2,
                            from_file.recordCount() - 1}) {
        const BtraceRecord a = from_file.record(i);
        const BtraceRecord b = from_bytes.record(i);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.target, b.target);
        EXPECT_EQ(a.cls, b.cls);
        EXPECT_EQ(a.taken, b.taken);
    }
}

// Corruption rejection: every class of damage must be refused with the
// right reason, both from a file and from in-memory bytes.
class BtraceCorruption : public testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = scratch_.file("trace.btrace");
        recordBenchmark("compress", path_, 20000);
        good_ = readFileBytes(path_);
        ASSERT_GT(good_.size(), kBtraceHeaderBytes + kBtraceRecordBytes);
    }

    /** Expect both open paths to reject @p bytes citing @p reason. */
    void expectRejected(const std::string &bytes,
                        const std::string &reason)
    {
        writeFileBytes(path_, bytes);
        BtraceReader from_file;
        std::string error;
        EXPECT_FALSE(from_file.open(path_, &error));
        EXPECT_EQ(error, reason);
        BtraceReader from_bytes;
        error.clear();
        EXPECT_FALSE(from_bytes.openBytes(bytes, &error));
        EXPECT_EQ(error, reason);
    }

    testing_util::ScratchDir scratch_;
    std::string path_;
    std::string good_;
};

TEST_F(BtraceCorruption, TruncatedBelowHeader)
{
    expectRejected(good_.substr(0, kBtraceHeaderBytes - 1),
                   "file shorter than the btrace header");
}

TEST_F(BtraceCorruption, TruncatedMidRecord)
{
    expectRejected(good_.substr(0, good_.size() - 5),
                   "btrace size does not match its record count");
}

TEST_F(BtraceCorruption, BadMagic)
{
    std::string bytes = good_;
    bytes[0] ^= 0x40;
    expectRejected(bytes, "bad btrace magic");
}

TEST_F(BtraceCorruption, HeaderBitFlip)
{
    std::string bytes = good_;
    bytes[24] ^= 0x01; // entry pc — magic intact, checksum not
    expectRejected(bytes, "btrace header checksum mismatch");
}

TEST_F(BtraceCorruption, RecordBitFlip)
{
    std::string bytes = good_;
    bytes[kBtraceHeaderBytes + kBtraceRecordBytes + 3] ^= 0x01;
    expectRejected(bytes, "btrace record checksum mismatch");
}

// A writer that never reaches close() leaves a zeroed header on disk:
// a crash mid-record must not yield a readable trace.
TEST_F(BtraceCorruption, UnclosedWriterIsRejected)
{
    std::string zeroed = good_;
    for (std::size_t i = 0; i < kBtraceHeaderBytes; ++i)
        zeroed[i] = '\0';
    expectRejected(zeroed, "bad btrace magic");
}

} // namespace
} // namespace tcsim::workload
