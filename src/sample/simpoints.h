/**
 * @file
 * SimPoint-style representative-region selection.
 *
 * Pipeline: profileBbv() runs the program on the functional executor
 * (no timing model) collecting a basic-block vector per interval;
 * projectBbv() reduces each vector to kProjectionDims dimensions with
 * a seeded ±1 random projection; selectSimpoints() clusters the
 * projected vectors with a deterministic seeded k-means (k swept and
 * scored with a BIC-style criterion) and emits one representative
 * interval per cluster, weighted by cluster population.
 *
 * Determinism contract: every stage is a single-threaded pure
 * function of (BBV document, seed). No wall clock, no thread count,
 * no iteration over unordered containers — the same profile yields
 * bit-identical plans on every shard regardless of TCSIM_JOBS.
 * kSimpointsAlgoVersion is hashed into sampled work-unit keys, so
 * changing the algorithm invalidates cached results instead of
 * silently mixing plans.
 *
 * Weights are exact rationals (cluster size / number of intervals):
 * the sweep layer combines per-region integer stats as
 * sum(weight_num * stat) without ever rounding, keeping the sampled
 * results document inside the existing integers-only determinism
 * contract.
 *
 * Plans serialize as `tcsim-simpoints-v1`:
 *
 *   {"schema":"tcsim-simpoints-v1","benchmark":...,
 *    "program_fingerprint":...,"algo_version":1,
 *    "interval_insts":N,"total_insts":M,"num_intervals":n,"k":k,
 *    "simpoints":[{"index":i,"start_insts":s,"cluster":c,
 *                  "weight_num":w,"weight_den":n},...]}
 */

#ifndef TCSIM_SAMPLE_SIMPOINTS_H
#define TCSIM_SAMPLE_SIMPOINTS_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/bbv.h"
#include "workload/program.h"

namespace tcsim::sample
{

/** Bumped when the BBV artifact contents would change. */
constexpr std::uint32_t kBbvFormatVersion = 1;

/** Bumped when projection/clustering/selection logic changes. */
constexpr std::uint32_t kSimpointsAlgoVersion = 2;

/** Random-projection target dimensionality. */
constexpr unsigned kProjectionDims = 16;

/** Default seed for projection + clustering. */
constexpr std::uint64_t kSimpointSeed = 0x51a9'90b7'7ace'cafeULL;

/**
 * Version of the sampled warm-up scheme: one shared functional-warming
 * pass per unit trains predictors over the whole prefix preceding each
 * region and exports per-region predictor-state checkpoints; regions
 * import them and re-warm caches with a short detailed warm-up. Folded
 * into sampled work-unit hashes and predictor-checkpoint keys —
 * bumping it invalidates cached sampled results and checkpoints.
 */
constexpr std::uint32_t kSampledWarmingVersion = 2;

/**
 * Profile @p total_insts instructions of @p program functionally,
 * one BBV per @p interval_insts retired. @p interval_insts must
 * divide @p total_insts (keeps cluster weights exact rationals of
 * whole intervals). Runs at functional-executor speed — this is the
 * cheap pass sampled simulation amortizes across configurations.
 */
obs::BbvDocument profileBbv(const workload::Program &program,
                            const std::string &benchmark,
                            std::uint64_t total_insts,
                            std::uint64_t interval_insts);

/**
 * Seeded ±1 random projection of each interval's sparse BBV to
 * kProjectionDims dims, L1-normalized by the interval's instruction
 * count so vectors compare by block *mix*, not length.
 */
std::vector<std::array<double, kProjectionDims>>
projectBbv(const obs::BbvDocument &doc, std::uint64_t seed);

/** One representative interval. */
struct Simpoint
{
    std::uint32_t index = 0;      ///< interval index in the profile
    std::uint64_t startInsts = 0; ///< region start (index * interval)
    std::uint32_t cluster = 0;
    std::uint64_t weightNum = 0; ///< cluster population
    std::uint64_t weightDen = 0; ///< total intervals
};

/** The clustering result: representatives plus provenance. */
struct SimpointPlan
{
    std::string benchmark;
    std::string programFingerprint;
    std::uint64_t intervalInsts = 0;
    std::uint64_t totalInsts = 0;
    std::uint32_t numIntervals = 0;
    std::uint32_t k = 0;
    std::vector<Simpoint> points; ///< ascending by interval index

    /** Render the `tcsim-simpoints-v1` JSON document. */
    std::string toJson() const;

    /** Parse; empty optional on schema/algo-version mismatch. */
    static std::optional<SimpointPlan> fromJson(const std::string &text);
};

/**
 * Cluster @p doc's intervals for each k in [1, max_k], score with a
 * BIC-style criterion, and return the best plan. Deterministic for a
 * fixed (doc, fingerprint, max_k, seed).
 */
SimpointPlan selectSimpoints(const obs::BbvDocument &doc,
                             const std::string &program_fingerprint,
                             std::uint32_t max_k,
                             std::uint64_t seed = kSimpointSeed);

} // namespace tcsim::sample

#endif // TCSIM_SAMPLE_SIMPOINTS_H
