/**
 * @file
 * Shared command-line parsing for the sweep matrix: every tool that
 * enumerates work units (tcsim_sweep, tcsim_sched) must build the
 * SAME SweepOptions from the same flags, or workers and the scheduler
 * would silently disagree on unit hashes.
 * Centralizing the flags here makes that drift impossible.
 *
 * Flags consumed:
 *   --benchmarks a,b,c    subset of the suite (default: all)
 *   --configs x,y         preset names (default sweep set)
 *   --insts <n>           per-unit budget (default: profile default)
 *   --warmup <n>          predictor warm-up instructions
 *   --sampled-interval n  sampled execution: BBV interval length
 *   --sampled-max-k k     sampled execution: k-means cluster cap
 *   --replay              drive each unit's front end from a cached
 *                         tcsim-btrace-v1 recording instead of cycle
 *                         simulation (excludes --warmup/sampled)
 *   --insts-for sel=n[,sel=n...]
 *                         per-unit budget overrides; sel is
 *                         "benchmark" or "benchmark@config" (the cell
 *                         form wins). Used to build deliberately
 *                         skewed matrices for scheduler stress tests.
 */

#ifndef TCSIM_TOOLS_MATRIX_ARGS_H
#define TCSIM_TOOLS_MATRIX_ARGS_H

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/sweep.h"

namespace tcsim::tools
{

inline std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

class MatrixArgs
{
  public:
    /**
     * Try to consume @p arg as a matrix flag; @p next yields the
     * flag's value (and may exit on a missing one, like the tools'
     * usage() helpers do). @return whether the flag was ours.
     */
    bool
    consume(const std::string &arg,
            const std::function<const char *()> &next)
    {
        if (arg == "--benchmarks") {
            options.benchmarks = splitCommas(next());
        } else if (arg == "--configs") {
            configNames_ = splitCommas(next());
        } else if (arg == "--insts") {
            options.insts = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--warmup") {
            options.warmup = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--sampled-interval") {
            options.sampled.enabled = true;
            options.sampled.interval =
                std::strtoull(next(), nullptr, 10);
        } else if (arg == "--sampled-max-k") {
            options.sampled.enabled = true;
            options.sampled.maxK = static_cast<std::uint32_t>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--replay") {
            options.replay = true;
        } else if (arg == "--insts-for") {
            if (!addInstsFor(next()))
                bad_ = true;
        } else {
            return false;
        }
        return true;
    }

    /**
     * Validate and resolve what consume() collected (config names ->
     * configs, sampled-flag pairing). Prints the problem to stderr
     * and @return false on error.
     */
    bool
    finalize()
    {
        if (bad_)
            return false;
        if (options.sampled.enabled &&
            (options.sampled.interval == 0 || options.sampled.maxK == 0)) {
            std::fprintf(stderr,
                         "--sampled-interval and --sampled-max-k must "
                         "be given together\n");
            return false;
        }
        if (options.replay &&
            (options.sampled.enabled || options.warmup != 0)) {
            std::fprintf(stderr,
                         "--replay cannot combine with --warmup or "
                         "sampled execution\n");
            return false;
        }
        for (const std::string &name : configNames_) {
            std::optional<sim::ProcessorConfig> config =
                bench::configByName(name);
            if (!config) {
                std::fprintf(stderr, "unknown config '%s'\n",
                             name.c_str());
                return false;
            }
            options.configs.push_back(std::move(*config));
        }
        return true;
    }

    bench::SweepOptions options;

  private:
    bool
    addInstsFor(const std::string &spec)
    {
        for (const std::string &pair : splitCommas(spec)) {
            const std::size_t eq = pair.find('=');
            const std::string digits =
                eq == std::string::npos ? "" : pair.substr(eq + 1);
            if (eq == 0 || digits.empty() ||
                digits.find_first_not_of("0123456789") !=
                    std::string::npos) {
                std::fprintf(stderr,
                             "bad --insts-for entry '%s' (want "
                             "bench[@config]=insts)\n",
                             pair.c_str());
                return false;
            }
            options.instsFor.emplace_back(
                pair.substr(0, eq),
                std::strtoull(digits.c_str(), nullptr, 10));
        }
        return true;
    }

    std::vector<std::string> configNames_;
    bool bad_ = false;
};

} // namespace tcsim::tools

#endif // TCSIM_TOOLS_MATRIX_ARGS_H
