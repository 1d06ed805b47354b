/**
 * @file
 * The fragment store: the one directory where the sweep farm persists
 * result fragments and cached artifacts (program images, predictor
 * checkpoints, BBV profiles, warm states) as named blobs under
 * content-hashed names.
 *
 * Store semantics:
 *
 *  - put() is atomic (writeFileAtomic: unique temp + rename): a reader
 *    never observes a torn object, and a writer killed mid-store
 *    leaves only a temp file whose name never validates.
 *  - By default put() is first-wins: storing over an existing object
 *    is a successful no-op (content-hashed names mean a racing
 *    duplicate carries the same canonical payload — this is the dedup
 *    point for fragments from re-dispatched stragglers). Pass
 *    overwrite=true only to replace an object that failed validation
 *    (the scheduler healing a torn fragment).
 *  - Names are restricted to [A-Za-z0-9._-] with at most one '/'
 *    separator ("kind/object"), rejecting path traversal here instead
 *    of trusting callers: the scheduler turns a network-supplied hash
 *    into a store name.
 *
 * Blob integrity is the layer above: fragments embed their unit hash
 * and artifacts carry the TCARTFC1 checksum wrapper, so a corrupted
 * object is detected and rejected by its consumer.
 */

#ifndef TCSIM_BENCH_STORE_H
#define TCSIM_BENCH_STORE_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tcsim::bench
{

/** @return whether @p name is a valid store object name. */
bool isValidStoreName(std::string_view name);

/** A directory of named objects; see the file comment. */
class FragmentStore
{
  public:
    explicit FragmentStore(std::string dir) : dir_(std::move(dir)) {}

    /**
     * Atomically store @p bytes under @p name. First-wins unless
     * @p overwrite: storing over an existing object succeeds without
     * touching it. @return false on an invalid name or I/O failure.
     */
    bool put(const std::string &name, std::string_view bytes,
             bool overwrite = false);

    /** @return the object's bytes, or empty optional when absent. */
    std::optional<std::string> get(const std::string &name) const;

    bool exists(const std::string &name) const;

    /** Remove @p name (used to drop corrupt artifacts). @return true
     * when the object is gone afterwards (also when it never was). */
    bool remove(const std::string &name);

    /** The names of all top-level objects ("kind/" subdirectories
     * are not scanned), sorted. */
    std::vector<std::string> list() const;

    const std::string &dir() const { return dir_; }

  private:
    std::string pathFor(const std::string &name) const;
    std::string dir_;
};

} // namespace tcsim::bench

#endif // TCSIM_BENCH_STORE_H
