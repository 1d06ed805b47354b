/**
 * @file
 * Pluggable fragment/artifact storage for the sweep farm.
 *
 * Everything the farm persists — result fragments and
 * cached artifacts (program images, predictor checkpoints, BBV
 * profiles, warm states) — is a named blob under content-hashed
 * names. FragmentStore abstracts where those blobs live:
 *
 *  - LocalDirStore: a directory on the local filesystem. This is the
 *    default and is byte-for-byte the historical fragments-dir /
 *    cache-dir behavior (same paths, same atomic temp+rename
 *    discipline), so existing workflows need zero configuration
 *    changes.
 *
 *  - HttpStore: a client for the object-store shim (bench/store_server,
 *    served standalone or embedded in tcsim_sched), so workers on
 *    different hosts share one fragment/artifact namespace over plain
 *    HTTP with bearer-token auth.
 *
 * Store semantics shared by both backends:
 *
 *  - put() is atomic: a reader never observes a torn object.
 *  - By default put() is first-wins: overwriting an existing object is
 *    a successful no-op (content-hashed names mean a racing duplicate
 *    carries the same canonical payload — this is the dedup point for
 *    fragments from re-dispatched stragglers). Pass overwrite=true
 *    only to replace an object that failed validation (the
 *    scheduler healing a torn fragment).
 *  - Names are restricted to [A-Za-z0-9._-] with at most one '/'
 *    separator ("kind/object"), rejecting path traversal at the
 *    interface instead of trusting callers.
 *
 * Blob integrity is the layer above: fragments embed their unit hash
 * and artifacts carry the TCARTFC1 checksum wrapper, so a corrupted
 * object is detected and rejected by the consumer no matter which
 * backend served it.
 */

#ifndef TCSIM_BENCH_STORE_H
#define TCSIM_BENCH_STORE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tcsim::bench
{

/** One manifest row: an object's name plus cheap metadata. */
struct StoreObject
{
    std::string name;
    std::uint64_t size = 0;
    /** Seconds since the object was last written (mtime age for the
     * local backend; server-measured for HTTP). */
    double ageSeconds = 0.0;
};

/** @return whether @p name is a valid store object name. */
bool isValidStoreName(std::string_view name);

/** The storage interface the sweep/scheduler/cache layers talk to. */
class FragmentStore
{
  public:
    virtual ~FragmentStore() = default;

    /**
     * Atomically store @p bytes under @p name. First-wins unless
     * @p overwrite: storing over an existing object succeeds without
     * touching it. @return false on I/O or transport failure.
     */
    virtual bool put(const std::string &name, std::string_view bytes,
                     bool overwrite = false) = 0;

    /** @return the object's bytes, or empty optional when absent. */
    virtual std::optional<std::string> get(const std::string &name) = 0;

    virtual bool exists(const std::string &name) = 0;

    /** Remove @p name (used to drop corrupt artifacts). @return true
     * when the object is gone afterwards (also when it never was). */
    virtual bool remove(const std::string &name) = 0;

    /**
     * All objects whose name starts with @p prefix, sorted by name.
     * Metadata is best-effort (age 0 when the backend cannot say).
     */
    virtual std::vector<StoreObject> list(const std::string &prefix) = 0;

    /** Human-readable location ("/path/to/dir", "http://host:port"). */
    virtual std::string describe() const = 0;
};

/** The historical directory-backed store. */
class LocalDirStore : public FragmentStore
{
  public:
    explicit LocalDirStore(std::string dir) : dir_(std::move(dir)) {}

    bool put(const std::string &name, std::string_view bytes,
             bool overwrite = false) override;
    std::optional<std::string> get(const std::string &name) override;
    bool exists(const std::string &name) override;
    bool remove(const std::string &name) override;
    std::vector<StoreObject> list(const std::string &prefix) override;
    std::string describe() const override { return dir_; }

    const std::string &dir() const { return dir_; }

  private:
    std::string pathFor(const std::string &name) const;
    std::string dir_;
};

/** Client for the HTTP object-store shim (see bench/store_server.h). */
class HttpStore : public FragmentStore
{
  public:
    HttpStore(std::string host, std::uint16_t port, std::string token)
        : host_(std::move(host)), port_(port), token_(std::move(token))
    {
    }

    bool put(const std::string &name, std::string_view bytes,
             bool overwrite = false) override;
    std::optional<std::string> get(const std::string &name) override;
    bool exists(const std::string &name) override;
    bool remove(const std::string &name) override;
    std::vector<StoreObject> list(const std::string &prefix) override;
    std::string describe() const override;

  private:
    std::string host_;
    std::uint16_t port_;
    std::string token_;
};

/** The farm bearer token: TCSIM_FARM_TOKEN, empty when unset. */
std::string farmToken();

/**
 * Open a store from a spec: "http://host:port" yields an HttpStore
 * (authenticated with farmToken()); anything else is a local
 * directory. @return null with a message on stderr for a malformed
 * http spec or (http only) a missing token.
 */
std::unique_ptr<FragmentStore> openStore(const std::string &spec);

} // namespace tcsim::bench

#endif // TCSIM_BENCH_STORE_H
