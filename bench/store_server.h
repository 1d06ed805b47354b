/**
 * @file
 * The object-store shim: serves a FragmentStore namespace over the
 * same authenticated HTTP plumbing as the scheduler, so sweep
 * workers on different hosts can share one fragment/artifact store.
 *
 * Endpoints (all behind `Authorization: Bearer <token>`):
 *
 *   PUT    /obj/<name>[?overwrite=1]  store bytes atomically
 *                                     (first-wins without overwrite;
 *                                     a duplicate PUT answers 200
 *                                     with {"deduped": true})
 *   GET    /obj/<name>                object bytes, 404 when absent
 *   HEAD   /obj/<name>                existence probe
 *   DELETE /obj/<name>                drop (e.g. a corrupt artifact)
 *   GET    /manifest[?prefix=p]       "tcsim-store-manifest-v1" JSON
 *                                     listing names/sizes/ages
 *
 * The shim stores onto a backing FragmentStore (a LocalDirStore in
 * practice), so a merge run on the serving host against the backing
 * directory sees exactly the bytes workers uploaded — the
 * byte-identical merge guarantee does not depend on the transport.
 *
 * handle() is exposed separately from the standalone server so
 * tcsim_sched can mount the store on the same port as its lease
 * endpoints (one URL for workers to both pull work and push results).
 */

#ifndef TCSIM_BENCH_STORE_SERVER_H
#define TCSIM_BENCH_STORE_SERVER_H

#include <memory>
#include <string>

#include "bench/store.h"
#include "obs/http.h"

namespace tcsim::bench
{

class StoreServer
{
  public:
    /** @param backing the store served; must outlive the server. */
    explicit StoreServer(FragmentStore &backing) : backing_(backing) {}

    /**
     * Route one already-authenticated request. Returns 404 for paths
     * outside the store namespace, so a combined server can try other
     * routers first/after.
     */
    obs::HttpResponse handle(const obs::HttpRequest &request);

    /** @return whether @p request targets the store namespace. */
    static bool routes(const obs::HttpRequest &request);

    /** Render the "tcsim-store-manifest-v1" document for @p prefix. */
    std::string renderManifest(const std::string &prefix);

    /**
     * Serve standalone on @p bind_addr:@p port (0 = ephemeral).
     * @return false on bind failure or empty token.
     */
    bool start(const std::string &bind_addr, std::uint16_t port,
               const std::string &token);
    std::uint16_t port() const { return server_.port(); }
    void stop() { server_.stop(); }

  private:
    FragmentStore &backing_;
    obs::HttpServer server_;
};

} // namespace tcsim::bench

#endif // TCSIM_BENCH_STORE_SERVER_H
