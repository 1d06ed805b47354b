/**
 * @file
 * The cluster-scale sweep scheduler: leases over the enumerated
 * work-unit list, handed to pulling workers over HTTP by tcsim_sched.
 *
 * Dispatch model:
 *
 *  - Work stealing by construction: there is no up-front partition.
 *    Every acquire() hands out the lowest-index unit that currently
 *    has no active lease, so an idle worker always pulls from the
 *    remaining pool and a skewed matrix cannot strand work behind a
 *    slow shard the way static round-robin sharding does.
 *
 *  - Leases expire: a worker that stops renewing (crashed, SIGKILLed,
 *    lost network) forfeits its unit after leaseTimeoutSeconds and
 *    tick() returns the unit to the pool. Each worker renews from its
 *    own renewer thread, which runs beside the simulation, so a
 *    healthy slow worker never loses its lease.
 *
 *  - Stragglers are speculatively RE-dispatched: once enough units
 *    have completed to trust the median duration, a unit in flight
 *    for more than stragglerK x median is handed to a second worker
 *    as well. First valid fragment wins; the loser's duplicate is
 *    counted and dropped (and the content-hashed store name makes the
 *    duplicate put a no-op).
 *
 *  - Crash-safe resume: resumeFromStore() pre-fills (markCompleted)
 *    units whose valid fragments already exist in the store, so a
 *    restarted scheduler only dispatches the holes.
 *
 * Completion IS the streaming merge: complete() folds the fragment's
 * canonical integers into the rolling result vector, so the final
 * document is available the moment the last unit lands — rendered by
 * the same shared renderer as the single-process path, hence
 * byte-identical. renderPartial() exposes the rolling state as a
 * "tcsim-bench-partial-v1" document at any point in between.
 *
 * Scheduler is a pure state machine over caller-supplied timestamps
 * (seconds on any monotonic clock): no threads, no sockets, no clock
 * reads; tests drive it with synthetic time. SchedServer wraps it in
 * the HTTP routes tcsim_sched serves, under one mutex, on the
 * steady clock (schedClock()).
 */

#ifndef TCSIM_BENCH_SCHED_H
#define TCSIM_BENCH_SCHED_H

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench/store.h"
#include "bench/sweep.h"
#include "obs/http.h"

namespace tcsim::bench
{

/** Dispatch-policy knobs (defaults match tcsim_sched's flags). */
struct SchedOptions
{
    /** Seconds an unrenewed lease survives before it is revoked. */
    double leaseTimeoutSeconds = 120.0;
    /** Re-dispatch a unit in flight longer than k x median. */
    double stragglerK = 3.0;
    /** Completed-unit durations needed before the median is trusted
     * (until then nothing is classified a straggler). */
    std::uint32_t minMedianSamples = 3;
};

/** One issued lease, as returned to a pulling worker. */
struct LeaseGrant
{
    std::uint32_t unitIndex = 0;
    std::string unitId;
    std::string hash;
    /** The interval the worker should renew at (a fraction of the
     * lease timeout, so one lost renewal is survivable). */
    double renewSeconds = 0.0;
};

/** What acquire() answered (see Scheduler::acquire). */
enum class AcquireStatus
{
    Granted, ///< a lease was issued
    Wait,    ///< nothing to hand out now, but the sweep is not done
    Done,    ///< every unit has completed
};

class Scheduler
{
  public:
    Scheduler(std::vector<WorkUnit> units, SchedOptions options);

    /**
     * Pre-fill @p integers for the unit with @p hash (resume path:
     * the fragment already existed in the store). @return false for
     * an unknown hash or an already-completed unit.
     */
    bool markCompleted(const std::string &hash,
                       const ResultIntegers &integers);

    /**
     * Hand @p worker a unit. Fresh pending units are preferred
     * (lowest index first); with none left, a straggler may be
     * speculatively re-dispatched. @p grant is filled iff the status
     * is Granted.
     */
    AcquireStatus acquire(const std::string &worker, double now,
                          LeaseGrant &grant);

    /** Extend @p worker's lease on @p hash. @return false when the
     * lease is no longer held (expired or completed by another). */
    bool renew(const std::string &worker, const std::string &hash,
               double now);

    enum class CompleteStatus
    {
        Accepted,  ///< first valid result for the unit; folded in
        Duplicate, ///< unit already completed (straggler lost the race)
        Unknown,   ///< hash not in the matrix
    };

    /**
     * Deliver a completed unit: fold @p integers into the rolling
     * result vector and release every lease on the unit. Accepts
     * results from workers that no longer hold a lease (their lease
     * may have expired while the fragment was in flight — the work is
     * still valid, the fragment bytes prove it).
     */
    CompleteStatus complete(const std::string &worker,
                            const std::string &hash,
                            const ResultIntegers &integers, double now);

    /** Revoke expired leases; call periodically (and before acquire
     * decisions that should see fresh state). */
    void tick(double now);

    bool done() const { return completed_ == units_.size(); }

    /** The canonical results document; valid only when done(). */
    std::string renderResults() const;

    /** The rolling "tcsim-bench-partial-v1" document. */
    std::string renderPartial() const;

    /** The "tcsim-sched-status-v1" document (served at /status). */
    std::string renderStatus(double now) const;

    const std::vector<WorkUnit> &units() const { return units_; }

    // Counters, exposed for tests and the status document.
    std::uint64_t leasesIssued() const { return leasesIssued_; }
    std::uint64_t leasesExpired() const { return leasesExpired_; }
    std::uint64_t redispatches() const { return redispatches_; }
    std::uint64_t duplicates() const { return duplicates_; }
    std::uint64_t completedUnits() const { return completed_; }

  private:
    struct ActiveLease
    {
        std::string worker;
        double start = 0.0;    ///< when the unit first went in flight
        double deadline = 0.0; ///< start/renew time + lease timeout
    };

    struct UnitState
    {
        bool completed = false;
        /** Usually 0 or 1 entries; 2 while a straggler runs twice. */
        std::vector<ActiveLease> leases;
    };

    double medianDuration() const;
    bool unitInFlight(const UnitState &state) const
    {
        return !state.completed && !state.leases.empty();
    }

    std::vector<WorkUnit> units_;
    SchedOptions options_;
    std::map<std::string, std::size_t> byHash_;
    std::vector<UnitState> states_;
    std::vector<ResultIntegers> integers_;
    std::vector<bool> filled_;
    /** Scheduler-measured durations of completed units, sorted. */
    std::vector<double> durations_;
    /** worker name -> units completed (status document only). */
    std::map<std::string, std::uint64_t> workerCompleted_;
    std::size_t completed_ = 0;
    std::uint64_t leasesIssued_ = 0;
    std::uint64_t leasesExpired_ = 0;
    std::uint64_t redispatches_ = 0;
    std::uint64_t duplicates_ = 0;
};

/**
 * Crash-safe resume: mark completed every unit of @p sched whose valid
 * fragment (see readFragment) is already in @p store, so a restarted
 * scheduler dispatches only the holes. Stale fragments (hash not in
 * the matrix) and corrupt, renamed or truncated objects are skipped;
 * their units stay pending.
 * @return the number of units resumed.
 */
std::size_t resumeFromStore(Scheduler &sched, const FragmentStore &store);

/** Seconds on the steady clock: SchedServer's time base. */
double schedClock();

/** The farm bearer token shared by tcsim_sched and its pull workers:
 * TCSIM_FARM_TOKEN, empty when unset. */
std::string farmToken();

/**
 * The scheduler's HTTP routes, served by tcsim_sched behind
 * obs::HttpServer (whose bearer-token check answers 401 before any
 * route runs):
 *
 *   POST /lease?worker=w     acquire a unit (tcsim-sched-lease-v1:
 *                            "lease", "wait" or "done")
 *   POST /renew?worker=w&hash=h
 *                            extend the lease
 *   POST /complete?worker=w&hash=h   body = fragment document
 *                            fold the result into the streaming
 *                            merge and persist it to the store
 *   GET  /status             the tcsim-sched-status-v1 document
 *   GET  /partial            the rolling tcsim-bench-partial-v1
 *
 * Every Scheduler access holds one mutex, so handle() is safe to call
 * from the server thread while the owner ticks and renders.
 */
class SchedServer
{
  public:
    /** Resumes from @p store (resumeFromStore); @p store must
     * outlive the server. */
    SchedServer(std::vector<WorkUnit> units, SchedOptions options,
                FragmentStore &store);

    obs::HttpResponse handle(const obs::HttpRequest &request);

    /** Run @p fn on the scheduler under the lock; returns its result. */
    template <typename Fn>
    auto withScheduler(Fn &&fn)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return fn(sched_);
    }

    std::size_t resumed() const { return resumed_; }
    const std::string &matrixHash() const { return matrixHash_; }

  private:
    obs::HttpResponse lease(const std::string &worker, double now);
    obs::HttpResponse complete(const std::string &worker,
                               const std::string &hash,
                               const std::string &body, double now);

    FragmentStore &store_;
    std::mutex mutex_;
    Scheduler sched_;
    std::string matrixHash_;
    std::size_t resumed_ = 0;
};

} // namespace tcsim::bench

#endif // TCSIM_BENCH_SCHED_H
