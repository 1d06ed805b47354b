/**
 * @file
 * Tests for the sweep scheduler state machine, driven with synthetic
 * time: work-stealing dispatch order, lease expiry after a worker
 * dies, straggler re-dispatch and first-fragment-wins dedup, resume
 * from pre-existing fragments, and byte-identity of the streaming
 * merge against the shared single-process renderer. Then its HTTP
 * routes (SchedServer): bearer-token rejection on /lease and /status,
 * no object-store routes, and /complete healing a poisoned store
 * object.
 */

#include <chrono>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/sched.h"
#include "bench/store.h"
#include "bench/sweep.h"
#include "common/json.h"
#include "obs/http.h"
#include "scratch_dir.h"
#include "sim/config.h"

namespace
{

using namespace tcsim;
using namespace tcsim::bench;

/** A small real matrix (2 benchmarks x 2 configs at tiny budgets). */
std::vector<WorkUnit>
testUnits()
{
    SweepOptions options;
    options.benchmarks = {"compress", "li"};
    options.insts = 20000;
    options.configs = {sim::baselineConfig(), sim::promotionConfig(64)};
    return enumerateUnits(options);
}

/** Deterministic fake per-unit integers (not a real simulation). */
ResultIntegers
fakeIntegers(std::uint32_t seed)
{
    ResultIntegers integers;
    integers.instructions = 1000 + seed;
    integers.cycles = 2000 + seed * 7;
    integers.condBranches = 100 + seed;
    integers.condMispredicts = seed;
    integers.usefulFetches = 500 + seed;
    integers.fetchedInsts = 600 + seed;
    return integers;
}

SchedOptions
fastOptions()
{
    SchedOptions options;
    options.leaseTimeoutSeconds = 10.0;
    options.stragglerK = 3.0;
    options.minMedianSamples = 2;
    return options;
}

TEST(Sched, WorkStealingHandsOutLowestPendingIndex)
{
    const auto units = testUnits();
    ASSERT_EQ(units.size(), 4u);
    Scheduler sched(units, fastOptions());
    LeaseGrant g1, g2, g3;
    EXPECT_EQ(sched.acquire("w1", 0.0, g1), AcquireStatus::Granted);
    EXPECT_EQ(g1.unitIndex, 0u);
    EXPECT_EQ(g1.hash, units[0].hash);
    // A second worker steals from the shared pool, not a partition.
    EXPECT_EQ(sched.acquire("w2", 0.0, g2), AcquireStatus::Granted);
    EXPECT_EQ(g2.unitIndex, 1u);
    EXPECT_EQ(sched.acquire("w1", 0.1, g3), AcquireStatus::Granted);
    EXPECT_EQ(g3.unitIndex, 2u);
    EXPECT_EQ(sched.leasesIssued(), 3u);
    EXPECT_GT(g1.renewSeconds, 0.0);
    EXPECT_LT(g1.renewSeconds, fastOptions().leaseTimeoutSeconds);
}

TEST(Sched, CompleteFoldsAndFinishes)
{
    const auto units = testUnits();
    Scheduler sched(units, fastOptions());
    double now = 0.0;
    while (!sched.done()) {
        LeaseGrant grant;
        const AcquireStatus status = sched.acquire("w1", now, grant);
        ASSERT_EQ(status, AcquireStatus::Granted);
        now += 1.0;
        EXPECT_EQ(sched.complete("w1", grant.hash,
                                 fakeIntegers(grant.unitIndex), now),
                  Scheduler::CompleteStatus::Accepted);
    }
    EXPECT_EQ(sched.completedUnits(), units.size());
    LeaseGrant grant;
    EXPECT_EQ(sched.acquire("w2", now, grant), AcquireStatus::Done);
    EXPECT_EQ(sched.leasesExpired(), 0u);
    EXPECT_EQ(sched.redispatches(), 0u);
}

TEST(Sched, StreamingMergeMatchesSharedRendererByteForByte)
{
    const auto units = testUnits();
    Scheduler sched(units, fastOptions());
    std::vector<ResultIntegers> integers(units.size());
    std::vector<bool> filled(units.size(), true);
    for (std::uint32_t i = 0; i < units.size(); ++i)
        integers[i] = fakeIntegers(i);
    // Deliver out of order: the fold must not depend on arrival order.
    double now = 0.0;
    for (const std::uint32_t i : {2u, 0u, 3u, 1u}) {
        LeaseGrant grant;
        sched.acquire("w1", now, grant);
        ASSERT_EQ(sched.complete("w1", units[i].hash, integers[i],
                                 now += 1.0),
                  Scheduler::CompleteStatus::Accepted);
    }
    ASSERT_TRUE(sched.done());
    EXPECT_EQ(sched.renderResults(), renderResultsDoc(units, integers));
}

TEST(Sched, LeaseExpiryReturnsUnitToPool)
{
    const auto units = testUnits();
    Scheduler sched(units, fastOptions());
    LeaseGrant grant;
    ASSERT_EQ(sched.acquire("victim", 0.0, grant),
              AcquireStatus::Granted);
    EXPECT_EQ(grant.unitIndex, 0u);
    // The worker dies; nothing renews. Before the timeout the unit is
    // not handed out again (w2 gets the next index instead).
    LeaseGrant other;
    ASSERT_EQ(sched.acquire("w2", 5.0, other), AcquireStatus::Granted);
    EXPECT_EQ(other.unitIndex, 1u);
    // After the timeout the lease is revoked and unit 0 is pending
    // again — the crashed worker's unit is re-dispatched.
    sched.tick(10.5);
    EXPECT_EQ(sched.leasesExpired(), 1u);
    LeaseGrant retry;
    ASSERT_EQ(sched.acquire("w2", 10.6, retry), AcquireStatus::Granted);
    EXPECT_EQ(retry.unitIndex, 0u);
    EXPECT_EQ(retry.hash, units[0].hash);
}

TEST(Sched, RenewKeepsSlowWorkerAlive)
{
    const auto units = testUnits();
    Scheduler sched(units, fastOptions());
    LeaseGrant grant;
    ASSERT_EQ(sched.acquire("w1", 0.0, grant), AcquireStatus::Granted);
    for (double t = 3.0; t <= 30.0; t += 3.0)
        EXPECT_TRUE(sched.renew("w1", grant.hash, t));
    sched.tick(31.0); // well past the original 10s deadline
    EXPECT_EQ(sched.leasesExpired(), 0u);
    // But renewing a lease that was never granted fails.
    EXPECT_FALSE(sched.renew("w2", grant.hash, 31.0));
    EXPECT_FALSE(sched.renew("w1", "0123456789abcdef", 31.0));
}

TEST(Sched, StragglerIsRedispatchedAndFirstFragmentWins)
{
    const auto units = testUnits();
    Scheduler sched(units, fastOptions());
    // w1 takes unit 0 and stalls; w2 completes the rest quickly,
    // establishing a ~1s median.
    LeaseGrant slow;
    ASSERT_EQ(sched.acquire("w1", 0.0, slow), AcquireStatus::Granted);
    double now = 0.0;
    for (std::uint32_t i = 1; i < units.size(); ++i) {
        LeaseGrant grant;
        ASSERT_EQ(sched.acquire("w2", now, grant),
                  AcquireStatus::Granted);
        EXPECT_EQ(grant.unitIndex, i);
        ASSERT_EQ(sched.complete("w2", grant.hash, fakeIntegers(i),
                                 now += 1.0),
                  Scheduler::CompleteStatus::Accepted);
        sched.renew("w1", slow.hash, now); // w1 is slow, not dead
    }
    // No fresh units remain. Before k x median elapses w2 must wait...
    LeaseGrant spec;
    EXPECT_EQ(sched.acquire("w2", now, spec), AcquireStatus::Wait);
    EXPECT_EQ(sched.redispatches(), 0u);
    // ...and past it, unit 0 is speculatively re-dispatched to w2.
    now = 10.0; // elapsed 10s > 3 x 1s median
    sched.renew("w1", slow.hash, now);
    ASSERT_EQ(sched.acquire("w2", now, spec), AcquireStatus::Granted);
    EXPECT_EQ(spec.unitIndex, 0u);
    EXPECT_EQ(spec.hash, slow.hash);
    EXPECT_EQ(sched.redispatches(), 1u);
    // The same unit is not handed out a third time.
    LeaseGrant third;
    EXPECT_EQ(sched.acquire("w3", now + 0.1, third),
              AcquireStatus::Wait);
    // w2's copy lands first and wins; w1's late duplicate is counted
    // and dropped, and the sweep is done.
    EXPECT_EQ(sched.complete("w2", spec.hash, fakeIntegers(0),
                             now + 0.5),
              Scheduler::CompleteStatus::Accepted);
    EXPECT_EQ(sched.complete("w1", slow.hash, fakeIntegers(0),
                             now + 2.0),
              Scheduler::CompleteStatus::Duplicate);
    EXPECT_EQ(sched.duplicates(), 1u);
    EXPECT_TRUE(sched.done());
    // The duplicate did not corrupt the merge.
    std::vector<ResultIntegers> integers(units.size());
    for (std::uint32_t i = 0; i < units.size(); ++i)
        integers[i] = fakeIntegers(i);
    EXPECT_EQ(sched.renderResults(), renderResultsDoc(units, integers));
}

TEST(Sched, StragglerNeedsMedianFloorAndThreshold)
{
    const auto units = testUnits();
    SchedOptions options;
    options.leaseTimeoutSeconds = 100.0; // nothing expires here
    options.stragglerK = 4.0;
    options.minMedianSamples = 3;

    // Two completed samples: below the floor, so no re-dispatch even
    // though unit 0 has been in flight 20s against a 1.5s median.
    Scheduler floor(units, options);
    LeaseGrant slow, grant;
    ASSERT_EQ(floor.acquire("w1", 0.0, slow), AcquireStatus::Granted);
    ASSERT_EQ(floor.acquire("w2", 0.0, grant), AcquireStatus::Granted);
    ASSERT_EQ(floor.complete("w2", grant.hash, fakeIntegers(1), 1.0),
              Scheduler::CompleteStatus::Accepted);
    ASSERT_EQ(floor.acquire("w2", 1.0, grant), AcquireStatus::Granted);
    ASSERT_EQ(floor.complete("w2", grant.hash, fakeIntegers(2), 3.0),
              Scheduler::CompleteStatus::Accepted);
    LeaseGrant held;
    ASSERT_EQ(floor.acquire("w3", 3.0, held), AcquireStatus::Granted);
    EXPECT_EQ(floor.acquire("w2", 20.0, grant), AcquireStatus::Wait);
    EXPECT_EQ(floor.redispatches(), 0u);
    // The third sample reaches the floor and unit 0 is re-dispatched.
    ASSERT_EQ(floor.complete("w3", held.hash, fakeIntegers(3), 21.0),
              Scheduler::CompleteStatus::Accepted);
    ASSERT_EQ(floor.acquire("w2", 21.0, grant), AcquireStatus::Granted);
    EXPECT_EQ(grant.hash, slow.hash);
    EXPECT_EQ(floor.redispatches(), 1u);

    // Durations 1, 2, 3: median 2.0, threshold 8.0. At exactly 8s in
    // flight unit 0 is not yet a straggler; past it, it is.
    Scheduler edge(units, options);
    ASSERT_EQ(edge.acquire("w1", 0.0, slow), AcquireStatus::Granted);
    double now = 0.0;
    for (std::uint32_t i = 1; i < units.size(); ++i) {
        ASSERT_EQ(edge.acquire("w2", now, grant), AcquireStatus::Granted);
        now += static_cast<double>(i);
        ASSERT_EQ(edge.complete("w2", grant.hash, fakeIntegers(i), now),
                  Scheduler::CompleteStatus::Accepted);
    }
    EXPECT_EQ(edge.acquire("w2", 8.0, grant), AcquireStatus::Wait);
    EXPECT_EQ(edge.redispatches(), 0u);
    ASSERT_EQ(edge.acquire("w2", 8.5, grant), AcquireStatus::Granted);
    EXPECT_EQ(grant.hash, slow.hash);
    EXPECT_EQ(edge.redispatches(), 1u);
}

TEST(Sched, CompleteAcceptedFromLeaselessWorker)
{
    // A worker whose lease expired while its fragment was in flight
    // still delivers valid work.
    const auto units = testUnits();
    Scheduler sched(units, fastOptions());
    LeaseGrant grant;
    ASSERT_EQ(sched.acquire("w1", 0.0, grant), AcquireStatus::Granted);
    sched.tick(20.0);
    EXPECT_EQ(sched.leasesExpired(), 1u);
    EXPECT_EQ(sched.complete("w1", grant.hash, fakeIntegers(0), 21.0),
              Scheduler::CompleteStatus::Accepted);
    EXPECT_EQ(sched.completedUnits(), 1u);
}

TEST(Sched, CompleteRejectsUnknownHash)
{
    Scheduler sched(testUnits(), fastOptions());
    EXPECT_EQ(sched.complete("w1", "feedfacecafebeef", fakeIntegers(0),
                             1.0),
              Scheduler::CompleteStatus::Unknown);
    EXPECT_EQ(sched.completedUnits(), 0u);
}

TEST(Sched, ResumeSkipsPrefilledUnits)
{
    const auto units = testUnits();
    Scheduler sched(units, fastOptions());
    EXPECT_TRUE(sched.markCompleted(units[0].hash, fakeIntegers(0)));
    EXPECT_TRUE(sched.markCompleted(units[2].hash, fakeIntegers(2)));
    EXPECT_FALSE(sched.markCompleted(units[0].hash, fakeIntegers(0)))
        << "double prefill must be rejected";
    EXPECT_FALSE(sched.markCompleted("feedfacecafebeef", {}));
    // Only the holes are dispatched.
    LeaseGrant g1, g2;
    ASSERT_EQ(sched.acquire("w1", 0.0, g1), AcquireStatus::Granted);
    EXPECT_EQ(g1.unitIndex, 1u);
    ASSERT_EQ(sched.acquire("w1", 0.0, g2), AcquireStatus::Granted);
    EXPECT_EQ(g2.unitIndex, 3u);
    sched.complete("w1", g1.hash, fakeIntegers(1), 1.0);
    sched.complete("w1", g2.hash, fakeIntegers(3), 2.0);
    ASSERT_TRUE(sched.done());
    std::vector<ResultIntegers> integers(units.size());
    for (std::uint32_t i = 0; i < units.size(); ++i)
        integers[i] = fakeIntegers(i);
    EXPECT_EQ(sched.renderResults(), renderResultsDoc(units, integers));
}

TEST(Sched, PartialAndStatusDocumentsAreWellFormed)
{
    const auto units = testUnits();
    Scheduler sched(units, fastOptions());
    LeaseGrant grant;
    sched.acquire("w1", 0.0, grant);
    sched.complete("w1", grant.hash, fakeIntegers(0), 1.5);
    sched.acquire("w1", 1.5, grant);

    std::string error;
    const auto partial = json::parse(sched.renderPartial(), &error);
    ASSERT_TRUE(partial.has_value()) << error;
    EXPECT_EQ(partial->getString("schema"), "tcsim-bench-partial-v1");
    EXPECT_EQ(partial->getUint64("units"), units.size());
    EXPECT_EQ(partial->getUint64("completed"), 1u);

    const auto status = json::parse(sched.renderStatus(2.0), &error);
    ASSERT_TRUE(status.has_value()) << error;
    EXPECT_EQ(status->getString("schema"), "tcsim-sched-status-v1");
    EXPECT_EQ(status->getString("matrix_hash"), matrixHash(units));
    EXPECT_EQ(status->getUint64("units"), units.size());
    EXPECT_EQ(status->getUint64("completed"), 1u);
    EXPECT_EQ(status->getUint64("in_flight"), 1u);
    EXPECT_EQ(status->getUint64("pending"), units.size() - 2);
    const json::Value *workers = status->find("workers");
    ASSERT_NE(workers, nullptr);
    ASSERT_EQ(workers->items().size(), 1u);
    EXPECT_EQ(workers->items()[0].getString("worker"), "w1");
    EXPECT_EQ(workers->items()[0].getUint64("completed"), 1u);
    EXPECT_EQ(workers->items()[0].getUint64("active_leases"), 1u);
}

// ---------------------------------------------------------------------
// The scheduler's HTTP routes.
// ---------------------------------------------------------------------

/** One raw HTTP/1.0 exchange with no Authorization header at all;
 * @p extra_headers (CRLF-terminated lines) go after the request line. */
std::string
requestWithoutToken(std::uint16_t port, const std::string &method,
                    const std::string &path,
                    const std::string &extra_headers = "")
{
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                sizeof(addr)) != 0) {
        close(fd);
        return "";
    }
    const std::string request =
        method + " " + path + " HTTP/1.0\r\n" + extra_headers + "\r\n";
    (void)!write(fd, request.data(), request.size());
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = read(fd, buf, sizeof(buf))) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    close(fd);
    return response;
}

/** @return whether @p text names any of the matrix's data. */
bool
leaksMatrix(const std::string &text, const std::vector<WorkUnit> &units)
{
    if (text.find(matrixHash(units)) != std::string::npos ||
        text.find("tcsim-sched") != std::string::npos) {
        return true;
    }
    for (const WorkUnit &unit : units) {
        if (text.find(unit.hash) != std::string::npos ||
            text.find(unit.id) != std::string::npos) {
            return true;
        }
    }
    return false;
}

TEST(SchedServer, RejectsWithoutTokenServesWithIt)
{
    const testing_util::ScratchDir scratch;
    FragmentStore store(scratch.path());
    const auto units = testUnits();
    // An object under a unit's name that is no valid fragment, so
    // resume skips it and the unit stays leasable.
    const std::string stored = units[0].hash + ".json";
    ASSERT_TRUE(store.put(stored, "not a fragment"));
    SchedServer service(units, fastOptions(), store);
    obs::HttpServer server;
    ASSERT_TRUE(server.start("127.0.0.1", 0, "hunter2",
                             [&service](const obs::HttpRequest &request) {
                                 return service.handle(request);
                             }));
    ASSERT_NE(server.port(), 0);

    for (const auto &[method, path] :
         {std::pair<std::string, std::string>{"POST", "/lease?worker=w1"},
          {"GET", "/status"}}) {
        const std::string missing =
            requestWithoutToken(server.port(), method, path);
        EXPECT_NE(missing.find(" 401 "), std::string::npos) << missing;
        EXPECT_FALSE(leaksMatrix(missing, units)) << missing;

        const auto wrong = obs::httpRequest("127.0.0.1", server.port(),
                                            method, path, "nope");
        ASSERT_TRUE(wrong.has_value()) << path;
        EXPECT_EQ(wrong->status, 401) << path;
        EXPECT_FALSE(leaksMatrix(wrong->body, units)) << wrong->body;

        const auto ok = obs::httpRequest("127.0.0.1", server.port(),
                                         method, path, "hunter2");
        ASSERT_TRUE(ok.has_value()) << path;
        EXPECT_EQ(ok->status, 200) << path;
        EXPECT_NE(ok->body.find(matrixHash(units)), std::string::npos)
            << ok->body;
    }

    // The scheduler serves no object store: a stored object is not
    // reachable by name, and there is no manifest. Unauthorized
    // probes still get a bare 401.
    for (const std::string &path :
         {std::string("/manifest"), "/obj/" + stored}) {
        const std::string missing =
            requestWithoutToken(server.port(), "GET", path);
        EXPECT_NE(missing.find(" 401 "), std::string::npos) << missing;
        EXPECT_FALSE(leaksMatrix(missing, units)) << missing;

        const auto ok = obs::httpRequest("127.0.0.1", server.port(), "GET",
                                         path, "hunter2");
        ASSERT_TRUE(ok.has_value()) << path;
        EXPECT_EQ(ok->status, 404) << path;
        EXPECT_FALSE(leaksMatrix(ok->body, units)) << ok->body;
    }
    server.stop();
    // Only the authorized /lease reached the scheduler.
    EXPECT_EQ(service.withScheduler(
                  [](Scheduler &sched) { return sched.leasesIssued(); }),
              1u);
}

TEST(SchedServer, RejectsTokenlessLargeBodyBeforeReadingIt)
{
    const testing_util::ScratchDir scratch;
    FragmentStore store(scratch.path());
    SchedServer service(testUnits(), fastOptions(), store);
    obs::HttpServer server;
    ASSERT_TRUE(server.start("127.0.0.1", 0, "hunter2",
                             [&service](const obs::HttpRequest &request) {
                                 return service.handle(request);
                             }));

    // The declared body never arrives: the 401 must not wait for it,
    // which would take at least one 2 s read poll.
    const auto start = std::chrono::steady_clock::now();
    const std::string response =
        requestWithoutToken(server.port(), "POST", "/lease?worker=w1",
                            "Content-Length: 200000000\r\n");
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_NE(response.find(" 401 "), std::string::npos) << response;
    EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
    server.stop();
    EXPECT_EQ(service.withScheduler(
                  [](Scheduler &sched) { return sched.leasesIssued(); }),
              0u);
}

TEST(SchedServer, RefusesEmptyToken)
{
    const testing_util::ScratchDir scratch;
    FragmentStore store(scratch.path());
    SchedServer service(testUnits(), fastOptions(), store);
    obs::HttpServer server;
    EXPECT_FALSE(server.start("127.0.0.1", 0, "",
                              [&service](const obs::HttpRequest &request) {
                                  return service.handle(request);
                              }));
    EXPECT_FALSE(server.running());
}

obs::HttpRequest
completeRequest(const WorkUnit &unit, const std::string &fragment)
{
    obs::HttpRequest request;
    request.method = "POST";
    request.path = "/complete";
    request.query = "worker=w1&hash=" + unit.hash;
    request.body = fragment;
    return request;
}

TEST(SchedServer, CompleteHealsPoisonedObjectFirstWinsOtherwise)
{
    // A torn fragment under a real unit name: resume rejects it, and
    // the unit's real delivery must replace it. A later valid
    // duplicate must not (first-wins for valid objects).
    const testing_util::ScratchDir scratch;
    FragmentStore store(scratch.path());
    const auto units = testUnits();
    const std::string name = units[0].hash + ".json";
    ASSERT_TRUE(store.put(name, "{\"schema\": \"tcsim-bench-fragment-v1\"}"));

    SchedServer service(units, fastOptions(), store);
    EXPECT_EQ(service.resumed(), 0u);

    UnitTiming first_timing;
    first_timing.wallSeconds = 1.5;
    const std::string first =
        renderFragment(units[0], fakeIntegers(0), first_timing);
    const obs::HttpResponse accepted =
        service.handle(completeRequest(units[0], first));
    EXPECT_EQ(accepted.status, 200);
    EXPECT_NE(accepted.body.find("accepted"), std::string::npos);
    EXPECT_EQ(store.get(name), first);
    EXPECT_TRUE(readFragment(store, name).has_value());

    const std::string second =
        renderFragment(units[0], fakeIntegers(0), UnitTiming{});
    const obs::HttpResponse duplicate =
        service.handle(completeRequest(units[0], second));
    EXPECT_EQ(duplicate.status, 200);
    EXPECT_NE(duplicate.body.find("duplicate"), std::string::npos);
    EXPECT_EQ(store.get(name), first);

    // A mislabeled delivery is refused and never reaches the store.
    const obs::HttpResponse mislabeled =
        service.handle(completeRequest(units[1], first));
    EXPECT_EQ(mislabeled.status, 400);
    EXPECT_FALSE(store.exists(units[1].hash + ".json"));
}

} // namespace
