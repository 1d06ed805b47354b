#include "bench/sched.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace tcsim::bench
{

namespace
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
formatDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

obs::HttpResponse
jsonReply(int status, std::string body)
{
    obs::HttpResponse resp;
    resp.status = status;
    resp.body = std::move(body);
    return resp;
}

} // namespace

Scheduler::Scheduler(std::vector<WorkUnit> units, SchedOptions options)
    : units_(std::move(units)), options_(options),
      states_(units_.size()), integers_(units_.size()),
      filled_(units_.size(), false)
{
    for (std::size_t i = 0; i < units_.size(); ++i)
        byHash_.emplace(units_[i].hash, i);
}

bool
Scheduler::markCompleted(const std::string &hash,
                         const ResultIntegers &integers)
{
    const auto it = byHash_.find(hash);
    if (it == byHash_.end() || states_[it->second].completed)
        return false;
    UnitState &state = states_[it->second];
    state.completed = true;
    state.leases.clear();
    integers_[it->second] = integers;
    filled_[it->second] = true;
    ++completed_;
    return true;
}

double
Scheduler::medianDuration() const
{
    if (durations_.empty())
        return 0.0;
    const std::size_t mid = durations_.size() / 2;
    if (durations_.size() % 2 == 1)
        return durations_[mid];
    return 0.5 * (durations_[mid - 1] + durations_[mid]);
}

AcquireStatus
Scheduler::acquire(const std::string &worker, double now,
                   LeaseGrant &grant)
{
    tick(now);
    if (done())
        return AcquireStatus::Done;

    const auto issue = [&](std::size_t index) {
        ActiveLease lease;
        lease.worker = worker;
        lease.start = now;
        lease.deadline = now + options_.leaseTimeoutSeconds;
        states_[index].leases.push_back(std::move(lease));
        ++leasesIssued_;
        grant.unitIndex = units_[index].index;
        grant.unitId = units_[index].id;
        grant.hash = units_[index].hash;
        grant.renewSeconds = options_.leaseTimeoutSeconds / 3.0;
    };

    // Fresh work first: the lowest-index unit nobody holds. There is
    // no partition — this IS the work stealing.
    for (std::size_t i = 0; i < units_.size(); ++i) {
        if (!states_[i].completed && states_[i].leases.empty()) {
            issue(i);
            return AcquireStatus::Granted;
        }
    }

    // No fresh work: maybe speculatively re-dispatch a straggler.
    // Only once the median is trustworthy, only units held by exactly
    // one (other) worker, and of those the longest in flight.
    if (durations_.size() >= options_.minMedianSamples) {
        const double threshold = options_.stragglerK * medianDuration();
        std::size_t straggler = units_.size();
        double longest = threshold;
        for (std::size_t i = 0; i < units_.size(); ++i) {
            const UnitState &state = states_[i];
            if (state.completed || state.leases.size() != 1 ||
                state.leases[0].worker == worker) {
                continue;
            }
            const double elapsed = now - state.leases[0].start;
            if (elapsed > longest) {
                longest = elapsed;
                straggler = i;
            }
        }
        if (straggler != units_.size()) {
            issue(straggler);
            ++redispatches_;
            return AcquireStatus::Granted;
        }
    }
    return AcquireStatus::Wait;
}

bool
Scheduler::renew(const std::string &worker, const std::string &hash,
                 double now)
{
    const auto it = byHash_.find(hash);
    if (it == byHash_.end() || states_[it->second].completed)
        return false;
    for (ActiveLease &lease : states_[it->second].leases) {
        if (lease.worker == worker) {
            lease.deadline = now + options_.leaseTimeoutSeconds;
            return true;
        }
    }
    return false;
}

Scheduler::CompleteStatus
Scheduler::complete(const std::string &worker, const std::string &hash,
                    const ResultIntegers &integers, double now)
{
    const auto it = byHash_.find(hash);
    if (it == byHash_.end())
        return CompleteStatus::Unknown;
    UnitState &state = states_[it->second];
    if (state.completed) {
        ++duplicates_;
        return CompleteStatus::Duplicate;
    }

    // Scheduler-measured duration: from when the unit FIRST went in
    // flight (the straggler's original dispatch, not the re-dispatch)
    // so re-dispatched units do not deflate the median.
    if (!state.leases.empty()) {
        double start = state.leases[0].start;
        for (const ActiveLease &lease : state.leases)
            start = std::min(start, lease.start);
        durations_.insert(std::upper_bound(durations_.begin(),
                                           durations_.end(), now - start),
                          now - start);
    }

    state.completed = true;
    state.leases.clear();
    integers_[it->second] = integers;
    filled_[it->second] = true;
    ++completed_;
    ++workerCompleted_[worker];
    return CompleteStatus::Accepted;
}

void
Scheduler::tick(double now)
{
    for (UnitState &state : states_) {
        if (state.completed)
            continue;
        const std::size_t before = state.leases.size();
        state.leases.erase(
            std::remove_if(state.leases.begin(), state.leases.end(),
                           [now](const ActiveLease &lease) {
                               return lease.deadline < now;
                           }),
            state.leases.end());
        leasesExpired_ += before - state.leases.size();
    }
}

std::string
Scheduler::renderResults() const
{
    return renderResultsDoc(units_, integers_);
}

std::string
Scheduler::renderPartial() const
{
    return renderPartialDoc(units_, integers_, filled_);
}

std::string
Scheduler::renderStatus(double now) const
{
    std::size_t in_flight = 0;
    double longest = 0.0;
    std::map<std::string, std::uint64_t> active;
    for (const UnitState &state : states_) {
        if (!unitInFlight(state))
            continue;
        ++in_flight;
        for (const ActiveLease &lease : state.leases) {
            longest = std::max(longest, now - lease.start);
            ++active[lease.worker];
        }
    }
    // A worker that completed units but holds nothing right now still
    // belongs in the roster.
    for (const auto &[worker, count] : workerCompleted_)
        active.emplace(worker, 0);

    std::string out = "{\n";
    out += "  \"schema\": \"tcsim-sched-status-v1\",\n";
    out += "  \"matrix_hash\": \"" + matrixHash(units_) + "\",\n";
    out += "  \"units\": " + std::to_string(units_.size()) + ",\n";
    out += "  \"completed\": " + std::to_string(completed_) + ",\n";
    out += "  \"in_flight\": " + std::to_string(in_flight) + ",\n";
    out += "  \"pending\": " +
           std::to_string(units_.size() - completed_ - in_flight) + ",\n";
    out += "  \"leases_issued\": " + std::to_string(leasesIssued_) + ",\n";
    out += "  \"leases_expired\": " + std::to_string(leasesExpired_) +
           ",\n";
    out += "  \"redispatches\": " + std::to_string(redispatches_) + ",\n";
    out += "  \"duplicates\": " + std::to_string(duplicates_) + ",\n";
    out += "  \"median_unit_seconds\": " + formatDouble(medianDuration()) +
           ",\n";
    out +=
        "  \"longest_in_flight_seconds\": " + formatDouble(longest) + ",\n";
    out += "  \"workers\": [\n";
    std::size_t emitted = 0;
    for (const auto &[worker, leases] : active) {
        const auto completed_it = workerCompleted_.find(worker);
        const std::uint64_t units_done = completed_it != workerCompleted_.end()
                                             ? completed_it->second
                                             : 0;
        out += "    {\"worker\": \"" + jsonEscape(worker) +
               "\", \"active_leases\": " + std::to_string(leases) +
               ", \"completed\": " + std::to_string(units_done) + "}";
        out += ++emitted < active.size() ? ",\n" : "\n";
    }
    out += "  ]\n";
    out += "}\n";
    return out;
}

std::size_t
resumeFromStore(Scheduler &sched, const FragmentStore &store)
{
    std::size_t resumed = 0;
    for (const std::string &name : store.list()) {
        const std::optional<FragmentData> fragment =
            readFragment(store, name);
        if (fragment && sched.markCompleted(fragment->hash,
                                            fragment->integers)) {
            ++resumed;
        }
    }
    return resumed;
}

double
schedClock()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
farmToken()
{
    const char *value = std::getenv("TCSIM_FARM_TOKEN");
    return value != nullptr ? value : "";
}

SchedServer::SchedServer(std::vector<WorkUnit> units,
                         SchedOptions options, FragmentStore &store)
    : store_(store), sched_(std::move(units), options),
      matrixHash_(bench::matrixHash(sched_.units())),
      resumed_(resumeFromStore(sched_, store))
{
}

obs::HttpResponse
SchedServer::handle(const obs::HttpRequest &request)
{
    const double now = schedClock();
    const std::string worker = obs::httpQueryParam(request.query, "worker");
    const std::string hash = obs::httpQueryParam(request.query, "hash");
    if (request.path == "/status") {
        std::lock_guard<std::mutex> lock(mutex_);
        return jsonReply(200, sched_.renderStatus(now));
    }
    if (request.path == "/partial") {
        std::lock_guard<std::mutex> lock(mutex_);
        return jsonReply(200, sched_.renderPartial());
    }
    const bool lease_route = request.path == "/lease";
    if (!lease_route && request.path != "/renew" &&
        request.path != "/complete") {
        return jsonReply(404, "{\"error\": \"not found\"}\n");
    }
    if (request.method != "POST")
        return jsonReply(405, "{\"error\": \"method\"}\n");
    if (worker.empty())
        return jsonReply(400, "{\"error\": \"worker\"}\n");
    if (lease_route)
        return lease(worker, now);
    if (request.path == "/renew") {
        std::lock_guard<std::mutex> lock(mutex_);
        return jsonReply(200, sched_.renew(worker, hash, now)
                                  ? "{\"ok\": true}\n"
                                  : "{\"ok\": false}\n");
    }
    return complete(worker, hash, request.body, now);
}

obs::HttpResponse
SchedServer::lease(const std::string &worker, double now)
{
    LeaseGrant grant;
    AcquireStatus status;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        status = sched_.acquire(worker, now, grant);
    }
    std::string body = "{\n";
    body += "  \"schema\": \"tcsim-sched-lease-v1\",\n";
    body += "  \"matrix_hash\": \"" + matrixHash_ + "\",\n";
    if (status == AcquireStatus::Granted) {
        body += "  \"status\": \"lease\",\n";
        body += "  \"unit_index\": " + std::to_string(grant.unitIndex) +
                ",\n";
        body += "  \"unit_id\": \"" + jsonEscape(grant.unitId) + "\",\n";
        body += "  \"hash\": \"" + grant.hash + "\",\n";
        body += "  \"renew_seconds\": " +
                std::to_string(grant.renewSeconds) + "\n";
    } else {
        body += std::string("  \"status\": \"") +
                (status == AcquireStatus::Done ? "done" : "wait") + "\"\n";
    }
    body += "}\n";
    return jsonReply(200, body);
}

obs::HttpResponse
SchedServer::complete(const std::string &worker, const std::string &hash,
                      const std::string &body, double now)
{
    FragmentData fragment;
    if (!parseFragmentBytes(body, fragment) || fragment.hash != hash) {
        // An invalid or mislabeled fragment is treated as never
        // delivered: the unit stays dispatchable.
        return jsonReply(400, "{\"result\": \"invalid\"}\n");
    }
    Scheduler::CompleteStatus status;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        status = sched_.complete(worker, hash, fragment.integers, now);
    }
    if (status == Scheduler::CompleteStatus::Unknown)
        return jsonReply(404, "{\"result\": \"unknown\"}\n");
    // Persist for crash-safe resume. First-wins, so a straggler's
    // duplicate is a no-op — unless the stored object fails the same
    // validity predicate resume applies (e.g. a fragment a dying
    // worker truncated mid-record into valid-but-incomplete JSON).
    // Then the verified payload overwrites it: first-wins would pin
    // the poison, and the next resume would re-dispatch a unit this
    // scheduler already counted done.
    const std::string name = hash + ".json";
    store_.put(name, body, /*overwrite=*/!readFragment(store_, name));
    return jsonReply(200, status == Scheduler::CompleteStatus::Accepted
                              ? "{\"result\": \"accepted\"}\n"
                              : "{\"result\": \"duplicate\"}\n");
}

} // namespace tcsim::bench
