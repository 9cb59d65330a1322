/**
 * @file
 * CompileServer — the long-lived compile service behind chf_serve.
 *
 * The server speaks newline-delimited JSON: one request object per
 * line in, one response object per line out. Transports (unix socket,
 * stdin/stdout — see examples/chf_serve.cpp) stay outside this class;
 * handle() is the whole protocol and may be called concurrently from
 * any number of transport threads.
 *
 * Requests (flat JSON objects; unknown keys are ignored):
 *
 *   {"op":"compile","source":"int main(){...}","args":[1,2]}
 *   {"op":"compile","source":"...","target":"small-block"}
 *   {"op":"compile","gen":"seed:7,shape:switchy","keep_going":true,
 *    "timeout_ms":500,"fault":"phase:formation,fn:0,kind:stall:5000"}
 *   {"op":"health"}
 *   {"op":"stats"}
 *
 * "target" selects a registry target model by name (default "trips";
 * see target/target_model.h). The name participates in the compile
 * cache key, so two targets never share a cache entry; an unknown name
 * is refused with an error listing the registry.
 *
 * Responses always carry "status": "ok" (compiled; "degraded":true if
 * phases rolled back), "timeout" (the unit's time budget or the
 * session deadline expired), "shed" (the server was over its
 * in-flight cap and refused the compile), or "error" (malformed
 * request or unrecoverable input). An "id" field in the request is
 * echoed back verbatim so pipelined clients can match responses.
 *
 * Operational behavior (docs/operations.md):
 *
 *  - Content-addressed LRU compile cache: responses for deterministic
 *    requests are cached under a hash of every output-affecting field;
 *    hits are served without compiling and marked "cached":true.
 *    Timeout results and fault-carrying requests are never cached.
 *  - Overload shedding: at most maxInFlight compiles run or wait at
 *    once; a request beyond that is refused immediately with
 *    status "shed" rather than queued without bound.
 *  - Fault isolation: the FaultInjector is process-wide, so a request
 *    carrying "fault" runs exclusively (writer side of an RW lock)
 *    and normal requests share the read side.
 */

#ifndef CHF_PIPELINE_SERVER_H
#define CHF_PIPELINE_SERVER_H

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

namespace chf {

/** Server-wide configuration (per-request knobs ride in the request). */
struct ServerOptions
{
    /** LRU compile-cache capacity in entries (0 disables caching). */
    size_t cacheCapacity = 256;

    /** Concurrent compiles admitted before shedding. */
    int maxInFlight = 8;

    /** Default per-request compile budget in ms (0 = none); a
     *  request's "timeout_ms" overrides it. */
    int defaultTimeoutMs = 0;

    /** Run the backend phases (regalloc/fanout/schedule). */
    bool runBackend = true;
};

/** Monotonic service counters, returned by the "stats" op. */
struct ServerStats
{
    uint64_t requests = 0;  ///< lines handled, including malformed
    uint64_t compiled = 0;  ///< compiles actually run
    uint64_t cacheHits = 0; ///< served straight from the LRU cache
    uint64_t shed = 0;      ///< refused over the in-flight cap
    uint64_t timeouts = 0;  ///< compiles that hit their time budget
    uint64_t errors = 0;    ///< malformed requests + input errors
};

namespace server_detail {
struct Request; ///< parsed request (server.cpp)
}

/** The compile service. Thread-safe; transports call handle(). */
class CompileServer
{
  public:
    explicit CompileServer(ServerOptions options = {});

    /**
     * Handle one request line (without the trailing newline) and
     * return the response line (without a trailing newline). Never
     * throws: every failure becomes a status:"error" response.
     */
    std::string handle(const std::string &line);

    ServerStats stats() const;

    const ServerOptions &options() const { return opts; }

  private:
    std::string handleCompileAdmitted(const server_detail::Request &req,
                                      const std::string &id,
                                      const std::string *fault,
                                      bool cacheable, uint64_t cache_key,
                                      bool keep_going, bool emit_asm,
                                      int timeout_ms, int retries,
                                      int backoff_ms);

    bool cacheLookup(uint64_t key, std::string *response);
    void cacheInsert(uint64_t key, const std::string &response);

    ServerOptions opts;

    /** Compiles admitted (running or waiting on faultLock). */
    std::atomic<int> inFlight{0};

    /** Fault-carrying requests take the writer side. */
    std::shared_mutex faultLock;

    mutable std::mutex mutex; ///< guards counters + cache
    ServerStats counters;

    /** LRU: most recent at the front; lookup by content hash. */
    std::list<std::pair<uint64_t, std::string>> cacheOrder;
    std::unordered_map<
        uint64_t,
        std::list<std::pair<uint64_t, std::string>>::iterator>
        cacheIndex;
};

/** JSON string escaping for protocol writers (tests use it too). */
std::string jsonQuote(const std::string &text);

} // namespace chf

#endif // CHF_PIPELINE_SERVER_H
