/**
 * @file
 * Protocol tests for CompileServer (src/pipeline/server.h): request
 * parsing and error reporting, the content-addressed LRU cache,
 * overload shedding, per-request timeouts, per-request fault scopes,
 * and the stats counters — all in-process, no sockets. The end-to-end
 * daemon (transport, concurrent connections, hostile clients, the
 * replay client) is covered by scripts/check_server.sh.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/server.h"

namespace chf {
namespace {

bool
hasField(const std::string &response, const std::string &field)
{
    return response.find(field) != std::string::npos;
}

std::string
status(const std::string &response)
{
    size_t at = response.find("\"status\":\"");
    if (at == std::string::npos)
        return "";
    at += 10;
    return response.substr(at, response.find('"', at) - at);
}

const char *const kCompileGen =
    R"({"op":"compile","gen":"seed:3,shape:bench"})";

TEST(ServerProtocol, HealthAndStats)
{
    CompileServer server;
    std::string health = server.handle(R"({"op":"health"})");
    EXPECT_EQ(status(health), "ok");
    EXPECT_TRUE(hasField(health, "\"in_flight\":0"));

    std::string stats = server.handle(R"({"op":"stats"})");
    EXPECT_EQ(status(stats), "ok");
    EXPECT_TRUE(hasField(stats, "\"requests\":2"));
    EXPECT_EQ(server.stats().requests, 2u);
    EXPECT_EQ(server.stats().errors, 0u);

    // The process-wide trial-memo occupancy rides along.
    EXPECT_TRUE(hasField(stats, "\"trial_memo_hits\":"));
    EXPECT_TRUE(hasField(stats, "\"trial_memo_entries\":"));

    // A compile with real control flow (so formation runs merge
    // trials) is counted.
    std::string compiled = server.handle(
        R"({"op":"compile","source":"int main() { int acc = 0; for (int i = 0; i < 16; i += 1) { if ((i & 1) == 1) { acc += i; } else { acc -= 1; } if ((i & 6) == 2) { acc += 3; } } return acc; }"})");
    EXPECT_EQ(status(compiled), "ok");
    EXPECT_EQ(server.stats().compiled, 1u);
}

TEST(ServerProtocol, MalformedRequestsAreErrorsNotCrashes)
{
    CompileServer server;
    const char *bad[] = {
        "",
        "not json",
        "{\"op\":\"compile\"}",          // neither source nor gen
        R"({"op":"nosuch"})",            // unknown op
        R"({"op":"compile","source":"int main(){return 0;}","gen":"seed:1"})",
        R"({"op":"compile","gen":{"nested":1}})", // nested value
        R"({"op":"compile","gen":"seed:notanumber"})",
        R"({"op":"compile","source":"int main(){ syntax error"})",
        // Numbers outside the field's integer type or range.
        R"({"op":"compile","gen":"seed:3","timeout_ms":1e300})",
        R"({"op":"compile","gen":"seed:3","timeout_ms":-5})",
        R"({"op":"compile","gen":"seed:3","timeout_ms":2147483648})",
        R"({"op":"compile","gen":"seed:3","timeout_ms":1.5})",
        R"({"op":"compile","source":"int main(int x){return x;}","args":[1e300]})",
        R"({"op":"compile","source":"int main(int x){return x;}","args":[1.5]})",
        R"({"op":"compile","source":"int main(int x){return x;}","args":[9223372036854775808]})",
        // Fewer arguments than main takes.
        R"({"op":"compile","gen":"seed:3","args":[1]})",
        // Fault specs that could never fire or would fire in another
        // unit.
        R"({"op":"compile","gen":"seed:3","fault":"phase:formaton"})",
        R"({"op":"compile","gen":"seed:3","fault":"fn:4294967296"})",
    };
    for (const char *line : bad) {
        std::string response = server.handle(line);
        EXPECT_EQ(status(response), "error") << line << " -> " << response;
        EXPECT_TRUE(hasField(response, "\"message\":")) << response;
    }
    EXPECT_EQ(server.stats().errors,
              sizeof(bad) / sizeof(bad[0]));
    EXPECT_EQ(server.stats().compiled, 0u);

    std::string typo = server.handle(
        R"({"id":9,"op":"compile","gen":"seed:3","fault":"phase:formaton"})");
    EXPECT_TRUE(hasField(typo, "\"id\":9,")) << typo;
    EXPECT_TRUE(hasField(typo, "bad fault spec: unknown fault phase"))
        << typo;
}

TEST(ServerProtocol, MinDividedByMinusOneIsServed)
{
    // INT64_MIN / -1 traps a hardware divide. The first request reaches
    // it in the profiler's run of the program, the second in constant
    // folding; both must compile, and the server must keep serving.
    CompileServer server;
    const char *requests[] = {
        R"({"op":"compile","source":"int main(int a) { int m = -9223372036854775807 - 1; return m / a; }","args":[-1]})",
        R"({"op":"compile","source":"int main() { int m = -9223372036854775807 - 1; return m / -1; }"})",
        R"({"op":"compile","source":"int main(int a) { int m = -9223372036854775807 - 1; return m % a; }","args":[-1]})",
    };
    for (const char *request : requests) {
        std::string response = server.handle(request);
        EXPECT_EQ(status(response), "ok") << request << "\n" << response;
    }
    EXPECT_EQ(status(server.handle(R"({"op":"health"})")), "ok");
    EXPECT_EQ(server.stats().compiled, 3u);
}

TEST(ServerProtocol, CompilesAndEchoesId)
{
    CompileServer server;
    std::string response = server.handle(
        R"({"id":"req-17","op":"compile","gen":"seed:3,shape:bench",)"
        R"("emit_asm":true})");
    EXPECT_EQ(status(response), "ok") << response;
    EXPECT_TRUE(hasField(response, "\"id\":\"req-17\"")) << response;
    EXPECT_TRUE(hasField(response, "\"blocks\":")) << response;
    EXPECT_TRUE(hasField(response, "\"asm\":")) << response;
    EXPECT_EQ(server.stats().compiled, 1u);

    // A numeric id is echoed as the token it arrived as.
    std::string numeric = server.handle(
        R"({"id":1234567,"op":"compile","gen":"seed:4,shape:bench"})");
    EXPECT_EQ(status(numeric), "ok") << numeric;
    EXPECT_TRUE(hasField(numeric, "\"id\":1234567,")) << numeric;
    EXPECT_EQ(server.stats().compiled, 2u);
}

TEST(ServerCache, RepeatRequestIsServedFromCacheByteIdentically)
{
    CompileServer server;
    std::string first = server.handle(kCompileGen);
    std::string second = server.handle(kCompileGen);
    EXPECT_EQ(status(first), "ok");
    EXPECT_EQ(status(second), "ok");
    EXPECT_FALSE(hasField(first, "\"cached\":true"));
    EXPECT_TRUE(hasField(second, "\"cached\":true"));
    EXPECT_EQ(server.stats().compiled, 1u);
    EXPECT_EQ(server.stats().cacheHits, 1u);

    // Identical payload modulo the cached marker.
    std::string normalized = second;
    size_t marker = normalized.find("\"cached\":true");
    ASSERT_NE(marker, std::string::npos);
    normalized.replace(marker, 13, "\"cached\":false");
    EXPECT_EQ(normalized, first);

    // A different id still hits the cache and echoes correctly.
    std::string with_id = server.handle(
        R"({"id":"z","op":"compile","gen":"seed:3,shape:bench"})");
    EXPECT_TRUE(hasField(with_id, "\"id\":\"z\""));
    EXPECT_TRUE(hasField(with_id, "\"cached\":true"));
    EXPECT_EQ(server.stats().cacheHits, 2u);
}

TEST(ServerCache, DistinctRequestsMissAndLruEvicts)
{
    ServerOptions opts;
    opts.cacheCapacity = 2;
    CompileServer server(opts);

    auto gen = [](int seed) {
        return std::string(R"({"op":"compile","gen":"seed:)") +
               std::to_string(seed) + R"(,shape:bench"})";
    };
    server.handle(gen(1)); // cache {1}
    server.handle(gen(2)); // cache {2,1}
    server.handle(gen(3)); // evicts 1 -> {3,2}
    EXPECT_EQ(server.stats().cacheHits, 0u);
    EXPECT_TRUE(hasField(server.handle(gen(2)), "\"cached\":true"));
    EXPECT_FALSE(hasField(server.handle(gen(1)), "\"cached\":true"));
    EXPECT_EQ(server.stats().compiled, 4u);
}

TEST(ServerCache, KeepGoingChangesTheKey)
{
    CompileServer server;
    server.handle(kCompileGen);
    std::string other = server.handle(
        R"({"op":"compile","gen":"seed:3,shape:bench","keep_going":false})");
    EXPECT_FALSE(hasField(other, "\"cached\":true"));
    EXPECT_EQ(server.stats().compiled, 2u);
}

TEST(ServerCache, TargetsNeverShareCacheEntries)
{
    CompileServer server;
    auto compileFor = [&](const char *target) {
        return server.handle(
            std::string(R"({"op":"compile","gen":"seed:3,shape:bench",)"
                        R"("target":")") +
            target + R"("})");
    };

    std::string trips = compileFor("trips");
    std::string small = compileFor("small-block");
    EXPECT_EQ(status(trips), "ok") << trips;
    EXPECT_EQ(status(small), "ok") << small;
    // The second target must compile fresh, never hit trips's entry.
    EXPECT_FALSE(hasField(small, "\"cached\":true"));
    EXPECT_EQ(server.stats().compiled, 2u);

    // Each target hits only its own entry on repeat.
    EXPECT_TRUE(hasField(compileFor("trips"), "\"cached\":true"));
    EXPECT_TRUE(hasField(compileFor("small-block"), "\"cached\":true"));
    EXPECT_EQ(server.stats().compiled, 2u);
    EXPECT_EQ(server.stats().cacheHits, 2u);

    // An explicit "trips" and an omitted target are the same request.
    EXPECT_TRUE(hasField(server.handle(kCompileGen), "\"cached\":true"));
}

TEST(ServerProtocol, UnknownTargetIsRefusedWithTheRegistry)
{
    CompileServer server;
    std::string response = server.handle(
        R"({"op":"compile","gen":"seed:3,shape:bench","target":"vax"})");
    EXPECT_EQ(status(response), "error") << response;
    EXPECT_TRUE(hasField(response, "trips-wide")) << response;
    EXPECT_EQ(server.stats().compiled, 0u);
    EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ServerTimeout, StalledRequestTimesOutAndIsNotCached)
{
    // A stall in formation, and one in prepare's for-loop unroll: the
    // request's budget covers prepare too.
    for (const char *fault : {"phase:formation,fn:0,kind:stall:10000",
                              "phase:unroll,fn:0,kind:stall:10000"}) {
        SCOPED_TRACE(fault);
        CompileServer server;
        const std::string stalled =
            std::string(
                R"({"op":"compile","gen":"seed:3,shape:bench",)"
                R"("timeout_ms":300,"fault":")") +
            fault + R"("})";
        std::string response = server.handle(stalled);
        EXPECT_EQ(status(response), "timeout") << response;
        EXPECT_TRUE(hasField(response, "\"degraded\":true"));
        EXPECT_TRUE(hasField(response, "\"timeout\""));
        EXPECT_EQ(server.stats().timeouts, 1u);

        // The timed-out response must not have poisoned the cache.
        std::string again = server.handle(stalled);
        EXPECT_EQ(status(again), "timeout");
        EXPECT_EQ(server.stats().cacheHits, 0u);
    }
}

TEST(ServerProtocol, RolledBackPrepareUnrollIsDegraded)
{
    // A request is one lowered Session unit, so prepare's for-loop
    // "unroll" is the first hook its fault can reach: fn:0 names the
    // request's unit, and so does the default any-phase fault. The
    // fault fires once.
    for (const char *fault : {"phase:unroll,fn:0,kind:throw", "kind:throw"}) {
        SCOPED_TRACE(fault);
        CompileServer server;
        std::string response = server.handle(
            std::string(R"({"op":"compile","gen":"seed:3,shape:bench",)") +
            R"("fault":")" + fault + R"("})");
        EXPECT_EQ(status(response), "ok") << response;
        EXPECT_TRUE(hasField(response, "\"degraded\":true")) << response;
        EXPECT_TRUE(hasField(response, "\"failed_phases\":[\"unroll\"]"))
            << response;
        EXPECT_TRUE(hasField(response, "rolled back 'unroll'")) << response;
    }
}

TEST(ServerFaultIsolation, StalledFaultRequestDoesNotBlockCleanOne)
{
    ServerOptions opts;
    opts.maxInFlight = 2;
    CompileServer server(opts);

    std::atomic<bool> stalled_done{false};
    std::thread stalled([&] {
        server.handle(
            R"({"op":"compile","gen":"seed:9,shape:bench",)"
            R"("fault":"phase:formation,fn:0,kind:stall:2000"})");
        stalled_done = true;
    });
    for (int i = 0; i < 1000; ++i) {
        if (hasField(server.handle(R"({"op":"health"})"),
                     "\"in_flight\":1"))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Give the stalled request time to reach its stall.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    const char *clean =
        R"({"op":"compile","gen":"seed:6,shape:bench","emit_asm":true})";
    std::string response = server.handle(clean);
    EXPECT_FALSE(stalled_done.load())
        << "the clean request waited for the stalled one";
    stalled.join();
    EXPECT_EQ(response, CompileServer().handle(clean));
}

TEST(ServerShedding, OverCapacityBurstsAreRefused)
{
    ServerOptions opts;
    opts.maxInFlight = 1;
    CompileServer server(opts);

    // One request stalls inside the service for ~1s while a burst of
    // cheap requests arrives: with a single in-flight slot every one
    // of them must be shed immediately, not queued.
    std::thread stall([&server] {
        server.handle(
            R"({"op":"compile","gen":"seed:9,shape:bench","timeout_ms":900,)"
            R"("fault":"phase:formation,fn:0,kind:stall:10000"})");
    });
    // Wait for the stalled compile to own the only slot (health takes
    // none) so the burst below cannot race it for admission.
    for (int i = 0; i < 1000; ++i) {
        if (hasField(server.handle(R"({"op":"health"})"),
                     "\"in_flight\":1"))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    size_t shed = 0;
    for (int i = 0; i < 200 && shed == 0; ++i) {
        std::string response = server.handle(kCompileGen);
        if (status(response) == "shed")
            ++shed;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stall.join();
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(server.stats().shed, shed);

    // Capacity is released once the stalled compile finishes.
    EXPECT_EQ(status(server.handle(kCompileGen)), "ok");
}

/** The "cache_entries" count of a stats response (-1 if absent). */
long
cacheEntries(const std::string &response)
{
    const std::string key = "\"cache_entries\":";
    size_t at = response.find(key);
    return at == std::string::npos
               ? -1
               : std::stol(response.substr(at + key.size()));
}

TEST(ServerProtocol, ConcurrentMixedTrafficIsCoherent)
{
    ServerOptions opts;
    opts.maxInFlight = 8;
    CompileServer server(opts);
    server.handle(kCompileGen); // warm the cache

    // Every other request is the warm one; the rest are distinct, so
    // the workers insert cache entries while one thread polls stats.
    // The cache never fills, so cache_entries never goes down.
    constexpr int kThreads = 4, kPerThread = 25;
    std::vector<std::thread> workers;
    std::atomic<int> bad{0};
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&server, &bad, t] {
            for (int i = 0; i < kPerThread; ++i) {
                std::string line =
                    i % 2 == 0
                        ? std::string(kCompileGen)
                        : R"({"op":"compile","gen":"seed:)" +
                              std::to_string(100 + t * kPerThread + i) +
                              R"(,shape:bench"})";
                std::string s = status(server.handle(line));
                if (s != "ok" && s != "shed")
                    bad.fetch_add(1);
            }
        });
    }
    std::atomic<bool> done{false};
    uint64_t polls = 0;
    std::thread poller([&] {
        long last = 0;
        do {
            long entries = cacheEntries(server.handle(R"({"op":"stats"})"));
            ++polls;
            if (entries < last)
                bad.fetch_add(1);
            last = entries;
        } while (!done.load());
    });
    for (std::thread &w : workers)
        w.join();
    done = true;
    poller.join();
    EXPECT_EQ(bad.load(), 0);
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, 1u + kThreads * kPerThread + polls);
    EXPECT_EQ(stats.cacheHits + stats.shed + stats.compiled,
              stats.requests - polls);
    EXPECT_EQ(stats.cacheEntries, 1u + kThreads * (kPerThread / 2));
    EXPECT_EQ(cacheEntries(server.handle(R"({"op":"stats"})")),
              static_cast<long>(stats.cacheEntries));
}

TEST(ServerProtocol, JsonQuoteEscapes)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(jsonQuote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
    EXPECT_EQ(jsonQuote(std::string(1, '\x01')), "\"\\u0001\"");
}

} // namespace
} // namespace chf
