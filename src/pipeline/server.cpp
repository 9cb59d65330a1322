#include "pipeline/server.h"

#include <cctype>
#include <cstdio>
#include <sstream>
#include <vector>

#include "backend/asm_writer.h"
#include "hyperblock/merge.h"
#include "pipeline/session.h"
#include "support/fatal.h"
#include "support/fault_inject.h"
#include "support/hash.h"
#include "support/parse_int.h"
#include "workloads/generator.h"

namespace chf {

std::string
jsonQuote(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out.push_back('"');
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

namespace server_detail {

/**
 * The flat slice of JSON the protocol needs: one object of string /
 * number / bool / array-of-integer fields. Nested containers are a
 * protocol violation and parse errors report why. Enough for every
 * request shape in docs/operations.md without pulling in a JSON
 * dependency the image does not have. A number field keeps its token
 * text, so a numeric id echoes verbatim and each consumer converts the
 * token to exactly the type it needs.
 */
struct Request
{
    std::vector<std::pair<std::string, std::string>> strings;
    std::vector<std::pair<std::string, std::string>> numbers;
    std::vector<std::pair<std::string, bool>> bools;
    std::vector<std::pair<std::string, std::vector<int64_t>>> arrays;

    const std::string *
    str(const std::string &key) const
    {
        for (const auto &f : strings)
            if (f.first == key)
                return &f.second;
        return nullptr;
    }

    bool
    boolean(const std::string &key, bool fallback) const
    {
        for (const auto &f : bools)
            if (f.first == key)
                return f.second;
        return fallback;
    }

    /** The number token of field @p key, or null. */
    const std::string *
    number(const std::string &key) const
    {
        for (const auto &f : numbers)
            if (f.first == key)
                return &f.second;
        return nullptr;
    }

    const std::vector<int64_t> *
    array(const std::string &key) const
    {
        for (const auto &f : arrays)
            if (f.first == key)
                return &f.second;
        return nullptr;
    }
};

class RequestParser
{
  public:
    RequestParser(const std::string &text) : text(text) {}

    bool
    parse(Request *out, std::string *err)
    {
        skipSpace();
        if (!consume('{'))
            return fail(err, "expected '{'");
        skipSpace();
        if (consume('}'))
            return true;
        for (;;) {
            std::string key;
            if (!parseString(&key))
                return fail(err, "expected a string key");
            skipSpace();
            if (!consume(':'))
                return fail(err, "expected ':'");
            skipSpace();
            if (!parseValue(*out, key))
                return fail(err, "bad value for key \"" + key + "\"");
            skipSpace();
            if (consume(',')) {
                skipSpace();
                continue;
            }
            if (consume('}')) {
                skipSpace();
                if (pos != text.size())
                    return fail(err, "trailing bytes after object");
                return true;
            }
            return fail(err, "expected ',' or '}'");
        }
    }

  private:
    bool
    fail(std::string *err, std::string why)
    {
        if (err)
            *err = std::move(why);
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    parseString(std::string *out)
    {
        if (!consume('"'))
            return false;
        out->clear();
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out->push_back(c);
                continue;
            }
            if (pos >= text.size())
                return false;
            char esc = text[pos++];
            switch (esc) {
              case '"': out->push_back('"'); break;
              case '\\': out->push_back('\\'); break;
              case '/': out->push_back('/'); break;
              case 'n': out->push_back('\n'); break;
              case 't': out->push_back('\t'); break;
              case 'r': out->push_back('\r'); break;
              case 'b': out->push_back('\b'); break;
              case 'f': out->push_back('\f'); break;
              case 'u': {
                if (pos + 4 > text.size())
                    return false;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // The protocol is ASCII; anything wider is refused
                // rather than silently mangled.
                if (code > 0x7f)
                    return false;
                out->push_back(static_cast<char>(code));
                break;
              }
              default: return false;
            }
        }
        return false;
    }

    bool
    digits()
    {
        const size_t start = pos;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos])))
            ++pos;
        return pos > start;
    }

    /** One JSON number token (RFC 8259 grammar), as text. */
    bool
    parseNumber(std::string *out)
    {
        const size_t start = pos;
        consume('-');
        if (!consume('0') && !digits())
            return false;
        if (consume('.') && !digits())
            return false;
        if (consume('e') || consume('E')) {
            if (!consume('+'))
                consume('-');
            if (!digits())
                return false;
        }
        out->assign(text, start, pos - start);
        return true;
    }

    bool
    parseValue(Request &out, const std::string &key)
    {
        if (pos >= text.size())
            return false;
        char c = text[pos];
        if (c == '"') {
            std::string s;
            if (!parseString(&s))
                return false;
            out.strings.emplace_back(key, std::move(s));
            return true;
        }
        if (c == 't' && text.compare(pos, 4, "true") == 0) {
            pos += 4;
            out.bools.emplace_back(key, true);
            return true;
        }
        if (c == 'f' && text.compare(pos, 5, "false") == 0) {
            pos += 5;
            out.bools.emplace_back(key, false);
            return true;
        }
        if (c == 'n' && text.compare(pos, 4, "null") == 0) {
            pos += 4;
            return true;
        }
        if (c == '[') {
            ++pos;
            std::vector<int64_t> arr;
            skipSpace();
            if (consume(']')) {
                out.arrays.emplace_back(key, std::move(arr));
                return true;
            }
            for (;;) {
                skipSpace();
                std::string token;
                int64_t v = 0;
                if (!parseNumber(&token) || !parseInteger(token, &v))
                    return false;
                arr.push_back(v);
                skipSpace();
                if (consume(','))
                    continue;
                if (consume(']')) {
                    out.arrays.emplace_back(key, std::move(arr));
                    return true;
                }
                return false;
            }
        }
        std::string token;
        if (!parseNumber(&token))
            return false;
        out.numbers.emplace_back(key, std::move(token));
        return true;
    }

    const std::string &text;
    size_t pos = 0;
};

/** Echoed request id (already JSON-encoded) or empty. */
std::string
requestId(const Request &req)
{
    if (const std::string *s = req.str("id"))
        return jsonQuote(*s);
    if (const std::string *n = req.number("id"))
        return *n;
    return std::string();
}

std::string
errorResponse(const std::string &id, const std::string &message)
{
    std::ostringstream os;
    os << "{\"status\":\"error\"";
    if (!id.empty())
        os << ",\"id\":" << id;
    os << ",\"message\":" << jsonQuote(message) << "}";
    return os.str();
}

std::string
diagnosticsJson(const DiagnosticEngine &diags)
{
    std::ostringstream os;
    os << "[";
    const auto &all = diags.diagnostics();
    for (size_t i = 0; i < all.size(); ++i)
        os << (i ? "," : "") << jsonQuote(all[i].toString());
    os << "]";
    return os.str();
}

} // namespace server_detail

using server_detail::Request;
using server_detail::RequestParser;
using server_detail::diagnosticsJson;
using server_detail::errorResponse;
using server_detail::requestId;

CompileServer::CompileServer(ServerOptions options)
    : opts(std::move(options))
{
}

ServerStats
CompileServer::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    ServerStats s = counters;
    s.cacheEntries = cacheIndex.size();
    return s;
}

bool
CompileServer::cacheLookup(uint64_t key, std::string *response)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cacheIndex.find(key);
    if (it == cacheIndex.end())
        return false;
    cacheOrder.splice(cacheOrder.begin(), cacheOrder, it->second);
    *response = it->second->second;
    ++counters.cacheHits;
    return true;
}

void
CompileServer::cacheInsert(uint64_t key, const std::string &response)
{
    if (opts.cacheCapacity == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex);
    if (cacheIndex.count(key))
        return; // a concurrent identical request beat us to it
    cacheOrder.emplace_front(key, response);
    cacheIndex[key] = cacheOrder.begin();
    while (cacheOrder.size() > opts.cacheCapacity) {
        cacheIndex.erase(cacheOrder.back().first);
        cacheOrder.pop_back();
    }
}

std::string
CompileServer::handle(const std::string &line)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.requests;
    }

    Request req;
    std::string parse_err;
    if (!RequestParser(line).parse(&req, &parse_err)) {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.errors;
        return errorResponse("", "malformed request: " + parse_err);
    }
    const std::string id = requestId(req);

    const std::string *op = req.str("op");
    if (!op) {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.errors;
        return errorResponse(id, "missing \"op\"");
    }

    if (*op == "health") {
        std::ostringstream os;
        os << "{\"status\":\"ok\"";
        if (!id.empty())
            os << ",\"id\":" << id;
        os << ",\"in_flight\":" << inFlight.load() << "}";
        return os.str();
    }

    if (*op == "stats") {
        ServerStats s = stats();
        // Process-wide trial-memo store occupancy: how much trial work
        // the service is skipping through memoized failures.
        TrialMemoStats memo = trialMemoStats();
        std::ostringstream os;
        os << "{\"status\":\"ok\"";
        if (!id.empty())
            os << ",\"id\":" << id;
        os << ",\"requests\":" << s.requests
           << ",\"compiled\":" << s.compiled
           << ",\"cache_hits\":" << s.cacheHits
           << ",\"shed\":" << s.shed
           << ",\"timeouts\":" << s.timeouts
           << ",\"errors\":" << s.errors
           << ",\"cache_entries\":" << s.cacheEntries
           << ",\"trial_memo_hits\":" << memo.hits
           << ",\"trial_memo_misses\":" << memo.misses
           << ",\"trial_memo_entries\":" << memo.entries
           << ",\"in_flight\":" << inFlight.load() << "}";
        return os.str();
    }

    if (*op != "compile") {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.errors;
        return errorResponse(id, "unknown op \"" + *op + "\"");
    }

    const std::string *source = req.str("source");
    const std::string *gen = req.str("gen");
    if ((source == nullptr) == (gen == nullptr)) {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.errors;
        return errorResponse(
            id, "compile wants exactly one of \"source\" or \"gen\"");
    }

    const std::vector<int64_t> *args = req.array("args");
    // keep_going defaults on: a service should degrade, not die, on a
    // request that trips a pipeline bug.
    const bool keep_going = req.boolean("keep_going", true);
    const bool emit_asm = req.boolean("emit_asm", false);
    int timeout_ms = opts.defaultTimeoutMs;
    if (const std::string *t = req.number("timeout_ms")) {
        if (!parseAtLeast(*t, 0, &timeout_ms)) {
            std::lock_guard<std::mutex> lock(mutex);
            ++counters.errors;
            return errorResponse(id, "timeout_ms wants an integer in "
                                     "[0, 2147483647], got " + *t);
        }
    }
    const std::string *fault = req.str("fault");

    // Per-request target selection: a registry name ("trips",
    // "trips-wide", ...). Rejected before admission so a typo costs one
    // round trip, not a compile slot.
    const std::string *target_field = req.str("target");
    const std::string target_name = target_field ? *target_field : "trips";
    if (!findTarget(target_name)) {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.errors;
        return errorResponse(id, "unknown target \"" + target_name +
                                     "\" (known targets: " +
                                     targetNamesJoined() + ")");
    }

    // Content hash over every output-affecting field — including the
    // target name, so two targets never share a cache entry. timeout_ms
    // stays out on purpose: a compile that beat its budget produced the
    // same bytes any budget produces, and timed-out responses are never
    // cached. Fault-carrying requests bypass the cache entirely.
    uint64_t cache_key = 0;
    const bool cacheable = fault == nullptr && opts.cacheCapacity > 0;
    if (cacheable) {
        Hash64 h;
        h.str(source ? *source : *gen);
        h.str(target_name);
        h.u8(source ? 1 : 2);
        h.u8(keep_going ? 1 : 0);
        h.u8(emit_asm ? 1 : 0);
        h.u64(args ? args->size() : 0);
        if (args)
            for (int64_t a : *args)
                h.u64(static_cast<uint64_t>(a));
        cache_key = h.digest();

        std::string cached;
        if (cacheLookup(cache_key, &cached))
            return id.empty()
                       ? cached
                       : "{\"id\":" + id + "," + cached.substr(1);
    }

    // Overload shedding: admission is a simple slot count. A refused
    // request costs the client one round trip and nothing else.
    int admitted = inFlight.fetch_add(1, std::memory_order_acq_rel);
    if (admitted >= opts.maxInFlight) {
        inFlight.fetch_sub(1, std::memory_order_acq_rel);
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.shed;
        std::ostringstream os;
        os << "{\"status\":\"shed\"";
        if (!id.empty())
            os << ",\"id\":" << id;
        os << ",\"in_flight\":" << opts.maxInFlight << "}";
        return os.str();
    }

    std::string response;
    try {
        response = handleCompileAdmitted(req, id, fault, cacheable,
                                         cache_key, keep_going, emit_asm,
                                         timeout_ms);
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.errors;
        response = errorResponse(id, e.what());
    }
    inFlight.fetch_sub(1, std::memory_order_acq_rel);
    return response;
}

std::string
CompileServer::handleCompileAdmitted(
    const Request &req, const std::string &id, const std::string *fault,
    bool cacheable, uint64_t cache_key, bool keep_going, bool emit_asm,
    int timeout_ms)
{
    const std::string *source = req.str("source");
    const std::string *gen = req.str("gen");
    const std::vector<int64_t> *args = req.array("args");
    const std::string *target_field = req.str("target");
    // Validated by handle() before admission; re-resolve by name here.
    const TargetModel &target =
        *findTarget(target_field ? *target_field : "trips");

    // The request's fault is scoped to this thread's compile, so it
    // runs beside every other request.
    std::optional<FaultSpec> spec;
    if (fault) {
        spec.emplace();
        std::string err;
        if (!parseFaultSpec(*fault, &*spec, &err)) {
            std::lock_guard<std::mutex> lock(mutex);
            ++counters.errors;
            return errorResponse(id, "bad fault spec: " + err);
        }
    }

    Program program;
    if (source) {
        DiagnosticEngine diags;
        std::optional<Program> fe = Session::frontend(*source, diags);
        if (!fe) {
            std::lock_guard<std::mutex> lock(mutex);
            ++counters.errors;
            return errorResponse(id, "frontend: " + diags.toString());
        }
        program = std::move(*fe);
    } else {
        uint64_t seed = 0;
        GeneratorShape shape;
        std::string err;
        if (!parseGenSpec(*gen, &seed, &shape, &err)) {
            std::lock_guard<std::mutex> lock(mutex);
            ++counters.errors;
            return errorResponse(id, "bad gen spec: " + err);
        }
        program = buildGenerated(generateTinyC(seed, shape));
    }
    if (args && !args->empty()) {
        // Profiling binds one argument per parameter of main.
        if (args->size() < program.fn.argRegs.size()) {
            std::lock_guard<std::mutex> lock(mutex);
            ++counters.errors;
            return errorResponse(id, concat("args wants ",
                                            program.fn.argRegs.size(),
                                            " integers, got ",
                                            args->size()));
        }
        program.defaultArgs = *args;
    }

    // The request is one lowered unit: the Session prepares it inside
    // the unit's deadline and fault scopes, like every other phase.
    SessionOptions options = SessionOptions()
                                 .withPipeline(Pipeline::IUPO_fused)
                                 .withTarget(target)
                                 .withKeepGoing(keep_going)
                                 .withUnitTimeout(timeout_ms);
    if (spec)
        options.withFault(*spec);
    Session session(options);
    session.addLowered(std::move(program));
    SessionResult result = session.compile();

    const FunctionResult &fr = result.functions[0];
    bool timed_out = false;
    for (const std::string &phase : fr.failedPhases)
        if (phase == "timeout")
            timed_out = true;

    {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.compiled;
        if (timed_out)
            ++counters.timeouts;
    }

    // Response body: everything except "id"/"cached", so the cached
    // copy can be re-wrapped per request.
    std::ostringstream body;
    body << "\"status\":" << (timed_out ? "\"timeout\"" : "\"ok\"")
         << ",\"degraded\":" << (fr.degraded() ? "true" : "false")
         << ",\"blocks\":" << fr.blocks << ",\"insts\":" << fr.insts
         << ",\"failed_phases\":[";
    for (size_t i = 0; i < fr.failedPhases.size(); ++i)
        body << (i ? "," : "") << jsonQuote(fr.failedPhases[i]);
    body << "],\"diagnostics\":" << diagnosticsJson(result.diagnostics);
    if (emit_asm && !timed_out)
        body << ",\"asm\":"
             << jsonQuote(writeFunctionAsm(session.program(0).fn));

    std::string tail = body.str();
    if (cacheable && !timed_out)
        cacheInsert(cache_key, "{\"cached\":true," + tail + "}");

    std::ostringstream os;
    os << "{";
    if (!id.empty())
        os << "\"id\":" << id << ",";
    os << "\"cached\":false," << tail << "}";
    return os.str();
}

} // namespace chf
