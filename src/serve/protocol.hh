/**
 * @file
 * The cxl_checkd wire protocol (`cxl-checkd/v1`): newline-delimited
 * JSON frames over a Unix-domain socket, one request per connection.
 *
 * Request frame (client -> server), one line:
 *
 *   {"schema":"cxl-checkd/v1", "type":"check", "id":"<client id>",
 *    "scenario":"free-run" | "case":{<cxl-fuzz-case/v1>},
 *    "devices":2, "checks":"both|invariants|deadlock",
 *    "config":{<the fuzz-case config keys>}, "families":[...],
 *    "engine":{"threads":N,"sym":"auto|on|off",
 *              "store":"ram|mmap","por":B,
 *              "schedule":"bfs|ws","max_states":N,"expect_states":N,
 *              "max_seconds":S,"max_rss_mb":N},
 *    "deterministic":B, "progress":B, "progress_interval":S}
 *
 * Every key except schema/type/id and exactly one of scenario|case is
 * optional; absent engine knobs fall back to the daemon's own
 * standard-flag defaults.  `{"type":"stats"}` requests the server
 * counters instead of a check.
 *
 * Response stream (server -> client): zero or more progress frames
 *
 *   {"schema":"cxl-checkd/v1","type":"progress","id":...,
 *    "states":N,"transitions":N,"depth":N,"rss_bytes":N,"seconds":S}
 *
 * terminated by exactly one of
 *
 *   {"schema":...,"type":"result","id":...,"cached":B,
 *    "verdict_line":"HOLDS (...)","text":"<renderText>",
 *    "result":{<cxl-check-result/v1>}}
 *   {"schema":...,"type":"error","id":...,"message":"..."}
 *   {"schema":...,"type":"stats","id":...,"stats":{...}}
 *
 * The embedded result object is rendered by the same
 * CheckResult::renderJson the offline CLIs use, so served and
 * offline output are byte-comparable (deterministic mode zeroes the
 * wall-clock keys on both sides).
 */

#ifndef CXL_SERVE_PROTOCOL_HH
#define CXL_SERVE_PROTOCOL_HH

#include <optional>
#include <string>
#include <vector>

#include "api/check.hh"
#include "fuzz/case.hh"

namespace cxl::serve
{

inline constexpr const char *kSchema = "cxl-checkd/v1";

/** Engine-knob overrides a request may carry; absent knobs keep the
 * daemon's standard-flag defaults. */
struct EngineKnobs {
    std::optional<std::uint64_t> threads;
    std::optional<SymmetryMode> symmetry;
    /** Visited-set store kind by name: "ram" or "mmap", both exact
     * (see StoreKind).  The retired "compact" knob is now an unknown
     * key, ignored like any other. */
    std::optional<StoreKind> store;
    std::optional<bool> por;
    std::optional<Schedule> schedule;
    std::optional<std::uint64_t> maxStates;
    std::optional<std::uint64_t> expectStates;
    std::optional<double> maxSeconds;
    std::optional<std::uint64_t> maxRssMb;
};

/**
 * The knobs that make a daemon run @p engine: every run-shaping knob
 * is sent, so the sender's settings win over the daemon's defaults;
 * budgets are sent when set (maxRssBytes in whole MiB).
 */
EngineKnobs knobsOf(const EngineOptions &engine);

/** Override @p engine with every knob @p knobs carries. */
void applyKnobs(const EngineKnobs &knobs, EngineOptions &engine);

/** One parsed request frame. */
struct Request {
    enum class Type : std::uint8_t { Check, Stats };

    Type type = Type::Check;
    std::string id; ///< client-chosen, echoed on every response frame

    /** Registered scenario name; empty when inlineCase carries the
     * scenario (exactly one of the two is set for Type::Check). */
    std::string scenario;
    std::optional<fuzz::FuzzCase> inlineCase;

    int devices = kDefaultNumDevices;
    CheckKind checks = CheckKind::Both;
    std::optional<ProtocolConfig> config;
    std::optional<std::vector<std::string>> families;
    EngineKnobs engine;

    /** Render the embedded result with renderJson(deterministic) —
     * part of the cache key, since it changes the cached bytes. */
    bool deterministic = false;

    bool progress = true;           ///< stream progress frames
    double progressInterval = 0.25; ///< seconds between frames
};

/** Canonical JSON form of @p request (one line, no newline). */
std::string renderRequestJson(const Request &request);

/**
 * Parse one request frame.
 * @throws std::runtime_error on malformed input, a schema/type
 *         mismatch, both or neither of scenario|case, or junk knob
 *         words.
 */
Request requestFromJson(const std::string &text);

/** The final payload of a served check, byte-stable for cache
 * replay: the exact strings the first run rendered, but for the
 * store phrase of text's engine line, which names each request's
 * own store (see Server). */
struct ResultPayload {
    std::string verdictLine; ///< CheckResult::verdictText()
    std::string text;        ///< CheckResult::renderText()
    std::string resultJson;  ///< CheckResult::renderJson(det)
    /** storePhrase() of the store text names; not sent. */
    std::string storePhrase;
};

// ---- response frames (each one line, no trailing newline) ---------

std::string renderProgressFrame(const std::string &id,
                                const ProgressSnapshot &p);
std::string renderResultFrame(const std::string &id, bool cached,
                              const ResultPayload &payload);
std::string renderErrorFrame(const std::string &id,
                             const std::string &message);
std::string renderStatsFrame(const std::string &id,
                             const std::string &statsJson);

// ---- line framing over stream sockets -----------------------------

/**
 * Connect to the Unix-domain socket at @p path.
 * @return the connected fd, or -1 with errno set.
 */
int connectUnixSocket(const std::string &path);

/** Send @p line plus the terminating newline; false on a closed or
 * failing peer (SIGPIPE suppressed). */
bool sendFrame(int fd, const std::string &line);

/** recvFrame's carry-over buffer (bytes past the last newline). */
struct FrameReader {
    std::string pending;
};

/**
 * Read one newline-terminated frame into @p line (newline stripped).
 * @return false on EOF or error before a full line arrived.
 */
bool recvFrame(int fd, FrameReader &reader, std::string &line);

} // namespace cxl::serve

#endif // CXL_SERVE_PROTOCOL_HH
