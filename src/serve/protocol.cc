#include "serve/protocol.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/json.hh"
#include "support/json_parse.hh"

namespace cxl::serve
{
namespace
{

const char *
checkKindWord(CheckKind k)
{
    switch (k) {
      case CheckKind::Invariants: return "invariants";
      case CheckKind::Deadlock: return "deadlock";
      case CheckKind::Both: return "both";
    }
    return "?";
}

CheckKind
checkKindFromWord(const std::string &word)
{
    if (word == "invariants")
        return CheckKind::Invariants;
    if (word == "deadlock")
        return CheckKind::Deadlock;
    if (word == "both")
        return CheckKind::Both;
    throw std::runtime_error("unknown checks kind '" + word + "'");
}

const char *
symmetryWord(SymmetryMode m)
{
    switch (m) {
      case SymmetryMode::Auto: return "auto";
      case SymmetryMode::On: return "on";
      case SymmetryMode::Off: return "off";
    }
    return "?";
}

SymmetryMode
symmetryFromWord(const std::string &word)
{
    if (word == "auto")
        return SymmetryMode::Auto;
    if (word == "on")
        return SymmetryMode::On;
    if (word == "off")
        return SymmetryMode::Off;
    throw std::runtime_error("unknown sym mode '" + word + "'");
}

Schedule
scheduleFromWord(const std::string &word)
{
    if (word == "bfs")
        return Schedule::Bfs;
    if (word == "ws")
        return Schedule::WorkSteal;
    throw std::runtime_error("unknown schedule '" + word + "'");
}

/** Shared header of every frame this file renders. */
JsonObject
frameHead(const char *type, const std::string &id)
{
    JsonObject json;
    json.str("schema", kSchema).str("type", type).str("id", id);
    return json;
}

} // namespace

EngineKnobs
knobsOf(const EngineOptions &engine)
{
    EngineKnobs k;
    k.threads = engine.threads;
    k.symmetry = engine.symmetry;
    k.store = engine.store;
    k.por = engine.por;
    k.schedule = engine.schedule;
    if (engine.maxStates != 0)
        k.maxStates = engine.maxStates;
    if (engine.expectedStates != 0)
        k.expectStates = engine.expectedStates;
    if (engine.maxSeconds > 0)
        k.maxSeconds = engine.maxSeconds;
    if (engine.maxRssBytes != 0)
        k.maxRssMb = engine.maxRssBytes / (1024 * 1024);
    return k;
}

void
applyKnobs(const EngineKnobs &knobs, EngineOptions &engine)
{
    if (knobs.threads)
        engine.threads = static_cast<std::size_t>(*knobs.threads);
    if (knobs.symmetry)
        engine.symmetry = *knobs.symmetry;
    if (knobs.store)
        engine.store = *knobs.store;
    if (knobs.por)
        engine.por = *knobs.por;
    if (knobs.schedule)
        engine.schedule = *knobs.schedule;
    if (knobs.maxStates)
        engine.maxStates = *knobs.maxStates;
    if (knobs.expectStates)
        engine.expectedStates = *knobs.expectStates;
    if (knobs.maxSeconds)
        engine.maxSeconds = *knobs.maxSeconds;
    if (knobs.maxRssMb)
        engine.maxRssBytes = *knobs.maxRssMb * 1024 * 1024;
}

std::string
renderRequestJson(const Request &request)
{
    JsonObject json = frameHead(
        request.type == Request::Type::Stats ? "stats" : "check",
        request.id);
    if (request.type == Request::Type::Stats)
        return json.render();

    if (request.inlineCase)
        json.raw("case", request.inlineCase->renderJson());
    else
        json.str("scenario", request.scenario);
    json.num("devices", static_cast<std::uint64_t>(request.devices))
        .str("checks", checkKindWord(request.checks));
    if (request.config)
        json.raw("config", fuzz::configJson(*request.config));
    if (request.families) {
        std::vector<std::string> rows;
        for (const std::string &f : *request.families)
            rows.push_back(JsonObject::quote(f));
        json.raw("families", JsonObject::array(rows));
    }

    JsonObject engine;
    bool any_knob = false;
    auto knob = [&any_knob](bool set) {
        any_knob |= set;
        return set;
    };
    const EngineKnobs &k = request.engine;
    if (knob(k.threads.has_value()))
        engine.num("threads", *k.threads);
    if (knob(k.symmetry.has_value()))
        engine.str("sym", symmetryWord(*k.symmetry));
    if (knob(k.store.has_value()))
        engine.str("store", storeKindWord(*k.store));
    if (knob(k.por.has_value()))
        engine.boolean("por", *k.por);
    if (knob(k.schedule.has_value()))
        engine.str("schedule",
                   *k.schedule == Schedule::WorkSteal ? "ws" : "bfs");
    if (knob(k.maxStates.has_value()))
        engine.num("max_states", *k.maxStates);
    if (knob(k.expectStates.has_value()))
        engine.num("expect_states", *k.expectStates);
    if (knob(k.maxSeconds.has_value()))
        engine.num("max_seconds", *k.maxSeconds);
    if (knob(k.maxRssMb.has_value()))
        engine.num("max_rss_mb", *k.maxRssMb);
    if (any_knob)
        json.raw("engine", engine.render());

    if (request.deterministic)
        json.boolean("deterministic", true);
    json.boolean("progress", request.progress);
    if (request.progressInterval != 0.25)
        json.num("progress_interval", request.progressInterval);
    return json.render();
}

Request
requestFromJson(const std::string &text)
{
    const JsonValue doc = parseJson(text);
    if (doc.getStr("schema") != kSchema)
        throw std::runtime_error("not a cxl-checkd/v1 frame");

    Request r;
    r.id = doc.getStr("id");
    const std::string type = doc.getStr("type", "check");
    if (type == "stats") {
        r.type = Request::Type::Stats;
        return r;
    }
    if (type != "check")
        throw std::runtime_error("unknown request type '" + type +
                                 "'");

    r.scenario = doc.getStr("scenario");
    if (const JsonValue *inl = doc.get("case")) {
        if (!r.scenario.empty()) {
            throw std::runtime_error(
                "request carries both a scenario name and an inline "
                "case");
        }
        r.inlineCase = fuzz::FuzzCase::fromJson(inl->render());
    } else if (r.scenario.empty()) {
        throw std::runtime_error(
            "request carries neither a scenario name nor an inline "
            "case");
    }

    r.devices = static_cast<int>(
        doc.getNum("devices", kDefaultNumDevices));
    r.checks = checkKindFromWord(doc.getStr("checks", "both"));
    if (const JsonValue *cfg = doc.get("config"))
        r.config = fuzz::configFromJsonValue(cfg);
    if (const JsonValue *fams = doc.get("families")) {
        std::vector<std::string> families;
        for (const JsonValue &f : fams->items())
            families.push_back(f.str());
        r.families = std::move(families);
    }

    if (const JsonValue *eng = doc.get("engine")) {
        EngineKnobs &k = r.engine;
        if (eng->get("threads"))
            k.threads = eng->get("threads")->asUint();
        if (eng->get("sym"))
            k.symmetry = symmetryFromWord(eng->getStr("sym"));
        if (eng->get("store")) {
            const std::string word = eng->getStr("store");
            const std::optional<StoreKind> kind =
                storeKindFromWord(word);
            if (!kind) {
                throw std::runtime_error(
                    "unknown store kind '" + word +
                    "' (want ram|mmap)");
            }
            k.store = *kind;
        }
        if (eng->get("por"))
            k.por = eng->getBool("por");
        if (eng->get("schedule"))
            k.schedule = scheduleFromWord(eng->getStr("schedule"));
        if (eng->get("max_states"))
            k.maxStates = eng->get("max_states")->asUint();
        if (eng->get("expect_states"))
            k.expectStates = eng->get("expect_states")->asUint();
        if (eng->get("max_seconds"))
            k.maxSeconds = eng->getNum("max_seconds");
        if (eng->get("max_rss_mb"))
            k.maxRssMb = eng->get("max_rss_mb")->asUint();
    }

    r.deterministic = doc.getBool("deterministic");
    r.progress = doc.getBool("progress", true);
    r.progressInterval = doc.getNum("progress_interval", 0.25);
    return r;
}

std::string
renderProgressFrame(const std::string &id, const ProgressSnapshot &p)
{
    JsonObject json = frameHead("progress", id);
    json.num("states", p.states)
        .num("transitions", p.transitions)
        .num("depth", static_cast<std::uint64_t>(p.depth))
        .num("rss_bytes", p.rssBytes)
        .num("seconds", p.seconds);
    return json.render();
}

std::string
renderResultFrame(const std::string &id, bool cached,
                  const ResultPayload &payload)
{
    JsonObject json = frameHead("result", id);
    json.boolean("cached", cached)
        .str("verdict_line", payload.verdictLine)
        .str("text", payload.text)
        .raw("result", payload.resultJson);
    return json.render();
}

std::string
renderErrorFrame(const std::string &id, const std::string &message)
{
    JsonObject json = frameHead("error", id);
    json.str("message", message);
    return json.render();
}

std::string
renderStatsFrame(const std::string &id, const std::string &statsJson)
{
    JsonObject json = frameHead("stats", id);
    json.raw("stats", statsJson);
    return json.render();
}

int
connectUnixSocket(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        errno = ENAMETOOLONG;
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return -1;
    }
    return fd;
}

bool
sendFrame(int fd, const std::string &line)
{
    std::string wire = line;
    wire += '\n';
    std::size_t off = 0;
    while (off < wire.size()) {
        // MSG_NOSIGNAL: a disconnected client must surface as a
        // return value, not kill the daemon with SIGPIPE.
        const ssize_t n = ::send(fd, wire.data() + off,
                                 wire.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
recvFrame(int fd, FrameReader &reader, std::string &line)
{
    for (;;) {
        const std::size_t nl = reader.pending.find('\n');
        if (nl != std::string::npos) {
            line.assign(reader.pending, 0, nl);
            reader.pending.erase(0, nl + 1);
            return true;
        }
        char buf[4096];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        reader.pending.append(buf, static_cast<std::size_t>(n));
    }
}

} // namespace cxl::serve
