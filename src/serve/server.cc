#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/json.hh"

namespace cxl::serve
{
namespace
{

/**
 * Fresh checks of at least this many states hand the heap they freed
 * back to the system before the answer goes out.  The store's columns
 * and cells are mappings, unmapped with the store, but its slice
 * tables, the sleep masks and worker scratch come from malloc.  Each
 * worker thread allocates from its own malloc arena, and glibc may
 * keep a big check's freed memory resident in that arena; the
 * daemon's resident size would then depend on which worker the
 * following checks land on.  A trim walks every arena, and the next
 * check faults the pages back in: a few milliseconds, noise after a
 * run of this size, but it would double the latency of the small
 * checks a CI matrix sends.
 */
constexpr std::uint64_t kTrimAfterStates = std::uint64_t{1} << 16;

void
releaseFreedHeap()
{
#if defined(__GLIBC__)
    ::malloc_trim(0);
#endif
}

/** True when the client hung up (or errored) on @p fd; a nonblocking
 * one-byte peek — clients send nothing after their request line, so
 * readable-with-zero means EOF. */
bool
peerClosed(int fd)
{
    char b;
    const ssize_t r = ::recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
    if (r == 0)
        return true;
    if (r < 0) {
        return !(errno == EAGAIN || errno == EWOULDBLOCK ||
                 errno == EINTR);
    }
    return false;
}

/** Close @p fd on scope exit. */
struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
};

/** Make cached @p payload's text name the store of @p engine, in
 * place of the store that ran it; the engine line is the text's
 * second. */
void
nameStore(ResultPayload &payload, const EngineOptions &engine)
{
    const std::size_t at = payload.text.find(
        payload.storePhrase, payload.text.find("\nengine: "));
    if (at == std::string::npos)
        return;
    std::string phrase = storePhrase(engine.store, engine.storeDir);
    payload.text.replace(at, payload.storePhrase.size(), phrase);
    payload.storePhrase = std::move(phrase);
}

} // namespace

ResolvedRequest
resolveRequest(const Request &request, const EngineOptions &defaults,
               double defaultMaxSeconds)
{
    ResolvedRequest rr;
    if (request.inlineCase) {
        rr.check = request.inlineCase->toRequest();
    } else {
        rr.check.scenario = request.scenario;
        rr.check.devices = request.devices;
    }
    if (request.config)
        rr.check.config = *request.config;
    if (request.families)
        rr.check.families = *request.families;
    rr.check.checks = request.checks;
    // What run() will explore and check; throws on an unknown name or
    // a bad device count.
    const ResolvedCheck resolved = resolveCheck(rr.check);

    // ---- engine knobs over the daemon's defaults -----------------
    EngineOptions e = defaults;
    e.cancel = CancelToken();
    e.progress = ProgressFn();
    const EngineKnobs &k = request.engine;
    applyKnobs(k, e);
    if (!k.maxStates && request.inlineCase &&
        request.inlineCase->maxStates != 0)
        e.maxStates = request.inlineCase->maxStates;
    if (!k.maxSeconds && e.maxSeconds <= 0 && defaultMaxSeconds > 0)
        e.maxSeconds = defaultMaxSeconds;
    rr.engine = e;

    // ---- cache key over the *resolved* tuple ---------------------
    // Included: everything that changes the served bytes — identity
    // (the registry-canonical entry name, so "clean-evict-test" and
    // "clean_evict" alias one entry and one cache line, or the fuzz
    // case's content hash), devices, config bits, families
    // (sorted/deduped; the invariant filter is order- and
    // duplicate-insensitive), check kind, and the engine knobs echoed
    // in the JSON (resolved threads, resolved symmetry, por,
    // schedule, the effective state cap) plus the deterministic
    // rendering bit.
    // Excluded: budgets (maxSeconds/maxRssBytes/storeCapacity — they
    // only matter to Incomplete results, which are never cached),
    // expectedStates (presizing), the progress knobs (observation
    // only), and the store kind: ram and mmap produce byte-identical
    // JSON (the kind is deliberately not echoed there), so they
    // collapse onto one cache entry and a ram-warmed cache serves
    // mmap requests.
    std::vector<std::string> families = resolved.families;
    std::sort(families.begin(), families.end());
    families.erase(std::unique(families.begin(), families.end()),
                   families.end());
    const ResolvedEngine engine = resolveEngine(e, resolved.scenario);
    const char *check_word =
        request.checks == CheckKind::Invariants ? "inv"
        : request.checks == CheckKind::Deadlock ? "dl"
                                                : "both";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "|d%d|c%02x|k%s|t%zu|y%d|p%d|h%s|x%llu|det%d",
                  resolved.scenario.numDevices(), resolved.config.bits(),
                  check_word, engine.threads, engine.symmetry ? 1 : 0,
                  e.por ? 1 : 0,
                  e.schedule == Schedule::WorkSteal ? "ws" : "bfs",
                  static_cast<unsigned long long>(engine.maxStates),
                  request.deterministic ? 1 : 0);
    rr.cacheKey = (request.inlineCase ? "g:" + request.inlineCase->name()
                                      : "s:" + resolved.name) +
                  buf + "|f:";
    for (std::size_t i = 0; i < families.size(); ++i) {
        if (i)
            rr.cacheKey += ',';
        rr.cacheKey += families[i];
    }
    return rr;
}

// ------------------------------------------------------ ServerStats

std::string
ServerStats::renderText() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "cxl_checkd stats:\n"
        "  connections accepted   %llu\n"
        "  checks served          %llu\n"
        "  stats served           %llu\n"
        "  errors                 %llu\n"
        "  rejected (busy/drain)  %llu\n"
        "  disconnect cancels     %llu\n"
        "  result cache           %llu hits / %llu misses / "
        "%llu evictions (%llu live)\n"
        "  model cache            %llu reuses / %llu builds\n"
        "  draining               %s\n",
        static_cast<unsigned long long>(accepted),
        static_cast<unsigned long long>(checksServed),
        static_cast<unsigned long long>(statsServed),
        static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(rejected),
        static_cast<unsigned long long>(disconnectCancels),
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.misses),
        static_cast<unsigned long long>(cache.evictions),
        static_cast<unsigned long long>(cache.entries),
        static_cast<unsigned long long>(modelReuses),
        static_cast<unsigned long long>(modelBuilds),
        draining ? "yes" : "no");
    return buf;
}

std::string
ServerStats::renderJson() const
{
    JsonObject json;
    json.str("schema", "cxl-checkd-stats/v1")
        .num("accepted", accepted)
        .num("checks_served", checksServed)
        .num("stats_served", statsServed)
        .num("errors", errors)
        .num("rejected", rejected)
        .num("disconnect_cancels", disconnectCancels)
        .num("cache_hits", cache.hits)
        .num("cache_misses", cache.misses)
        .num("cache_evictions", cache.evictions)
        .num("cache_entries", cache.entries)
        .num("model_builds", modelBuilds)
        .num("model_reuses", modelReuses)
        .boolean("draining", draining);
    return json.render();
}

// ----------------------------------------------------------- Server

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cacheEntries)
{
    options_.engine.cancel = CancelToken();
    options_.engine.progress = ProgressFn();
}

Server::~Server()
{
    if (started_)
        drain();
}

void
Server::start()
{
    if (options_.socketPath.empty())
        throw std::runtime_error("server needs a socket path");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("socket path too long: " +
                                 options_.socketPath);
    }
    std::memcpy(addr.sun_path, options_.socketPath.c_str(),
                options_.socketPath.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("socket(): " +
                                 std::string(std::strerror(errno)));

    if (::bind(listenFd_, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        if (errno != EADDRINUSE) {
            const std::string why = std::strerror(errno);
            ::close(listenFd_);
            listenFd_ = -1;
            throw std::runtime_error(
                "bind(" + options_.socketPath + "): " + why);
        }
        // A socket file exists.  If nobody answers on it, it is a
        // stale leftover of a crashed daemon: unlink and retry.  If
        // a connect succeeds, a live server owns the path — refuse.
        const int probe = connectUnixSocket(options_.socketPath);
        if (probe >= 0) {
            ::close(probe);
            ::close(listenFd_);
            listenFd_ = -1;
            throw std::runtime_error("another server is live on " +
                                     options_.socketPath);
        }
        ::unlink(options_.socketPath.c_str());
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            const std::string why = std::strerror(errno);
            ::close(listenFd_);
            listenFd_ = -1;
            throw std::runtime_error(
                "bind(" + options_.socketPath + "): " + why);
        }
    }
    if (::listen(listenFd_, 64) != 0) {
        const std::string why = std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("listen(): " + why);
    }
    if (::pipe(wakePipe_) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("pipe(): " +
                                 std::string(std::strerror(errno)));
    }

    const std::size_t workers = std::max<std::size_t>(
        1, options_.workers);
    workers_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        workers_.push_back(
            std::make_unique<WorkerState>(options_.engine));
    }
    started_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    workerThreads_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        workerThreads_.emplace_back([this, w] { workerLoop(w); });
}

void
Server::beginDrain()
{
    bool expected = false;
    if (!draining_.compare_exchange_strong(expected, true))
        return;
    if (wakePipe_[1] >= 0) {
        const char byte = 'x';
        while (::write(wakePipe_[1], &byte, 1) < 0 && errno == EINTR) {
        }
    }
    // In-flight runs finish as governed Incompletes; their clients
    // still get the (uncached) partial answer.
    {
        const std::lock_guard<std::mutex> lock(tokensMutex_);
        for (auto &[id, token] : activeTokens_)
            token.cancel();
    }
    queueCv_.notify_all();
}

void
Server::drain()
{
    if (!started_)
        return;
    beginDrain();
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (std::thread &t : workerThreads_) {
        if (t.joinable())
            t.join();
    }
    workerThreads_.clear();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    for (int &fd : wakePipe_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
    ::unlink(options_.socketPath.c_str());
    started_ = false;
}

ServerStats
Server::stats() const
{
    ServerStats s;
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.checksServed = checksServed_.load(std::memory_order_relaxed);
    s.statsServed = statsServed_.load(std::memory_order_relaxed);
    s.errors = errors_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.disconnectCancels =
        disconnectCancels_.load(std::memory_order_relaxed);
    for (const std::unique_ptr<WorkerState> &w : workers_) {
        s.modelBuilds +=
            w->modelBuilds.load(std::memory_order_relaxed);
        s.modelReuses +=
            w->modelReuses.load(std::memory_order_relaxed);
    }
    s.cache = cache_.stats();
    s.draining = draining();
    return s;
}

void
Server::acceptLoop()
{
    while (!draining()) {
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {wakePipe_[0], POLLIN, 0}};
        const int n = ::poll(fds, 2, 500);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents != 0)
            break; // drain wake-up
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            break;
        }
        accepted_.fetch_add(1, std::memory_order_relaxed);
        bool enqueued = false;
        {
            const std::lock_guard<std::mutex> lock(queueMutex_);
            if (!draining() && queue_.size() < options_.queueDepth) {
                queue_.push_back(fd);
                enqueued = true;
            }
        }
        if (enqueued) {
            queueCv_.notify_one();
        } else {
            // Bounded queue: overload is an immediate, explicit
            // turn-away, not unbounded buffering.
            sendFrame(fd, renderErrorFrame(
                              "", "server busy: request queue full"));
            ::close(fd);
            rejected_.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

void
Server::workerLoop(std::size_t w)
{
    WorkerState &state = *workers_[w];
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return !queue_.empty() || draining();
            });
            if (queue_.empty())
                return; // draining, nothing left to answer
            fd = queue_.front();
            queue_.pop_front();
        }
        handleConnection(state, fd);
    }
}

void
Server::handleConnection(WorkerState &state, int fd)
{
    const FdCloser closer{fd};
    FrameReader reader;
    std::string line;
    if (!recvFrame(fd, reader, line)) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Request wire;
    try {
        wire = requestFromJson(line);
    } catch (const std::exception &e) {
        sendFrame(fd, renderErrorFrame(
                          "", std::string("bad request: ") + e.what()));
        errors_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (wire.type == Request::Type::Stats) {
        sendFrame(fd,
                  renderStatsFrame(wire.id, stats().renderJson()));
        statsServed_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (draining()) {
        // Queued behind the drain: turned away, not silently dropped.
        sendFrame(fd, renderErrorFrame(wire.id, "server draining"));
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    serveCheck(state, fd, wire);
}

void
Server::serveCheck(WorkerState &state, int fd, const Request &wire)
{
    ResolvedRequest rr;
    try {
        rr = resolveRequest(wire, options_.engine,
                            options_.defaultMaxSeconds);
    } catch (const std::exception &e) {
        sendFrame(fd, renderErrorFrame(wire.id, e.what()));
        errors_.fetch_add(1, std::memory_order_relaxed);
        return;
    }

    if (std::optional<ResultPayload> hit = cache_.lookup(rr.cacheKey)) {
        // Bit-identical replay of the first answer, but for the
        // store it names: the store kinds share a key (see
        // resolveRequest), so the text names the requesting store.
        nameStore(*hit, rr.engine);
        if (sendFrame(fd, renderResultFrame(wire.id, true, *hit)))
            checksServed_.fetch_add(1, std::memory_order_relaxed);
        else
            errors_.fetch_add(1, std::memory_order_relaxed);
        return;
    }

    const CancelToken token = CancelToken::create();
    std::uint64_t token_id;
    {
        const std::lock_guard<std::mutex> lock(tokensMutex_);
        token_id = nextTokenId_++;
        activeTokens_.emplace(token_id, token);
        if (draining())
            token.cancel(); // raced beginDrain's sweep
    }

    // Disconnect detection and progress streaming both ride the
    // engine's progress callback (governor-poll granularity, one
    // call at a time by the ticker's emit lock).
    std::atomic<bool> client_gone{false};
    rr.engine.progress = [this, fd, &wire, &client_gone,
                          &token](const ProgressSnapshot &p) {
        if (client_gone.load(std::memory_order_relaxed))
            return;
        const bool gone =
            peerClosed(fd) ||
            (wire.progress &&
             !sendFrame(fd, renderProgressFrame(wire.id, p)));
        if (gone) {
            client_gone.store(true, std::memory_order_relaxed);
            token.cancel();
            disconnectCancels_.fetch_add(1,
                                         std::memory_order_relaxed);
        }
    };
    rr.engine.progressIntervalSeconds = wire.progressInterval;
    rr.engine.cancel = token;
    rr.check.engine = rr.engine;

    CheckResult res;
    bool ran = false;
    std::string run_error;
    try {
        res = state.session.run(rr.check);
        ran = true;
    } catch (const std::exception &e) {
        run_error = e.what();
    }
    {
        const std::lock_guard<std::mutex> lock(tokensMutex_);
        activeTokens_.erase(token_id);
    }
    // Publish the session's model-cache counters where stats() can
    // read them without touching the (single-threaded) session.
    std::uint64_t builds = 0, reuses = 0;
    for (const CheckSession::ModelCacheStat &m :
         state.session.modelCacheStats()) {
        ++builds;
        reuses += m.hits;
    }
    state.modelBuilds.store(builds, std::memory_order_relaxed);
    state.modelReuses.store(reuses, std::memory_order_relaxed);

    if (!ran) {
        sendFrame(fd, renderErrorFrame(wire.id, run_error));
        errors_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (res.states >= kTrimAfterStates)
        releaseFreedHeap();

    ResultPayload payload;
    payload.verdictLine = res.verdictText();
    payload.text = res.renderText();
    payload.resultJson = res.renderJson(wire.deterministic);
    payload.storePhrase = storePhrase(res.store, res.storeDir);
    if (cacheable(res))
        cache_.insert(rr.cacheKey, payload);

    if (client_gone.load(std::memory_order_relaxed))
        return; // nobody left to answer; the run is still cached
    if (sendFrame(fd, renderResultFrame(wire.id, false, payload)))
        checksServed_.fetch_add(1, std::memory_order_relaxed);
    else
        errors_.fetch_add(1, std::memory_order_relaxed);
}

} // namespace cxl::serve
