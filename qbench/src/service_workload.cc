/**
 * @file
 * service-mix: a closed loop of four connections, from this process
 * over TCP loopback, into the shipped compile_server running with two
 * worker threads, so requests queue and batch.  Each connection sends
 * a seeded permutation of the request catalog per pass and waits for
 * every reply before sending the next request.  Every response is
 * compared with a direct Backend::run of the same request, computed
 * after the timed phase.
 */

#include <cerrno>
#include <csignal>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "circuit/decompose.h"
#include "circuit/peephole.h"
#include "common/json.h"
#include "common/logging.h"
#include "corpus.h"
#include "engine/registry.h"
#include "service/wire.h"

namespace qbench {

namespace {

namespace wire = qsurf::service::wire;
using qsurf::service::CompileRequest;
using qsurf::service::CompileResponse;

constexpr int kConnections = 4;
constexpr int kServerThreads = 2;

/** The compile_server child: spawned on construction, killed and
 *  reaped on destruction if it has not exited by then, and killed by
 *  the kernel if qbench dies first. */
class ServerProcess
{
  public:
    explicit ServerProcess(const std::string &path)
    {
        int fds[2];
        qsurf::fatalIf(::pipe(fds) != 0, "pipe failed");
        std::string tcp = "--tcp=127.0.0.1:0";
        std::string threads =
            "--threads=" + std::to_string(kServerThreads);
        char *argv[] = {const_cast<char *>(path.c_str()), tcp.data(),
                        threads.data(), nullptr};
        pid_ = ::fork();
        qsurf::fatalIf(pid_ < 0, "fork failed");
        if (pid_ == 0) {
            // The server dies with qbench, however qbench ends.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            int devnull = ::open("/dev/null", O_WRONLY);
            ::dup2(devnull, 1);
            ::dup2(fds[1], 2);
            ::close(fds[0]);
            ::execv(path.c_str(), argv);
            ::_exit(127);
        }
        ::close(fds[1]);
        err_fd_ = fds[0];

        // The first lines name the ephemeral port.
        std::string line;
        while (port_ == 0) {
            qsurf::fatalIf(!readLine(line, 30'000),
                           "compile_server exited before listening");
            const std::string tag = "listening on tcp port ";
            if (auto at = line.find(tag); at != std::string::npos)
                port_ = static_cast<uint16_t>(
                    std::stoi(line.substr(at + tag.size())));
        }
        // Forward the server's remaining diagnostics.
        drain_ = std::thread([this] {
            std::string l;
            while (readLine(l, -1))
                std::cerr << l << "\n";
        });
    }

    ~ServerProcess()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            wait();
        }
        if (drain_.joinable())
            drain_.join();
        ::close(err_fd_);
    }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    uint16_t port() const { return port_; }

    /** @return the server's peak resident set in MB. */
    double
    peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string key;
        while (in >> key) {
            if (key == "VmHWM:") {
                double kb = 0;
                in >> kb;
                return kb / 1024.0;
            }
            std::getline(in, key);
        }
        return 0;
    }

    /** Reap the (exiting) server; @return its exit status. */
    int
    wait()
    {
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
        return status;
    }

  private:
    bool
    readLine(std::string &line, int timeout_ms)
    {
        line.clear();
        char c;
        for (;;) {
            pollfd p{err_fd_, POLLIN, 0};
            if (::poll(&p, 1, timeout_ms) <= 0)
                return false;
            ssize_t n = ::read(err_fd_, &c, 1);
            if (n <= 0)
                return !line.empty();
            if (c == '\n')
                return true;
            line += c;
        }
    }

    pid_t pid_ = -1;
    int err_fd_ = -1;
    uint16_t port_ = 0;
    std::thread drain_;
};

/** One client connection: a socket plus the wire::Client on it. */
struct Connection
{
    explicit Connection(uint16_t port)
    {
        for (int attempt = 0; fd < 0 && attempt < 50; ++attempt) {
            fd = wire::connectTcp("127.0.0.1", port);
            if (fd < 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
        }
        qsurf::fatalIf(fd < 0, "cannot connect to compile_server");
        client = std::make_unique<wire::Client>(fd, fd, false);
    }
    ~Connection()
    {
        client.reset();
        if (fd >= 0)
            ::close(fd);
    }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd = -1;
    std::unique_ptr<wire::Client> client;
};

/** One request's observation. */
struct Sample
{
    size_t index = 0; ///< Catalog index.
    double rtt_ms = 0;
    CompileResponse response;
};

/**
 * The traced replica of Client::compile: the same frames through the
 * public codec and frame I/O, with encode, wire and decode spans
 * under one "request" span per request id.
 */
CompileResponse
tracedCompile(int fd, const CompileRequest &req, uint64_t id,
              Tracer &tracer)
{
    Tracer::Scope request_span(tracer, "request", id);
    std::string payload;
    {
        Tracer::Scope s(tracer, "service.encode", id);
        payload = wire::encodeCompileRequest(req);
    }
    wire::Frame reply;
    {
        Tracer::Scope s(tracer, "service.wire", id);
        wire::IoResult w =
            wire::writeFrame(fd, wire::FrameType::Request, payload);
        wire::IoResult r = w.ok() ? wire::readFrame(fd, reply) : w;
        if (!r.ok()) {
            CompileResponse resp;
            resp.error = "connection lost: " + r.describe();
            return resp;
        }
    }
    if (reply.type != wire::FrameType::Response) {
        CompileResponse resp;
        resp.error = "server answered with a "
            + std::string(wire::frameTypeName(reply.type)) + " frame";
        return resp;
    }
    Tracer::Scope s(tracer, "service.decode", id);
    return wire::decodeCompileResponse(reply.payload);
}

/** @return the cache hit and miss counters of a telemetry payload. */
std::pair<double, double>
cacheCounters(const std::string &telemetry)
{
    qsurf::JsonValue doc = qsurf::parseJson(telemetry);
    const qsurf::JsonValue *cache = doc.find("cache");
    qsurf::fatalIf(!cache, "telemetry without cache counters");
    return {cache->find("hits")->num, cache->find("misses")->num};
}

/** A direct, in-process run of one request: its statistics and the
 *  heap allocations of the backend run. */
struct Direct
{
    OpStats stats;
    double heap_allocs = 0;
};

/** Run @p req directly; with @p machine, on the machine artifact
 *  built for that request instead of its own. */
Direct
directRun(const CompileRequest &req,
          const CompileRequest *machine = nullptr)
{
    using namespace qsurf;
    const engine::Backend &backend =
        engine::Registry::global().get(req.backend);
    circuit::Circuit circ;
    auto itemOf = [&](const CompileRequest &r) {
        engine::WorkItem item;
        item.app = r.app;
        item.app_name = apps::appSpec(r.app).name;
        item.config = r.config;
        if (backend.needsCircuit() || r.config.kq <= 0)
            item.circuit = &circ;
        return item;
    };
    if (backend.needsCircuit() || req.config.kq <= 0) {
        circuit::Circuit logical = apps::generate(req.app, req.gen);
        if (req.run_peephole)
            logical = circuit::peephole(logical);
        circ = circuit::decompose(logical, req.decompose);
    }
    engine::WorkItem item = itemOf(req);
    backend.prepare(item);
    auto artifact = backend.buildArtifact(itemOf(machine ? *machine : req));
    uint64_t allocs = heapAllocs();
    engine::Metrics m = backend.run(item, artifact.get());
    return {statsOf("", m), static_cast<double>(heapAllocs() - allocs)};
}

} // namespace

Result
runServiceMix(const Options &opts)
{
    Result result;
    const std::vector<CompileRequest> catalog =
        corpus::requestCatalog();

    // Set-up: server spawn, connections, one warm-up pass over every
    // unique request (spread over the connections).
    auto server = std::make_unique<ServerProcess>(opts.server_path);
    std::vector<std::unique_ptr<Connection>> conns;
    for (int c = 0; c < kConnections; ++c)
        conns.push_back(std::make_unique<Connection>(server->port()));
    Connection control(server->port());
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < kConnections; ++c)
            threads.emplace_back([&, c] {
                for (size_t i = c; i < catalog.size(); i += kConnections)
                    conns[c]->client->compile(catalog[i]);
            });
        for (std::thread &t : threads)
            t.join();
    }
    const double setup_s = setupSeconds(opts);
    auto stopServer = [&] {
        conns.clear();
        control.client->shutdown();
        int status = server->wait();
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            result.problems.push_back("compile_server exited abnormally");
    };
    if (opts.setup_only) {
        stopServer();
        result.metrics.push_back({"setup_s", setup_s, "s"});
        return result;
    }

    const auto cache_before = cacheCounters(control.client->telemetry());
    std::vector<std::vector<Sample>> untraced;
    std::vector<std::vector<Sample>> traced;
    std::vector<std::vector<Tracer>> tracers;
    std::vector<double> traced_walls_ms;
    int pass_index = 0;
    auto pass = [&](bool trace_pass) {
        std::vector<std::vector<Sample>> per_conn(kConnections);
        std::vector<Tracer> conn_tracers(kConnections);
        const int pass_no = pass_index++;
        const Clock::time_point start = Clock::now();
        std::vector<std::thread> threads;
        for (int c = 0; c < kConnections; ++c)
            threads.emplace_back([&, c] {
                uint64_t id = (static_cast<uint64_t>(pass_no) << 32)
                    | (static_cast<uint64_t>(c) << 24);
                for (size_t i : corpus::connectionSequence(
                         opts.seed, catalog.size(), c, pass_no)) {
                    Sample s;
                    s.index = i;
                    const Clock::time_point t = Clock::now();
                    s.response = trace_pass
                        ? tracedCompile(conns[c]->fd, catalog[i], ++id,
                                        conn_tracers[c])
                        : conns[c]->client->compile(catalog[i]);
                    s.rtt_ms = msBetween(t, Clock::now());
                    per_conn[c].push_back(std::move(s));
                }
            });
        for (std::thread &t : threads)
            t.join();
        std::vector<Sample> all;
        for (std::vector<Sample> &v : per_conn)
            for (Sample &s : v)
                all.push_back(std::move(s));
        if (trace_pass) {
            traced_walls_ms.push_back(msBetween(start, Clock::now()));
            traced.push_back(std::move(all));
            tracers.push_back(std::move(conn_tracers));
        } else {
            untraced.push_back(std::move(all));
        }
    };
    PassLog log = timeLoop(opts, pass);

    const auto cache_after = cacheCounters(control.client->telemetry());
    const double peak_rss_mb = server->peakRssMb();
    stopServer();
    server.reset();

    // References, outside the timed phase: a direct run of every
    // request.
    std::vector<Direct> refs;
    for (const CompileRequest &req : catalog)
        refs.push_back(directRun(req));

    // Explanations of a wrong answer, computed on demand.  Two known
    // defects give wrong answers here; both count as failures and are
    // reported, and neither hides the other.  The wire codec carries
    // 64-bit seeds as doubles, so the server may run another seed
    // than the one sent; and the batch key omits the fabric damage,
    // so a request batched with its clean/damaged twin runs on the
    // twin's machine.  Both are reproduced on the request exactly as
    // the server decodes it.
    std::map<size_t, Direct> as_decoded, on_twin_machine;
    auto decoded = [&](size_t i) {
        return wire::decodeCompileRequest(
            wire::encodeCompileRequest(catalog[i]));
    };
    auto explain = [&](size_t i, const OpStats &got) -> std::string {
        if (!as_decoded.count(i))
            as_decoded[i] = directRun(decoded(i));
        if (diffStats(as_decoded[i].stats, got).empty())
            return "known_defect.wire_seed_wrong_results";
        if (!on_twin_machine.count(i)) {
            CompileRequest twin = decoded(corpus::twinOf(i));
            on_twin_machine[i] = directRun(decoded(i), &twin);
        }
        if (diffStats(on_twin_machine[i].stats, got).empty())
            return "known_defect.batch_key_wrong_results";
        return "";
    };

    double errors = 0, wrong = 0;
    auto check = [&](const Sample &s) {
        ++result.attempted;
        const CompileRequest &req = catalog[s.index];
        std::string what = req.backend + " "
            + qsurf::apps::appSpec(req.app).name
            + (req.config.defect_density > 0 ? " damaged" : " clean");
        if (!s.response.ok()) {
            ++result.failed;
            ++errors;
            result.problems.push_back(what + ": " + s.response.error);
            return;
        }
        OpStats got = statsOf("", s.response.metrics);
        std::string diff = diffStats(refs[s.index].stats, got);
        if (diff.empty())
            return;
        ++result.failed;
        ++wrong;
        std::string known = explain(s.index, got);
        if (!known.empty())
            ++result.info[known];
        else
            result.problems.push_back(what + ": " + diff);
    };
    std::vector<double> latencies_ms;
    for (const std::vector<Sample> &p : untraced)
        for (const Sample &s : p) {
            check(s);
            latencies_ms.push_back(s.rtt_ms);
        }
    for (const std::vector<Sample> &p : traced)
        for (const Sample &s : p)
            check(s);

    if (!opts.trace) {
        addEndToEnd(result, setup_s, log.untraced_s, latencies_ms,
                    peak_rss_mb);
        return result;
    }

    std::vector<LayerValues> layers;
    for (size_t p = 0; p < traced.size(); ++p) {
        LayerValues values;
        std::vector<double> prepare, run, wait, encode_us, decode_us;
        double batch_sum = 0, batched = 0;
        for (const Sample &s : traced[p]) {
            const CompileRequest &req = catalog[s.index];
            const CompileResponse &r = s.response;
            const std::string layer = layerOf(req.backend);
            if (layer != "estimate")
                values[layer + ".prepare_ms"] += r.prepare_ms;
            values[layer + ".run_ms"] += r.run_ms;
            values[layer + ".heap_allocs"] += refs[s.index].heap_allocs;
            addBackendCounters(values, layer, r.metrics);
            prepare.push_back(r.prepare_ms);
            run.push_back(r.run_ms);
            wait.push_back(s.rtt_ms - r.prepare_ms - r.run_ms);
            batch_sum += static_cast<double>(r.batch_size);
            batched += r.batch_size >= 2 ? 1 : 0;
        }
        double residual = 0;
        for (int c = 0; c < kConnections; ++c) {
            const Tracer &tracer = tracers[p][c];
            keepSpans(static_cast<int>(p), c, tracer);
            for (const Span &span : tracer.spans()) {
                double us = msBetween(span.start, span.end) * 1e3;
                if (span.name == "service.encode")
                    encode_us.push_back(us);
                else if (span.name == "service.decode")
                    decode_us.push_back(us);
            }
            auto self =
                selfTimes(tracer, traced_walls_ms[p], result.problems);
            residual += self["request"] + self["unspanned"];
        }
        auto n = static_cast<double>(traced[p].size());
        values["service.server_prepare_ms.p50"] = quantile(prepare, 0.5);
        values["service.server_prepare_ms.p90"] = quantile(prepare, 0.9);
        values["service.server_run_ms.p50"] = quantile(run, 0.5);
        values["service.server_run_ms.p90"] = quantile(run, 0.9);
        values["service.wait_ms.p50"] = quantile(wait, 0.5);
        values["service.wait_ms.p90"] = quantile(wait, 0.9);
        values["service.encode_us"] = median(encode_us);
        values["service.decode_us"] = median(decode_us);
        values["service.batch_size_mean"] = batch_sum / n;
        values["service.batched_share"] = batched / n;
        values["service.residual_ms"] = residual / kConnections;
        deriveRatios(values);
        layers.push_back(std::move(values));
    }
    LayerValues totals;
    double hits = cache_after.first - cache_before.first;
    double misses = cache_after.second - cache_before.second;
    totals["service.cache_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    totals["service.errors"] = errors;
    totals["service.wrong_results"] = wrong;
    totals["trace.wall_s"] = median(log.traced_s);
    totals["trace.overhead_s"] =
        median(log.traced_s) - median(log.untraced_s);
    addPerLayer(result, layers, totals);
    return result;
}

} // namespace qbench
