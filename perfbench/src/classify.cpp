/**
 * @file
 * The classify workload: one-shot inference over the wire.
 *
 * Three MLP Int8Networks of different widths are built from the seed and
 * packed into BBMS containers before anything is timed. Set-up is the
 * mapped cold start, repeated: ModelStore::load of every container,
 * InferenceServer + NetServer start, and the first answered request per
 * model. The timed phase keeps a fixed window of pipelined requests in
 * flight from one load-generator thread over up to four loopback
 * connections. Every Ok response is checked bit-for-bit against a
 * per-sample forward of the owned (unmapped) network.
 */
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "serve/server.hpp"
#include "store/container.hpp"
#include "store/model_store.hpp"

namespace perfbench {

namespace {

using bbs::Batch;
using bbs::InferencePolicy;
using bbs::Int8Network;
using bbs::ServeStatus;

constexpr std::size_t kSamples = 64;   ///< input pool per model
constexpr int kWindow = 64;            ///< requests in flight, all conns
constexpr int kColdStarts = 61;        ///< set-up repetitions
constexpr int kMaxConnections = 4;

struct ClfModel
{
    std::string name;
    std::int64_t in = 0, hidden = 0, out = 0;
    std::string path;
    std::vector<std::vector<float>> pool;
    std::vector<std::vector<float>> oracle;
};

const std::vector<ClfModel> &
modelShapes()
{
    static const std::vector<ClfModel> shapes = {
        {"clf-256", 256, 256, 32, {}, {}, {}},
        {"clf-512", 512, 512, 64, {}, {}, {}},
        {"clf-1024", 1024, 1024, 128, {}, {}, {}},
    };
    return shapes;
}

Int8Network
buildNetwork(const ClfModel &m, std::uint64_t seed)
{
    bbs::Rng rng(seed);
    bbs::Network net;
    net.add(std::make_unique<bbs::Dense>(m.in, m.hidden, rng));
    net.add(std::make_unique<bbs::ReluLayer>());
    net.add(std::make_unique<bbs::Dense>(m.hidden, m.out, rng));
    return Int8Network::fromNetwork(net, 32, 3,
                                    bbs::PruneStrategy::ZeroPointShifting);
}

Batch
rowsOf(const std::vector<std::vector<float>> &pool, std::int64_t first,
       std::int64_t count)
{
    auto width = static_cast<std::int64_t>(pool.front().size());
    Batch x(bbs::Shape{count, width});
    for (std::int64_t r = 0; r < count; ++r)
        for (std::int64_t c = 0; c < width; ++c)
            x.at(r, c) = pool[static_cast<std::size_t>(
                (first + r) % static_cast<std::int64_t>(pool.size()))]
                             [static_cast<std::size_t>(c)];
    return x;
}

/** One running server vertical. */
struct Vertical
{
    std::unique_ptr<bbs::store::ModelStore> store;
    std::shared_ptr<bbs::ModelRegistry> registry;
    std::unique_ptr<bbs::InferenceServer> server;
    std::unique_ptr<bbs::net::NetServer> net;
    std::vector<bbs::net::NetClient> conns;

    void
    stop()
    {
        conns.clear();
        if (net)
            net->stop();
        if (server)
            server->stop();
        net.reset();
        server.reset();
        registry.reset();
        store.reset();
    }
};

/** Tag layout: model index in the high byte, sample in the low 16 bits,
 *  a sequence number in between (unique per request). */
std::uint64_t
makeTag(std::size_t model, std::size_t sample, std::uint64_t seq)
{
    return (static_cast<std::uint64_t>(model) << 56) | (seq << 16) | sample;
}

bool
responseOk(const bbs::net::ResponseFrame &resp,
           const std::vector<ClfModel> &models)
{
    std::size_t m = resp.tag >> 56;
    std::size_t s = resp.tag & 0xffff;
    return static_cast<ServeStatus>(resp.status) == ServeStatus::Ok &&
           m < models.size() && s < kSamples &&
           resp.logits == models[m].oracle[s];
}

} // namespace

void
runClassify(const RunContext &ctx, Outcome &out)
{
    Tracer disabled(false);
    Tracer &tracer = ctx.tracer != nullptr ? *ctx.tracer : disabled;
    // Load generator + epoll thread + one serving worker, which runs its
    // GEMMs itself (see kEngineThreads).
    bbs::setWorkerThreadCap(kEngineThreads);
    const int nConns = std::min(kMaxConnections, ctx.cpus);

    // ---- Inputs, owned networks, oracles and containers: untimed.
    std::filesystem::path dir = std::filesystem::path(ctx.scratch) /
                                ("classify-" + std::to_string(getpid()));
    std::filesystem::create_directories(dir);
    std::vector<ClfModel> models = modelShapes();
    for (std::size_t i = 0; i < models.size(); ++i) {
        ClfModel &m = models[i];
        Int8Network owned = buildNetwork(m, mix64(ctx.seed * 31 + i));
        bbs::Rng rng(mix64(ctx.seed ^ (0x73616dull + i)));
        m.pool.resize(kSamples);
        m.oracle.resize(kSamples);
        const InferencePolicy perRow{bbs::engine::Calibration::PerRow,
                                     bbs::engine::PlanKind::Auto};
        for (std::size_t s = 0; s < kSamples; ++s) {
            m.pool[s].resize(static_cast<std::size_t>(m.in));
            for (float &v : m.pool[s])
                v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
            Batch y = owned.forward(
                rowsOf(m.pool, static_cast<std::int64_t>(s), 1), perRow);
            m.oracle[s].assign(y.data().begin(), y.data().end());
        }
        m.path = (dir / (m.name + ".bbms")).string();
        bbs::store::writeModelContainer(owned, m.path);
    }

    bbs::ServerConfig scfg;
    scfg.maxBatch = 32;
    scfg.maxDelayUs = 500;
    scfg.workers = 1;
    scfg.shards = 1;

    // ---- Set-up: the mapped cold start, kColdStarts times; the last
    //      vertical stays up for the timed phase.
    Vertical v;
    std::vector<double> coldS, openMs, firstMs;
    bool ready = false;
    for (int rep = 0; rep < kColdStarts; ++rep) {
        v.stop();
        ScopedSpan span(tracer, "setup.cold_start");
        std::int64_t t0 = nowNs();
        v.store = std::make_unique<bbs::store::ModelStore>();
        v.registry = std::make_shared<bbs::ModelRegistry>();
        for (std::size_t i = 0; i < models.size(); ++i) {
            std::int64_t l0 = nowNs();
            std::shared_ptr<const bbs::store::MappedModel> mm;
            {
                ScopedSpan load(tracer, "store.load", i + 1);
                mm = v.store->load(models[i].path);
            }
            openMs.push_back(static_cast<double>(nowNs() - l0) * 1e-6);
            v.registry->add(models[i].name, mm->network);
        }
        v.server = std::make_unique<bbs::InferenceServer>(v.registry, scfg);
        v.net = std::make_unique<bbs::net::NetServer>(*v.server);
        v.net->start();
        v.conns.resize(static_cast<std::size_t>(nConns));
        bool connected = true;
        for (auto &c : v.conns)
            connected = c.connect("127.0.0.1", v.net->port(), 30000) &&
                        connected;
        ready = out.check(connected, "classify: connect to NetServer");
        if (!ready)
            break;
        for (std::size_t i = 0; i < models.size(); ++i) {
            bbs::net::RequestFrame r;
            r.tag = makeTag(i, 0, 0);
            r.model = models[i].name;
            r.input = models[i].pool[0];
            bbs::net::ResponseFrame resp;
            std::int64_t s0 = nowNs();
            bool ok;
            {
                ScopedSpan first(tracer, "store.first_request", i + 1);
                ok = v.conns[0].sendRequest(r) &&
                     v.conns[0].recvResponse(resp);
            }
            firstMs.push_back(static_cast<double>(nowNs() - s0) * 1e-6);
            out.check(ok && responseOk(resp, models),
                      "classify: first request of " + models[i].name);
        }
        coldS.push_back(secondsSince(t0));
    }

    // ---- Timed phase: closed loop, kWindow requests in flight.
    std::vector<double> latencyMs;
    latencyMs.reserve(1 << 18);
    std::int64_t answered = 0;
    double elapsed = 0.0, cpu = 0.0;
    if (ready) {
        bbs::Rng rng(mix64(ctx.seed ^ 0x6c6f6164ull));
        std::uint64_t seq = 1;
        // sentNs by (tag sequence % ring): at most kWindow outstanding.
        constexpr std::size_t kRing = 1 << 12;
        std::vector<std::int64_t> sentNs(kRing);
        std::vector<int> outstanding(v.conns.size(), 0);
        std::vector<bool> dead(v.conns.size(), false);
        bbs::net::RequestFrame req;
        bbs::net::ResponseFrame resp;
        auto sendOne = [&](std::size_t c) {
            std::size_t m = seq % models.size(); // round-robin models
            auto s = static_cast<std::size_t>(
                rng.uniformInt(0, kSamples - 1));
            req.tag = makeTag(m, s, seq);
            req.model = models[m].name;
            req.input = models[m].pool[s];
            sentNs[seq % kRing] = nowNs();
            ++seq;
            if (v.conns[c].sendRequest(req)) {
                ++outstanding[c];
            } else {
                out.check(false, "classify: send (transport)");
                dead[c] = true;
            }
        };

        ScopedSpan phase(tracer, "classify");
        double cpu0 = processCpuSeconds();
        std::int64_t t0 = nowNs();
        for (int w = 0; w < kWindow; ++w)
            sendOne(static_cast<std::size_t>(w) % v.conns.size());
        std::vector<pollfd> fds(v.conns.size());
        bool sending = true;
        for (;;) {
            int live = 0;
            for (std::size_t c = 0; c < v.conns.size(); ++c) {
                fds[c].fd = dead[c] || outstanding[c] == 0
                                ? -1
                                : v.conns[c].fd();
                fds[c].events = POLLIN;
                fds[c].revents = 0;
                live += fds[c].fd >= 0;
            }
            if (live == 0)
                break;
            if (poll(fds.data(), fds.size(), 30000) <= 0) {
                out.check(false, "classify: response timeout");
                break;
            }
            for (std::size_t c = 0; c < v.conns.size(); ++c) {
                if (fds[c].revents == 0)
                    continue;
                if (!v.conns[c].recvResponse(resp)) {
                    out.check(false, "classify: receive (transport)");
                    dead[c] = true;
                    continue;
                }
                --outstanding[c];
                std::int64_t now = nowNs();
                std::uint64_t rseq = (resp.tag >> 16) & 0xffffffffffull;
                std::int64_t sent = sentNs[rseq % kRing];
                latencyMs.push_back(static_cast<double>(now - sent) * 1e-6);
                tracer.record("classify.request", sent, now, resp.tag);
                ++answered;
                out.check(responseOk(resp, models),
                          "classify: response equals owned forward");
                if (sending && secondsSince(t0) >= ctx.seconds)
                    sending = false;
                if (sending)
                    sendOne(c);
            }
        }
        elapsed = secondsSince(t0);
        cpu = processCpuSeconds() - cpu0;
    }

    bbs::StatsSnapshot stats;
    if (v.server)
        stats = v.server->stats();
    double clientP50 = median(latencyMs);
    out.e2e("setup_s", median(coldS), "s");
    out.e2e("ops_per_s", static_cast<double>(answered) / elapsed, "1/s");
    out.e2e("cpu_ms_per_op",
            cpu * 1e3 / static_cast<double>(std::max<std::int64_t>(answered, 1)),
            "ms");
    out.e2e("latency_ms_p50", clientP50, "ms");
    out.e2e("latency_ms_tail", tailOf(latencyMs), "ms");

    if (tracer.enabled() && v.registry) {
        out.layer("serve.batch_rows", stats.meanBatchRows, "count");
        out.layer("serve.queue_wait_ms", stats.meanQueueUs * 1e-3, "ms");
        out.layer("serve.server_ms_p50", stats.p50Us * 1e-3, "ms");
        out.layer("net.overhead_ms_p50", clientP50 - stats.p50Us * 1e-3,
                  "ms");
        out.layer("store.open_ms", median(openMs), "ms");
        out.layer("store.first_request_ms", median(firstMs), "ms");
        // Each served (mapped) model's forward at the mean batch the
        // server formed, with the serving policy.
        auto batch = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(stats.meanBatchRows + 0.5));
        const InferencePolicy perRow{bbs::engine::Calibration::PerRow,
                                     bbs::engine::PlanKind::Auto};
        double macs = 0.0, seconds = 0.0;
        for (const ClfModel &m : models) {
            auto net = v.registry->find(m.name);
            Batch x = rowsOf(m.pool, 0, batch);
            Batch y;
            net->forwardInto(x, perRow, y); // warm the thread scratch
            std::vector<double> ms;
            for (int rep = 0; rep < 20; ++rep) {
                ScopedSpan span(tracer, "engine.classify.forward");
                std::int64_t f0 = nowNs();
                net->forwardInto(x, perRow, y);
                ms.push_back(static_cast<double>(nowNs() - f0) * 1e-6);
            }
            seconds += median(ms) * 1e-3;
            macs += static_cast<double>(batch) *
                    static_cast<double>(m.in * m.hidden + m.hidden * m.out);
        }
        out.layer("engine.classify.gmac_per_s", macs / seconds * 1e-9,
                  "GMAC/s");
    }
    v.stop();
    std::filesystem::remove_all(dir);
}

} // namespace perfbench
