/**
 * @file
 * Tests for the socket front-end: protocol codec round-trips and
 * hostile-input rejection, end-to-end serving over a real TCP
 * connection (bit-identical to the in-process oracle), the stats frame
 * round-tripping through parsePrometheusText (including a model name
 * carrying a quote), admission control answering Overloaded over the
 * wire, and the frame fuzzer — truncated frames, oversized lengths,
 * garbage magic, and mid-frame disconnects must never crash the
 * listener, leak a connection slot, or stall other connections.
 * Generate frames at the model's vocab/maxSeq edges either stream the
 * in-process oracle's tokens or are answered BadInput.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>

#include "common/random.hpp"
#include "net/net_client.hpp"
#include "net/net_server.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "obs/exposition.hpp"
#include "llm/transformer.hpp"
#include "serve/generation.hpp"
#include "serve/server.hpp"

namespace bbs {
namespace {

Int8Network
makeEngine(std::int64_t in, std::int64_t hidden, std::int64_t out,
           int targetColumns, std::uint64_t seed)
{
    Rng rng(seed);
    Network net;
    net.add(std::make_unique<Dense>(in, hidden, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Dense>(hidden, out, rng));
    return Int8Network::fromNetwork(net, 32, targetColumns,
                                    PruneStrategy::ZeroPointShifting);
}

std::vector<float>
makeSample(std::int64_t features, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> s(static_cast<std::size_t>(features));
    for (float &v : s)
        v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
    return s;
}

/** Poll @p pred up to @p timeoutMs (asynchronous server state). */
bool
eventually(const std::function<bool()> &pred, int timeoutMs = 2000)
{
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(timeoutMs);
    while (std::chrono::steady_clock::now() < until) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
}

/** Server + net front-end wired up for one test. */
struct NetFixture
{
    std::shared_ptr<ModelRegistry> registry;
    std::unique_ptr<InferenceServer> server;
    std::unique_ptr<net::NetServer> net;

    explicit NetFixture(ServerConfig cfg = {},
                        net::NetServerConfig netCfg = {})
    {
        registry = std::make_shared<ModelRegistry>();
        registry->add("clf", makeEngine(16, 24, 4, 2, 0xd00d));
        server = std::make_unique<InferenceServer>(registry, cfg);
        net = std::make_unique<net::NetServer>(*server, netCfg);
        net->start();
    }

    ~NetFixture()
    {
        net->stop();
        server->stop();
    }

    /** Serve @p sched under @p model; attachGeneration needs a
     *  not-yet-started front-end, so this rebuilds it. */
    void attachGeneration(const std::string &model,
                          serve::GenerationScheduler *sched)
    {
        net->stop();
        net = std::make_unique<net::NetServer>(*server);
        net->attachGeneration(model, sched);
        net->start();
    }

    net::NetClient connect(int recvTimeoutMs = 5000)
    {
        net::NetClient c;
        EXPECT_TRUE(c.connect("127.0.0.1", net->port(), recvTimeoutMs));
        return c;
    }
};

TEST(NetProtocol, RequestAndResponseFramesRoundTrip)
{
    net::RequestFrame req;
    req.tag = 0xfeedface;
    req.deadlineUs = 12345;
    req.model = "clf";
    req.input = {1.0f, -2.5f, 0.0f};

    std::vector<std::uint8_t> wire;
    net::encodeRequest(req, wire);
    net::FrameHeader h;
    ASSERT_TRUE(net::decodeHeader(
        {wire.data(), net::kHeaderBytes}, h));
    EXPECT_EQ(h.type, net::FrameType::Request);
    ASSERT_EQ(wire.size(), net::kHeaderBytes + h.bodyLen);
    net::RequestFrame back;
    ASSERT_TRUE(net::decodeRequest(
        {wire.data() + net::kHeaderBytes, h.bodyLen}, back));
    EXPECT_EQ(back.tag, req.tag);
    EXPECT_EQ(back.deadlineUs, req.deadlineUs);
    EXPECT_EQ(back.model, req.model);
    EXPECT_EQ(back.input, req.input);

    std::vector<float> logits = {0.5f, 2.0f};
    wire.clear();
    net::encodeResponse(77, 0, 1, logits, wire);
    ASSERT_TRUE(net::decodeHeader(
        {wire.data(), net::kHeaderBytes}, h));
    EXPECT_EQ(h.type, net::FrameType::Response);
    net::ResponseFrame resp;
    ASSERT_TRUE(net::decodeResponse(
        {wire.data() + net::kHeaderBytes, h.bodyLen}, resp));
    EXPECT_EQ(resp.tag, 77u);
    EXPECT_EQ(resp.status, 0);
    EXPECT_EQ(resp.predicted, 1);
    EXPECT_EQ(resp.logits, logits);
}

TEST(NetProtocol, HeaderRejectsHostileFields)
{
    net::RequestFrame req;
    req.model = "m";
    std::vector<std::uint8_t> wire;
    net::encodeRequest(req, wire);

    auto mutated = [&](std::size_t offset, std::uint8_t value) {
        std::vector<std::uint8_t> bad = wire;
        bad[offset] = value;
        net::FrameHeader h;
        return net::decodeHeader({bad.data(), net::kHeaderBytes}, h);
    };
    EXPECT_TRUE(mutated(6, 0x00));  // unchanged reserved: still fine
    EXPECT_FALSE(mutated(0, 0x00)); // magic
    EXPECT_FALSE(mutated(4, 0x7f)); // version
    EXPECT_FALSE(mutated(5, 0x00)); // type 0: invalid
    EXPECT_FALSE(mutated(5, 0x63)); // type 99: invalid
    EXPECT_FALSE(mutated(6, 0x01)); // reserved must be zero
    EXPECT_FALSE(mutated(11, 0xff)); // bodyLen top byte: > kMaxBody

    // Truncated header.
    net::FrameHeader h;
    EXPECT_FALSE(net::decodeHeader({wire.data(), 11}, h));
}

TEST(NetProtocol, BodyDecodersBoundEveryLengthField)
{
    net::RequestFrame req;
    req.tag = 1;
    req.model = "clf";
    req.input = {1.0f, 2.0f};
    std::vector<std::uint8_t> wire;
    net::encodeRequest(req, wire);
    std::span<const std::uint8_t> body{wire.data() + net::kHeaderBytes,
                                       wire.size() - net::kHeaderBytes};

    net::RequestFrame out;
    ASSERT_TRUE(net::decodeRequest(body, out));
    // Truncate anywhere: must reject, never over-read.
    for (std::size_t cut = 0; cut < body.size(); ++cut)
        EXPECT_FALSE(net::decodeRequest(body.first(cut), out))
            << "cut=" << cut;

    // floatCount lies (claims more than the body holds).
    std::vector<std::uint8_t> lying(wire.begin() + net::kHeaderBytes,
                                    wire.end());
    std::size_t floatCountAt = 8 + 8 + 2 + req.model.size();
    lying[floatCountAt] = 200;
    EXPECT_FALSE(net::decodeRequest(lying, out));

    // modelLen overruns the body.
    std::vector<std::uint8_t> overrun = lying;
    overrun[floatCountAt] = 2;
    overrun[8 + 8] = 0xff;
    overrun[8 + 8 + 1] = 0x00;
    EXPECT_FALSE(net::decodeRequest(overrun, out));
}

TEST(NetServe, EndToEndBitIdenticalWithTagEcho)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.shards = 2;
    NetFixture fx(cfg);

    auto sample = makeSample(16, 0x5a5a);
    // In-process oracle through the future API.
    auto oracle = fx.server->submit("clf", sample).get();
    ASSERT_EQ(oracle.status, ServeStatus::Ok);

    net::NetClient client = fx.connect();
    auto resp = client.request("clf", sample, 0, /*tag=*/0xabcd);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->tag, 0xabcdu);
    EXPECT_EQ(resp->status,
              static_cast<std::uint8_t>(ServeStatus::Ok));
    EXPECT_EQ(resp->logits, oracle.logits);
    EXPECT_EQ(resp->predicted, oracle.predicted);

    // Unknown model answers over the wire, not by disconnect.
    auto unknown = client.request("nope", sample);
    ASSERT_TRUE(unknown.has_value());
    EXPECT_EQ(unknown->status,
              static_cast<std::uint8_t>(ServeStatus::UnknownModel));
    EXPECT_TRUE(unknown->logits.empty());
}

TEST(NetServe, PipelinedRequestsOnOneConnectionAllAnswer)
{
    ServerConfig cfg;
    cfg.workers = 1;
    NetFixture fx(cfg);
    auto sample = makeSample(16, 0x1212);
    auto oracle = fx.server->submit("clf", sample).get();

    net::NetClient client = fx.connect();
    constexpr int kPipelined = 32;
    for (int i = 0; i < kPipelined; ++i) {
        net::RequestFrame r;
        r.tag = static_cast<std::uint64_t>(i);
        r.model = "clf";
        r.input = sample;
        ASSERT_TRUE(client.sendRequest(r));
    }
    // Same model, one connection: completions keep request order here,
    // and every tag must come back exactly once.
    std::vector<bool> seen(kPipelined, false);
    for (int i = 0; i < kPipelined; ++i) {
        net::ResponseFrame resp;
        ASSERT_TRUE(client.recvResponse(resp)) << "response " << i;
        ASSERT_LT(resp.tag, static_cast<std::uint64_t>(kPipelined));
        EXPECT_FALSE(seen[static_cast<std::size_t>(resp.tag)]);
        seen[static_cast<std::size_t>(resp.tag)] = true;
        EXPECT_EQ(resp.logits, oracle.logits);
    }
}

TEST(NetServe, StatsFrameRoundTripsIncludingQuotedModelName)
{
    ServerConfig cfg;
    cfg.workers = 1;
    NetFixture fx(cfg);
    // A model whose NAME carries a quote and a closing brace: the
    // escaping fix is what keeps the scrape parseable.
    std::string evil = "mo\"del}v1";
    fx.registry->add(evil, makeEngine(16, 24, 4, 2, 0xbeef));

    net::NetClient client = fx.connect();
    auto sample = makeSample(16, 0x9c9c);
    auto resp = client.request(evil, sample);
    ASSERT_TRUE(resp.has_value());
    ASSERT_EQ(resp->status, static_cast<std::uint8_t>(ServeStatus::Ok));

    auto text = client.stats();
    ASSERT_TRUE(text.has_value());
    obs::ParsedExposition parsed;
    ASSERT_TRUE(obs::parsePrometheusText(*text, parsed)) << *text;
    std::string label =
        "model=\"" + obs::escapeLabelValue(evil) + "\"";
    const obs::ParsedSample *series =
        parsed.find("bbs_serve_model_requests_total", label);
    ASSERT_NE(series, nullptr) << *text;
    EXPECT_DOUBLE_EQ(series->value, 1.0);
    // Net-layer series ride the same scrape.
    EXPECT_NE(parsed.find("bbs_net_connections_accepted_total"),
              nullptr);
}

TEST(NetServe, OverloadAnswersOverloadedOverTheWire)
{
    ServerConfig cfg;
    cfg.workers = 0; // nobody drains: the queue can only fill
    cfg.maxShardDepth = 2;
    NetFixture fx(cfg);

    net::NetClient client = fx.connect();
    auto sample = makeSample(16, 0x6f6f);
    for (int i = 0; i < 3; ++i) {
        net::RequestFrame r;
        r.tag = static_cast<std::uint64_t>(i);
        r.model = "clf";
        r.input = sample;
        ASSERT_TRUE(client.sendRequest(r));
    }
    // Only the third answers now (the first two wait for a drain that
    // never comes); it must be the Overloaded shed, delivered promptly.
    net::ResponseFrame resp;
    ASSERT_TRUE(client.recvResponse(resp));
    EXPECT_EQ(resp.tag, 2u);
    EXPECT_EQ(resp.status,
              static_cast<std::uint8_t>(ServeStatus::Overloaded));
    EXPECT_EQ(fx.server->stats().overloaded, 1u);
}

TEST(NetFuzz, GarbageFramesNeverKillTheListenerOrLeakSlots)
{
    ServerConfig cfg;
    cfg.workers = 1;
    NetFixture fx(cfg);
    auto sample = makeSample(16, 0x4242);
    auto oracle = fx.server->submit("clf", sample).get();

    Rng rng(0xfa22);
    constexpr int kRounds = 60;
    for (int round = 0; round < kRounds; ++round) {
        net::NetClient fuzz = fx.connect();
        ASSERT_TRUE(fuzz.connected());
        switch (rng.uniformInt(0, 4)) {
        case 0: { // garbage magic
            std::uint8_t junk[32];
            for (auto &b : junk)
                b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
            fuzz.sendRaw(junk, sizeof junk);
            break;
        }
        case 1: { // oversized length prefix, patched into a real header
            std::vector<std::uint8_t> wire;
            net::encodeStatsRequest(wire);
            wire[8] = 0xff;
            wire[9] = 0xff;
            wire[10] = 0xff;
            wire[11] = 0x7f;
            fuzz.sendRaw(wire.data(), wire.size());
            break;
        }
        case 2: { // truncated valid frame, then disconnect
            net::RequestFrame r;
            r.model = "clf";
            r.input = sample;
            std::vector<std::uint8_t> wire;
            net::encodeRequest(r, wire);
            std::size_t cut = static_cast<std::size_t>(rng.uniformInt(
                1, static_cast<std::int64_t>(wire.size()) - 1));
            fuzz.sendRaw(wire.data(), cut);
            break;
        }
        case 3: { // valid header, hostile body
            net::RequestFrame r;
            r.model = "clf";
            r.input = sample;
            std::vector<std::uint8_t> wire;
            net::encodeRequest(r, wire);
            for (int i = 0; i < 6; ++i) {
                std::size_t at = static_cast<std::size_t>(rng.uniformInt(
                    net::kHeaderBytes,
                    static_cast<std::int64_t>(wire.size()) - 1));
                wire[at] = static_cast<std::uint8_t>(
                    rng.uniformInt(0, 255));
            }
            fuzz.sendRaw(wire.data(), wire.size());
            break;
        }
        case 4: { // server-to-client frame type from a client
            std::vector<std::uint8_t> wire;
            net::encodeResponse(0, 0, -1, {}, wire);
            fuzz.sendRaw(wire.data(), wire.size());
            break;
        }
        }
        fuzz.close();
    }

    // The listener survived: a fresh, well-behaved connection serves
    // bit-identical answers...
    net::NetClient good = fx.connect();
    auto resp = good.request("clf", sample);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, static_cast<std::uint8_t>(ServeStatus::Ok));
    EXPECT_EQ(resp->logits, oracle.logits);
    good.close();

    // ...and every fuzzed connection's slot came back.
    EXPECT_TRUE(eventually(
        [&] { return fx.net->activeConnections() == 0; }))
        << fx.net->activeConnections() << " connections leaked";
    EXPECT_GE(fx.net->acceptedTotal(),
              static_cast<std::uint64_t>(kRounds));
}

TEST(NetFuzz, StalledMidFrameConnectionDoesNotStallOthers)
{
    ServerConfig cfg;
    cfg.workers = 1;
    NetFixture fx(cfg);
    auto sample = makeSample(16, 0x7777);

    // Stall: send half a request frame and just sit there.
    net::NetClient stalled = fx.connect();
    net::RequestFrame r;
    r.model = "clf";
    r.input = sample;
    std::vector<std::uint8_t> wire;
    net::encodeRequest(r, wire);
    ASSERT_TRUE(stalled.sendRaw(wire.data(), wire.size() / 2));

    // Other connections keep full service while the stalled one hangs.
    net::NetClient live = fx.connect();
    for (int i = 0; i < 10; ++i) {
        auto resp = live.request("clf", sample, 0,
                                 static_cast<std::uint64_t>(i));
        ASSERT_TRUE(resp.has_value()) << "request " << i;
        EXPECT_EQ(resp->status,
                  static_cast<std::uint8_t>(ServeStatus::Ok));
    }
    EXPECT_EQ(fx.net->protocolErrors(), 0u); // a stall is not an error

    // Completing the frame later still works: the framing state kept
    // the partial bytes.
    ASSERT_TRUE(
        stalled.sendRaw(wire.data() + wire.size() / 2,
                        wire.size() - wire.size() / 2));
    net::ResponseFrame late;
    ASSERT_TRUE(stalled.recvResponse(late));
    EXPECT_EQ(late.status, static_cast<std::uint8_t>(ServeStatus::Ok));
}

TEST(NetServe, ConnectionSlotsAreBoundedAndRecycled)
{
    ServerConfig cfg;
    cfg.workers = 1;
    net::NetServerConfig netCfg;
    netCfg.maxConnections = 2;
    NetFixture fx(cfg, netCfg);

    net::NetClient a = fx.connect();
    net::NetClient b = fx.connect();
    auto sample = makeSample(16, 0x3030);
    ASSERT_TRUE(a.request("clf", sample).has_value());
    ASSERT_TRUE(b.request("clf", sample).has_value());

    // Third connection: accepted at the TCP level, then closed by the
    // server (slots exhausted) — the client observes EOF on first read.
    net::NetClient c;
    ASSERT_TRUE(c.connect("127.0.0.1", fx.net->port(), 2000));
    auto rejected = c.request("clf", sample);
    EXPECT_FALSE(rejected.has_value());
    EXPECT_TRUE(eventually(
        [&] { return fx.net->rejectedTotal() == 1; }));

    // Releasing a slot readmits new connections.
    a.close();
    EXPECT_TRUE(eventually(
        [&] { return fx.net->activeConnections() < 2; }));
    net::NetClient d = fx.connect();
    EXPECT_TRUE(d.request("clf", sample).has_value());
}

TEST(NetProtocol, GenerateAndStreamChunkFramesRoundTrip)
{
    net::GenerateFrame g;
    g.tag = 0xabadcafe;
    g.model = "llm";
    g.maxNewTokens = 17;
    g.prompt = {3, 1, 4, 1, 5, 9};

    std::vector<std::uint8_t> wire;
    net::encodeGenerate(g, wire);
    net::FrameHeader h;
    ASSERT_TRUE(net::decodeHeader({wire.data(), net::kHeaderBytes}, h));
    EXPECT_EQ(h.type, net::FrameType::Generate);
    ASSERT_EQ(wire.size(), net::kHeaderBytes + h.bodyLen);
    net::GenerateFrame back;
    ASSERT_TRUE(net::decodeGenerate(
        {wire.data() + net::kHeaderBytes, h.bodyLen}, back));
    EXPECT_EQ(back.tag, g.tag);
    EXPECT_EQ(back.model, g.model);
    EXPECT_EQ(back.maxNewTokens, g.maxNewTokens);
    EXPECT_EQ(back.prompt, g.prompt);

    // Hostile lengths: truncated token payload and an overlong name
    // must both be rejected, never over-read.
    net::GenerateFrame bad;
    EXPECT_FALSE(net::decodeGenerate(
        {wire.data() + net::kHeaderBytes, h.bodyLen - 1}, bad));
    std::vector<std::uint8_t> tail(wire.begin() + net::kHeaderBytes,
                                   wire.end());
    tail[8] = 0xff; // modelLen low byte -> claims a huge name
    tail[9] = 0xff;
    EXPECT_FALSE(net::decodeGenerate(tail, bad));

    net::StreamChunkFrame s;
    s.tag = 0xabadcafe;
    s.status = 0;
    s.last = true;
    s.index = 41;
    s.token = -7;
    wire.clear();
    net::encodeStreamChunk(s, wire);
    ASSERT_TRUE(net::decodeHeader({wire.data(), net::kHeaderBytes}, h));
    EXPECT_EQ(h.type, net::FrameType::StreamChunk);
    net::StreamChunkFrame sBack;
    ASSERT_TRUE(net::decodeStreamChunk(
        {wire.data() + net::kHeaderBytes, h.bodyLen}, sBack));
    EXPECT_EQ(sBack.tag, s.tag);
    EXPECT_EQ(sBack.status, s.status);
    EXPECT_EQ(sBack.last, s.last);
    EXPECT_EQ(sBack.index, s.index);
    EXPECT_EQ(sBack.token, s.token);
    EXPECT_FALSE(net::decodeStreamChunk(
        {wire.data() + net::kHeaderBytes, h.bodyLen - 1}, sBack));
}

/** The small decoder the Generate-frame tests serve. */
llm::TransformerConfig
smallLlmConfig()
{
    llm::TransformerConfig mcfg;
    mcfg.dModel = 64;
    mcfg.nHeads = 2;
    mcfg.dFf = 128;
    mcfg.nLayers = 2;
    mcfg.vocab = 96;
    mcfg.maxSeq = 96;
    mcfg.seed = 11;
    return mcfg;
}

TEST(NetServe, GenerateStreamsByteExactTokens)
{
    llm::TransformerModel model(smallLlmConfig());
    serve::GenerationConfig gcfg;
    gcfg.workers = 1;
    serve::GenerationScheduler sched(model, gcfg);

    NetFixture fx;
    fx.attachGeneration("llm", &sched);

    std::vector<std::int32_t> prompt{5, 40, 2, 17, 33, 8, 21};
    auto expected = model.generateReference(prompt, 12);

    net::NetClient c = fx.connect();
    // Streamed tokens must be byte-exact vs in-process generation, with
    // ordered indices and exactly one last chunk.
    std::vector<std::int32_t> got;
    std::uint32_t nextIndex = 0;
    int lastSeen = 0;
    ASSERT_TRUE(c.generate(
        "llm", prompt, 12,
        [&](const net::StreamChunkFrame &chunk) {
            EXPECT_EQ(chunk.status, 0);
            EXPECT_EQ(chunk.index, nextIndex++);
            got.push_back(chunk.token);
            lastSeen += chunk.last ? 1 : 0;
        },
        99));
    EXPECT_EQ(got, expected);
    EXPECT_EQ(lastSeen, 1);
    EXPECT_EQ(fx.net->streamChunksOut(), 12u);

    // The collected variant agrees.
    auto collected = c.generateCollect("llm", prompt, 12, 100);
    ASSERT_TRUE(collected.has_value());
    EXPECT_EQ(*collected, expected);

    // Unknown model answers a terminal UnknownModel chunk.
    bool sawUnknown = false;
    ASSERT_TRUE(c.generate(
        "nope", prompt, 4,
        [&](const net::StreamChunkFrame &chunk) {
            EXPECT_TRUE(chunk.last);
            sawUnknown =
                chunk.status ==
                static_cast<std::uint8_t>(ServeStatus::UnknownModel);
        },
        101));
    EXPECT_TRUE(sawUnknown);

    // A bad prompt (out-of-vocab token) fails with BadInput end to end.
    std::vector<std::int32_t> bad{1, 2, 9999};
    EXPECT_FALSE(c.generateCollect("llm", bad, 4, 102).has_value());
}

TEST(NetFuzz, GenerateFramesAtModelEdges)
{
    // Token ids and budgets at the vocab/maxSeq edges, straight off the
    // wire: in range they stream the oracle's tokens, one past they are
    // answered BadInput — none may reach a fatal check in forward().
    const llm::TransformerConfig mcfg = smallLlmConfig();
    llm::TransformerModel model(mcfg);
    serve::GenerationConfig gcfg;
    gcfg.workers = 1;
    gcfg.defaultMaxNewTokens = 5;
    serve::GenerationScheduler sched(model, gcfg);

    NetFixture fx;
    fx.attachGeneration("llm", &sched);
    net::NetClient c = fx.connect();

    struct Outcome
    {
        std::vector<std::int32_t> tokens; ///< Ok chunks, in order
        std::uint8_t status = 0xff;       ///< the last chunk's status
    };
    std::uint64_t tag = 200;
    auto run = [&](const std::vector<std::int32_t> &prompt,
                   std::uint32_t budget) {
        Outcome o;
        EXPECT_TRUE(c.generate(
            "llm", prompt, budget,
            [&](const net::StreamChunkFrame &chunk) {
                if (chunk.status == 0)
                    o.tokens.push_back(chunk.token);
                if (chunk.last)
                    o.status = chunk.status;
            },
            ++tag));
        return o;
    };
    const auto badInput = static_cast<std::uint8_t>(ServeStatus::BadInput);

    // prompt + budget - 1 == maxSeq: the last fed position is maxSeq - 1,
    // so the whole budget streams. One token more is rejected.
    const std::vector<std::int32_t> prompt{5, 40, 2, 17, 33, 8, 21};
    for (std::int64_t promptLen :
         {static_cast<std::int64_t>(prompt.size()), mcfg.maxSeq}) {
        std::vector<std::int32_t> p(static_cast<std::size_t>(promptLen));
        for (std::size_t i = 0; i < p.size(); ++i)
            p[i] = prompt[i % prompt.size()];
        const std::int64_t budget = mcfg.maxSeq - promptLen + 1;
        Outcome edge = run(p, static_cast<std::uint32_t>(budget));
        EXPECT_EQ(edge.status, 0) << "promptLen=" << promptLen;
        EXPECT_EQ(static_cast<std::int64_t>(edge.tokens.size()), budget);
        EXPECT_EQ(edge.tokens, model.generateReference(p, budget));

        Outcome over = run(p, static_cast<std::uint32_t>(budget + 1));
        EXPECT_EQ(over.status, badInput) << "promptLen=" << promptLen;
        EXPECT_TRUE(over.tokens.empty());
    }

    // Token ids: vocab - 1 is the last valid one; vocab and any negative
    // i32 are rejected.
    const auto top = static_cast<std::int32_t>(mcfg.vocab - 1);
    Outcome topOk = run({top, 0, top}, 4);
    EXPECT_EQ(topOk.status, 0);
    EXPECT_EQ(topOk.tokens, model.generateReference(
                                std::vector<std::int32_t>{top, 0, top}, 4));
    for (std::int32_t badId :
         {static_cast<std::int32_t>(mcfg.vocab), std::int32_t{-1},
          std::numeric_limits<std::int32_t>::min()}) {
        Outcome o = run({3, badId, 4}, 4);
        EXPECT_EQ(o.status, badInput) << "token=" << badId;
        EXPECT_TRUE(o.tokens.empty());
    }

    // Budgets: the largest u32 is rejected; 0 takes the scheduler's
    // default.
    Outcome huge = run(prompt, 0xFFFFFFFFu);
    EXPECT_EQ(huge.status, badInput);
    EXPECT_TRUE(huge.tokens.empty());
    Outcome dflt = run(prompt, 0);
    EXPECT_EQ(dflt.status, 0);
    EXPECT_EQ(dflt.tokens,
              model.generateReference(prompt, gcfg.defaultMaxNewTokens));
}

} // namespace
} // namespace bbs
