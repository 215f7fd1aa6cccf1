/**
 * @file
 * The generation workloads (decode, prefill) and the llm-layer probes.
 *
 * Both workloads drive one GenerationScheduler over a synthetic
 * TransformerModel of micro_llm's shape, stepping it from the
 * benchmark's own thread (workers = 0) in a closed loop: a fixed number
 * of streams is kept in flight, and a finished stream is replaced by the
 * next prompt. Prompt lengths and budgets follow a fixed schedule, so
 * every run sees the same size mix; token ids, the model's weights and
 * the oracle's sample come from the seed.
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "bench.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "llm/transformer.hpp"
#include "serve/generation.hpp"

namespace perfbench {

namespace {

using bbs::ServeStatus;
using bbs::llm::KvCache;
using bbs::llm::StepRow;
using bbs::llm::TransformerConfig;
using bbs::llm::TransformerModel;
using bbs::serve::GenerationConfig;
using bbs::serve::GenerationScheduler;
using bbs::serve::StreamToken;

/** micro_llm's shape; maxSeq far above any live length. */
TransformerConfig
modelConfig(std::uint64_t seed)
{
    TransformerConfig cfg;
    cfg.dModel = 256;
    cfg.nHeads = 4;
    cfg.dFf = 512;
    cfg.nLayers = 3;
    cfg.vocab = 512;
    cfg.maxSeq = 1024;
    cfg.groupSize = 32;
    cfg.targetColumns = 3;
    cfg.expectedBatch = 16;
    cfg.seed = mix64(seed ^ 0x6c6c6dull) | 1;
    return cfg;
}

/** One scheduler configuration for both workloads: 16 decode rows plus
 *  up to two 16-token prefill chunks per step. */
GenerationConfig
schedulerConfig()
{
    GenerationConfig g;
    g.maxStepRows = 32;
    g.maxActiveSeqs = 16;
    g.prefillChunk = 16;
    g.maxQueuedSeqs = 256;
    g.workers = 0;
    return g;
}

/**
 * What one workload looks like. Stream i's prompt length and budget
 * follow a fixed cyclic schedule, so every run has the same size mix in
 * the same order whatever its seed.
 */
struct Shape
{
    const char *name;
    int streams;       ///< kept in flight
    int oracleSamples; ///< streams re-run through the oracle
    bool decode;       ///< report ITL (else TTFT)
    std::int64_t (*promptLen)(std::int64_t i);
    std::int64_t (*budget)(std::int64_t i);
};

/** 16 streams, prompts 8..24 tokens, budgets 112..144 tokens. */
const Shape kDecode{
    "decode", 16, 2, true,
    [](std::int64_t i) { return 8 + (7 * i) % 17; },
    [](std::int64_t i) { return 112 + 4 * ((5 * i) % 9); }};

/** Prompts whose first-token times prefill reports: the first 10, two
 *  whole cycles of the prompt schedule (3200 prompt tokens), which a
 *  15 s run reaches even on a slow host (~300 prompt tokens/s). */
constexpr std::size_t kPrefillTtftPrompts = 10;

/** Model builds in set-up; setup_s is their median. */
constexpr int kBuildReps = 7;

/** 2 streams, prompts 192..448 tokens in steps of 64, 1-2 new tokens. */
const Shape kPrefill{
    "prefill", 2, 1, false,
    [](std::int64_t i) { return 192 + 64 * ((3 * i) % 5); },
    [](std::int64_t i) { return 1 + i % 2; }};

struct StreamRec
{
    std::vector<std::int32_t> prompt;
    std::int64_t budget = 0;
    std::int64_t submitNs = 0;
    std::int64_t lastNs = 0;
    double ttftMs = -1.0;
    std::vector<std::int32_t> tokens;
    std::vector<std::uint32_t> indices;
    ServeStatus status = ServeStatus::Ok;
    bool last = false;
    bool lastFlagOnFinal = true;
};

/** Build the model and scheduler kBuildReps times; keep the last pair
 *  and return the median build time (s). */
double
buildModel(std::uint64_t seed, bbs::obs::Registry &registry,
           std::unique_ptr<TransformerModel> &model,
           std::unique_ptr<GenerationScheduler> &sched)
{
    std::vector<double> times;
    for (int r = 0; r < kBuildReps; ++r) {
        sched.reset();
        model.reset();
        std::int64_t t0 = nowNs();
        model = std::make_unique<TransformerModel>(modelConfig(seed));
        sched = std::make_unique<GenerationScheduler>(
            *model, schedulerConfig(), &registry);
        times.push_back(secondsSince(t0));
    }
    return median(times);
}

void
runGeneration(const Shape &shape, const RunContext &ctx, Outcome &out)
{
    Tracer disabled(false);
    Tracer &tracer = ctx.tracer != nullptr ? *ctx.tracer : disabled;
    // The stepping thread runs every plan itself (see kEngineThreads).
    bbs::setWorkerThreadCap(kEngineThreads);

    bbs::obs::Registry registry;
    std::unique_ptr<TransformerModel> model;
    std::unique_ptr<GenerationScheduler> sched;
    double setupS;
    {
        ScopedSpan span(tracer, "setup.build_model");
        setupS = buildModel(ctx.seed, registry, model, sched);
    }
    const std::int64_t vocab = model->config().vocab;

    bbs::Rng rng(mix64(ctx.seed ^ 0x70726f6dull));

    std::vector<std::unique_ptr<StreamRec>> streams;
    std::vector<std::size_t> finished;
    std::vector<double> itlMs;
    itlMs.reserve(1 << 16);
    bool measuring = true;

    auto submitNext = [&] {
        const std::size_t index = streams.size();
        const auto i = static_cast<std::int64_t>(index);
        auto rec = std::make_unique<StreamRec>();
        rec->prompt.resize(static_cast<std::size_t>(shape.promptLen(i)));
        for (auto &t : rec->prompt)
            t = static_cast<std::int32_t>(rng.uniformInt(0, vocab - 1));
        rec->budget = shape.budget(i);
        // Decode starts at steady state: the first wave's budgets are
        // spread so its streams finish one by one, not all at once.
        if (shape.decode && i < shape.streams)
            rec->budget = std::max<std::int64_t>(
                1, rec->budget * (i + 1) / shape.streams);
        rec->tokens.reserve(static_cast<std::size_t>(rec->budget));
        rec->indices.reserve(static_cast<std::size_t>(rec->budget));
        StreamRec *r = rec.get();
        streams.push_back(std::move(rec));
        r->submitNs = nowNs();
        sched->submit(r->prompt, r->budget, [&, r,
                                             index](const StreamToken &t) {
            if (!measuring)
                return; // the scheduler is shutting down
            std::int64_t now = nowNs();
            r->status = t.status;
            if (t.status == ServeStatus::Ok) {
                if (r->tokens.empty())
                    r->ttftMs = static_cast<double>(now - r->submitNs) * 1e-6;
                else
                    itlMs.push_back(static_cast<double>(now - r->lastNs) *
                                    1e-6);
                r->lastNs = now;
                r->tokens.push_back(t.token);
                r->indices.push_back(t.index);
            }
            if (r->last)
                r->lastFlagOnFinal = false; // a callback after `last`
            if (t.last) {
                r->last = true;
                finished.push_back(index);
            }
        });
    };

    auto &steps = registry.counter("bbs_llm_steps_total");
    auto &tokens = registry.counter("bbs_llm_tokens_total");
    auto &decodeRows = registry.counter("bbs_llm_decode_rows_total");
    auto &prefillRows = registry.counter("bbs_llm_prefill_rows_total");

    std::int64_t kvHighWater = 0;
    for (int i = 0; i < shape.streams; ++i)
        submitNext();
    std::uint64_t steps0 = steps.value(), tokens0 = tokens.value();
    std::uint64_t rows0 = decodeRows.value() + prefillRows.value();
    std::uint64_t prefill0 = prefillRows.value();
    double cpu0 = processCpuSeconds();
    std::int64_t t0 = nowNs();
    {
        ScopedSpan phase(tracer, shape.name);
        while (secondsSince(t0) < ctx.seconds) {
            {
                ScopedSpan span(tracer, "serve.gen.stepOnce");
                sched->stepOnce();
            }
            kvHighWater = std::max(kvHighWater, sched->kvResidentBytes());
            for (std::size_t done : finished) {
                const StreamRec &r = *streams[done];
                tracer.record("serve.gen.stream", r.submitNs, r.lastNs,
                              done + 1);
                submitNext();
            }
            finished.clear();
        }
    }
    double elapsed = secondsSince(t0);
    double cpu = processCpuSeconds() - cpu0;
    std::uint64_t nSteps = steps.value() - steps0;
    std::uint64_t nTokens = tokens.value() - tokens0;
    std::uint64_t nRows =
        decodeRows.value() + prefillRows.value() - rows0;
    std::uint64_t nPrompt = prefillRows.value() - prefill0;
    measuring = false;
    sched.reset(); // its stream callbacks refer to the locals above

    // ---- Checks, outside the timed phase. Streams still in flight at
    //      the deadline were abandoned; every finished one is checked.
    std::vector<std::size_t> complete;
    std::vector<double> ttftMs;
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const StreamRec &r = *streams[i];
        if (r.ttftMs >= 0.0)
            ttftMs.push_back(r.ttftMs);
        if (!r.last)
            continue;
        bool ok = r.status == ServeStatus::Ok && r.lastFlagOnFinal &&
                  static_cast<std::int64_t>(r.tokens.size()) == r.budget;
        for (std::size_t j = 0; ok && j < r.tokens.size(); ++j)
            ok = r.indices[j] == j && r.tokens[j] >= 0 &&
                 r.tokens[j] < vocab;
        char what[96];
        std::snprintf(what, sizeof what,
                      "%s stream %zu: status, budget, indices, vocab",
                      shape.name, i);
        if (out.check(ok, what))
            complete.push_back(i);
    }
    // Batch composition must be unobservable: a seeded sample of the
    // finished streams equals the unbatched reference.
    std::uint64_t pickState = mix64(ctx.seed ^ 0x6f7261636c65ull);
    for (int s = 0; s < shape.oracleSamples && !complete.empty(); ++s) {
        pickState = mix64(pickState);
        std::size_t i = complete[pickState % complete.size()];
        const StreamRec &r = *streams[i];
        std::vector<std::int32_t> ref;
        {
            ScopedSpan span(tracer, "llm.generateReference", i + 1);
            ref = model->generateReference(r.prompt, r.budget);
        }
        char what[96];
        std::snprintf(what, sizeof what,
                      "%s stream %zu equals generateReference", shape.name,
                      i);
        out.check(ref == r.tokens, what);
    }
    out.check(!complete.empty(), std::string(shape.name) +
                                     ": at least one stream finished");

    const bool decode = shape.decode;
    double ops = static_cast<double>(decode ? nTokens : nPrompt);
    out.e2e("setup_s", setupS, "s");
    out.e2e("ops_per_s", ops / elapsed, "1/s");
    out.e2e("cpu_ms_per_op", cpu * 1e3 / std::max(ops, 1.0), "ms");
    // Prefill's first-token times vary with prompt length, so they are
    // taken from the first kPrefillTtftPrompts prompts only: the same
    // prompt mix in every run, however many prompts it finished.
    std::vector<double> prefillTtftMs;
    for (std::size_t i = 0; i < streams.size() && i < kPrefillTtftPrompts;
         ++i)
        if (streams[i]->ttftMs >= 0.0)
            prefillTtftMs.push_back(streams[i]->ttftMs);
    const std::vector<double> &latency = decode ? itlMs : prefillTtftMs;
    out.e2e("latency_ms_p50", median(latency), "ms");
    out.e2e("latency_ms_tail", tailOf(latency), "ms");

    if (tracer.enabled()) {
        std::string suffix = std::string(".") + shape.name;
        std::vector<double> stepMs;
        // Only this workload's steps: the spans under its phase span.
        for (const Span &s : tracer.spans())
            if (std::string("serve.gen.stepOnce") == s.name &&
                s.startNs >= t0)
                stepMs.push_back(static_cast<double>(s.endNs - s.startNs) *
                                 1e-6);
        out.layer("serve.gen.step_ms" + suffix, median(stepMs), "ms");
        out.layer("serve.gen.rows_per_step" + suffix,
                  static_cast<double>(nRows) /
                      static_cast<double>(std::max<std::uint64_t>(nSteps, 1)),
                  "count");
        if (decode) {
            out.layer("serve.gen.ttft_ms_p50.decode", median(ttftMs), "ms");
            out.layer("llm.kv.resident_mib",
                      static_cast<double>(kvHighWater) / (1024.0 * 1024.0),
                      "MiB");
        }
    }
}

/** Fill @p caches up to @p depth tokens of seeded ids, forwarding a
 *  16-token chunk of every cache per call. */
void
prefillCaches(const TransformerModel &model, TransformerModel::Workspace &ws,
              std::vector<std::unique_ptr<KvCache>> &caches,
              std::int64_t depth, bbs::Rng &rng)
{
    std::vector<StepRow> rows;
    for (std::int64_t p = 0; p < depth; p += 16) {
        rows.clear();
        for (auto &c : caches)
            for (std::int64_t q = p; q < std::min(p + 16, depth); ++q) {
                StepRow row;
                row.cache = c.get();
                row.token = static_cast<std::int32_t>(
                    rng.uniformInt(0, model.config().vocab - 1));
                row.pos = q;
                rows.push_back(row);
            }
        model.forward(rows, ws);
    }
}

} // namespace

void
runDecode(const RunContext &ctx, Outcome &out)
{
    runGeneration(kDecode, ctx, out);
}

void
runPrefill(const RunContext &ctx, Outcome &out)
{
    runGeneration(kPrefill, ctx, out);
}

void
probeLlm(const RunContext &ctx, Outcome &out)
{
    Tracer disabled(false);
    Tracer &tracer = ctx.tracer != nullptr ? *ctx.tracer : disabled;
    const bool timed = tracer.enabled();
    bbs::setWorkerThreadCap(kEngineThreads);
    TransformerModel model(modelConfig(ctx.seed));
    const TransformerConfig &cfg = model.config();
    TransformerModel::Workspace ws;
    bbs::Rng rng(mix64(ctx.seed ^ 0x70726f6265ull));

    // Forward timings (traced runs only): 16 decode rows over caches of
    // the configured capacity (median prompt + median budget) around the
    // median live length, and two 16-token prefill chunks around the
    // median prompt depth.
    constexpr std::int64_t kDecodeCapacity = 16 + 128;
    constexpr std::int64_t kLiveLength = 80;
    constexpr std::int64_t kPromptDepth = 320;
    constexpr int kReps = 8;
    if (timed) {
        std::vector<std::unique_ptr<KvCache>> caches;
        for (int i = 0; i < 16; ++i)
            caches.push_back(model.makeCache(kDecodeCapacity));
        prefillCaches(model, ws, caches, kLiveLength - kReps / 2, rng);
        std::vector<StepRow> rows(caches.size());
        auto forwardDecode = [&](const char *span) {
            for (std::size_t i = 0; i < caches.size(); ++i) {
                rows[i] = StepRow{};
                rows[i].cache = caches[i].get();
                rows[i].token = static_cast<std::int32_t>(
                    rng.uniformInt(0, cfg.vocab - 1));
                rows[i].pos = caches[i]->length();
                rows[i].wantLogits = true;
            }
            ScopedSpan s(tracer, span);
            model.forward(rows, ws);
        };
        for (int rep = 0; rep < kReps; ++rep)
            forwardDecode("llm.forward.decode");
        // The same step with the pool at every CPU: the pool's cost at
        // decode shapes.
        bbs::setWorkerThreadCap(static_cast<unsigned>(ctx.cpus));
        for (int rep = 0; rep < kReps; ++rep)
            forwardDecode("llm.forward.decode_nproc");
        bbs::setWorkerThreadCap(kEngineThreads);

        std::vector<std::unique_ptr<KvCache>> prompts;
        for (int i = 0; i < 2; ++i)
            prompts.push_back(model.makeCache(448 + 2));
        prefillCaches(model, ws, prompts, kPromptDepth - 16 * kReps / 2, rng);
        for (int rep = 0; rep < kReps; ++rep) {
            rows.clear();
            for (auto &c : prompts)
                for (std::int64_t q = 0; q < 16; ++q) {
                    StepRow row;
                    row.cache = c.get();
                    row.token = static_cast<std::int32_t>(
                        rng.uniformInt(0, cfg.vocab - 1));
                    row.pos = c->length() + q;
                    rows.push_back(row);
                }
            ScopedSpan span(tracer, "llm.forward.prefill");
            model.forward(rows, ws);
        }
    }

    // KvCache: the benchmark appends its own rows, then checks scores
    // and values against naive int8 products over those rows.
    const std::int64_t heads = cfg.nHeads, dHead = cfg.dHead();
    auto cache = model.makeCache(kDecodeCapacity);
    const std::int64_t cap = cache->capacity();
    std::vector<std::int8_t> kRows(
        static_cast<std::size_t>(cfg.nLayers * kLiveLength * heads * dHead));
    std::vector<std::int8_t> vRows(kRows.size());
    for (auto &v : kRows)
        v = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
    for (auto &v : vRows)
        v = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
    auto rowAt = [&](const std::vector<std::int8_t> &m, std::int64_t layer,
                     std::int64_t t) {
        return std::span<const std::int8_t>(
            m.data() + (layer * kLiveLength + t) * heads * dHead,
            static_cast<std::size_t>(heads * dHead));
    };
    for (std::int64_t t = 0; t < kLiveLength; ++t)
        for (std::int64_t l = 0; l < cfg.nLayers; ++l) {
            ScopedSpan span(tracer, "llm.kv.append");
            cache->append(l, t, rowAt(kRows, l, t), 0.01f,
                          rowAt(vRows, l, t), 0.02f);
        }
    cache->commit(kLiveLength);

    const int callReps = timed ? 16 : 1;
    bbs::Int32Tensor scores, values;
    bool scoresOk = true, valuesOk = true;
    std::vector<std::int8_t> q(static_cast<std::size_t>(dHead));
    std::vector<std::int8_t> c(static_cast<std::size_t>(cap), 0);
    for (std::int64_t l = 0; l < cfg.nLayers; ++l)
        for (std::int64_t h = 0; h < heads; ++h) {
            for (auto &v : q)
                v = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
            for (std::int64_t t = 0; t < kLiveLength; ++t)
                c[static_cast<std::size_t>(t)] =
                    static_cast<std::int8_t>(rng.uniformInt(0, 127));
            bbs::engine::PackedOperand qOp =
                model.session().pack(q, 1, dHead);
            bbs::engine::PackedOperand cOp = model.session().pack(c, 1, cap);
            for (int rep = 0; rep < callReps; ++rep) {
                ScopedSpan span(tracer, "llm.kv.scores");
                cache->scores(l, h, qOp, kLiveLength, scores);
            }
            for (int rep = 0; rep < callReps; ++rep) {
                ScopedSpan span(tracer, "llm.kv.values");
                cache->values(l, h, cOp, values);
            }
            for (std::int64_t t = 0; t < kLiveLength; ++t) {
                auto k = rowAt(kRows, l, t);
                std::int32_t want = 0;
                for (std::int64_t d = 0; d < dHead; ++d)
                    want += q[static_cast<std::size_t>(d)] *
                            k[static_cast<std::size_t>(h * dHead + d)];
                scoresOk = scoresOk && scores.flat(t) == want;
            }
            for (std::int64_t d = 0; d < dHead; ++d) {
                std::int32_t want = 0;
                for (std::int64_t t = 0; t < kLiveLength; ++t)
                    want += c[static_cast<std::size_t>(t)] *
                            rowAt(vRows, l,
                                  t)[static_cast<std::size_t>(h * dHead + d)];
                valuesOk = valuesOk && values.flat(d) == want;
            }
        }
    out.check(scoresOk, "KvCache::scores equals naive int8 dots");
    out.check(valuesOk, "KvCache::values equals naive int8 products");

    if (timed) {
        out.layer("llm.forward_ms.decode",
                  median(tracer.durationsMs("llm.forward.decode")), "ms");
        out.layer("llm.forward_ms.decode_nproc",
                  median(tracer.durationsMs("llm.forward.decode_nproc")),
                  "ms");
        out.layer("llm.forward_ms.prefill",
                  median(tracer.durationsMs("llm.forward.prefill")), "ms");
        out.layer("llm.attn.scores_us",
                  median(tracer.durationsMs("llm.kv.scores")) * 1e3, "us");
        out.layer("llm.attn.values_us",
                  median(tracer.durationsMs("llm.kv.values")) * 1e3, "us");
        out.layer("llm.kv.append_us",
                  median(tracer.durationsMs("llm.kv.append")) * 1e3, "us");
    }
}

} // namespace perfbench
