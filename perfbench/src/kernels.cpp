/**
 * @file
 * Engine-stage probes and the host's dense INT8 roofline.
 *
 * Stages: MatmulPlan::run on stand-in weights packed at the decode
 * model's shapes and operating point (group 32, 3 target columns), at
 * the decode (16-row) and prefill (32-row) step batches. Every output is
 * checked against a naive int32 product over PackedOperand::unpack().
 *
 * Roofline: a single-thread dense INT8 GEMM in the benchmark's own code
 * (AVX-512 VNNI `vpdpbusd` where the compiler targets it, a scalar loop
 * otherwise) at the same shapes, checked bit-exact against the naive
 * product. It measures the host, not the program: nothing in libbbs
 * moves it.
 */
#if defined(__AVX512VNNI__) && defined(__AVX512F__)
#include <immintrin.h>
#endif

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "engine/session.hpp"

namespace perfbench {

namespace {

struct Stage
{
    const char *name;
    std::int64_t rows; ///< weight rows = output features
    std::int64_t cols; ///< depth = input features
    int perDecodeStep; ///< plan runs of this shape in one decode forward
    const char *spanName[2];
};

/** The decode model's projection shapes (dModel 256, dFf 512, vocab 512). */
const Stage kStages[] = {
    // 3 layers x (q, k, v, o), 3 x up, 3 x down, one LM head.
    {"attn_proj", 256, 256, 12,
     {"engine.attn_proj.b16", "engine.attn_proj.b32"}},
    {"mlp_up", 512, 256, 3, {"engine.mlp_up.b16", "engine.mlp_up.b32"}},
    {"mlp_down", 256, 512, 3,
     {"engine.mlp_down.b16", "engine.mlp_down.b32"}},
    {"lm_head", 512, 256, 1, {"engine.lm_head.b16", "engine.lm_head.b32"}},
};
const std::int64_t kBatches[2] = {16, 32};

bbs::Int8Tensor
randomInt8(std::int64_t rows, std::int64_t cols, int mag, bbs::Rng &rng)
{
    bbs::Int8Tensor t(bbs::Shape{rows, cols});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-mag, mag));
    return t;
}

/** y[n][k] = sum_c a[n][c] * w[k][c]. */
std::vector<std::int32_t>
naiveProduct(const bbs::Int8Tensor &a, const bbs::Int8Tensor &w)
{
    const std::int64_t n = a.shape()[0], c = a.shape()[1], k = w.shape()[0];
    std::vector<std::int32_t> y(static_cast<std::size_t>(n * k));
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < k; ++j) {
            std::int32_t acc = 0;
            for (std::int64_t d = 0; d < c; ++d)
                acc += a.at(i, d) * w.at(j, d);
            y[static_cast<std::size_t>(i * k + j)] = acc;
        }
    return y;
}

/**
 * Dense INT8 GEMM y = a * w^T. Weights are repacked once into
 * [depth/4][rows][4] so one 64-byte load feeds 16 output columns of
 * `vpdpbusd`; activations are biased to unsigned (a + 128) and the bias
 * is removed with a per-column 128 * sum(w) correction.
 */
class DenseInt8
{
  public:
    explicit DenseInt8(const bbs::Int8Tensor &w)
        : rows_(w.shape()[0]), cols_(w.shape()[1]), w_(w)
    {
        packed_.resize(static_cast<std::size_t>(rows_ * cols_));
        for (std::int64_t k4 = 0; k4 < cols_ / 4; ++k4)
            for (std::int64_t r = 0; r < rows_; ++r)
                for (int b = 0; b < 4; ++b)
                    packed_[static_cast<std::size_t>(
                        (k4 * rows_ + r) * 4 + b)] = w.at(r, k4 * 4 + b);
        bias_.resize(static_cast<std::size_t>(rows_));
        for (std::int64_t r = 0; r < rows_; ++r) {
            std::int32_t s = 0;
            for (std::int64_t c = 0; c < cols_; ++c)
                s += w.at(r, c);
            bias_[static_cast<std::size_t>(r)] = 128 * s;
        }
    }

    /** True when the VNNI kernel is compiled in. */
    static bool
    vectorized()
    {
#if defined(__AVX512VNNI__) && defined(__AVX512F__)
        return true;
#else
        return false;
#endif
    }

    void
    run(const bbs::Int8Tensor &a, std::vector<std::int32_t> &y,
        std::vector<std::uint8_t> &au8) const
    {
        const std::int64_t n = a.shape()[0];
        y.assign(static_cast<std::size_t>(n * rows_), 0);
#if defined(__AVX512VNNI__) && defined(__AVX512F__)
        au8.resize(static_cast<std::size_t>(n * cols_));
        for (std::int64_t i = 0; i < n * cols_; ++i)
            au8[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(a.flat(i) + 128);
        // 4 activation rows x 64 output columns per register block.
        for (std::int64_t i0 = 0; i0 < n; i0 += 4)
            for (std::int64_t j0 = 0; j0 < rows_; j0 += 64) {
                __m512i acc[4][4];
                for (auto &row : acc)
                    for (auto &v : row)
                        v = _mm512_setzero_si512();
                for (std::int64_t k4 = 0; k4 < cols_ / 4; ++k4) {
                    const std::int8_t *wp =
                        packed_.data() + (k4 * rows_ + j0) * 4;
                    __m512i b0 = _mm512_loadu_si512(wp);
                    __m512i b1 = _mm512_loadu_si512(wp + 64);
                    __m512i b2 = _mm512_loadu_si512(wp + 128);
                    __m512i b3 = _mm512_loadu_si512(wp + 192);
                    for (int r = 0; r < 4; ++r) {
                        std::int32_t a4;
                        __builtin_memcpy(&a4,
                                         au8.data() + (i0 + r) * cols_ +
                                             k4 * 4,
                                         4);
                        __m512i av = _mm512_set1_epi32(a4);
                        acc[r][0] = _mm512_dpbusd_epi32(acc[r][0], av, b0);
                        acc[r][1] = _mm512_dpbusd_epi32(acc[r][1], av, b1);
                        acc[r][2] = _mm512_dpbusd_epi32(acc[r][2], av, b2);
                        acc[r][3] = _mm512_dpbusd_epi32(acc[r][3], av, b3);
                    }
                }
                for (int r = 0; r < 4; ++r)
                    for (int v = 0; v < 4; ++v) {
                        std::int32_t *dst =
                            y.data() + (i0 + r) * rows_ + j0 + v * 16;
                        __m512i bias = _mm512_loadu_si512(
                            bias_.data() + j0 + v * 16);
                        _mm512_storeu_si512(
                            dst, _mm512_sub_epi32(acc[r][v], bias));
                    }
            }
#else
        (void)au8;
        for (std::int64_t i = 0; i < n; ++i)
            for (std::int64_t j = 0; j < rows_; ++j) {
                std::int32_t acc = 0;
                for (std::int64_t c = 0; c < cols_; ++c)
                    acc += a.at(i, c) * w_.at(j, c);
                y[static_cast<std::size_t>(i * rows_ + j)] = acc;
            }
#endif
    }

  private:
    std::int64_t rows_, cols_;
    bbs::Int8Tensor w_;
    std::vector<std::int8_t> packed_;
    std::vector<std::int32_t> bias_;
};

} // namespace

void
probeEngine(const RunContext &ctx, Outcome &out)
{
    Tracer disabled(false);
    Tracer &tracer = ctx.tracer != nullptr ? *ctx.tracer : disabled;
    const bool timed = tracer.enabled();
    const int reps = timed ? 40 : 1;
    bbs::setWorkerThreadCap(kEngineThreads);
    bbs::engine::Session session;
    bbs::Rng rng(mix64(ctx.seed ^ 0x656e67696e65ull));

    double hostMacs = 0.0, hostSeconds = 0.0;
    double projMsDecode = 0.0; // one decode step's projections at b16
    for (const Stage &st : kStages) {
        bbs::Int8Tensor w = randomInt8(st.rows, st.cols, 15, rng);
        bbs::engine::PackOptions popts;
        popts.groupSize = 32;
        popts.targetColumns = 3;
        bbs::engine::MatmulPlan plan = session.plan(
            session.pack(w, popts), bbs::engine::ShapeHints{16});
        bbs::Int8Tensor wExact = plan.weights().unpack();
        DenseInt8 dense(wExact);
        for (int b = 0; b < 2; ++b) {
            const std::int64_t n = kBatches[b];
            bbs::Int8Tensor a = randomInt8(n, st.cols, 127, rng);
            std::vector<std::int32_t> want = naiveProduct(a, wExact);
            bbs::Int32Tensor y;
            std::vector<double> ms;
            for (int rep = 0; rep < reps; ++rep) {
                ScopedSpan span(tracer, st.spanName[b]);
                std::int64_t s0 = nowNs();
                plan.run(a, y);
                ms.push_back(static_cast<double>(nowNs() - s0) * 1e-6);
            }
            bool ok = y.numel() == static_cast<std::int64_t>(want.size());
            for (std::int64_t i = 0; ok && i < y.numel(); ++i)
                ok = y.flat(i) == want[static_cast<std::size_t>(i)];
            out.check(ok, std::string(st.spanName[b]) +
                              ": MatmulPlan::run equals naive product");

            std::vector<std::int32_t> yd;
            std::vector<std::uint8_t> scratch;
            std::vector<double> dms;
            for (int rep = 0; rep < reps; ++rep) {
                std::int64_t s0 = nowNs();
                dense.run(a, yd, scratch);
                dms.push_back(static_cast<double>(nowNs() - s0) * 1e-6);
            }
            out.check(yd == want, std::string(st.spanName[b]) +
                                      ": dense INT8 roofline equals naive "
                                      "product");

            const double macs =
                static_cast<double>(n * st.rows * st.cols);
            hostMacs += macs;
            hostSeconds += median(dms) * 1e-3;
            if (timed) {
                out.layer(std::string("engine.") + st.name + ".b" +
                              std::to_string(n) + ".gmac_per_s",
                          macs / (median(ms) * 1e-3) * 1e-9, "GMAC/s");
                if (n == 16)
                    projMsDecode += st.perDecodeStep * median(ms);
            }
        }
    }
    if (timed) {
        out.layer("host.int8_gmac_per_s", hostMacs / hostSeconds * 1e-9,
                  "GMAC/s");
        auto fwd = out.layers.find("llm.forward_ms.decode");
        if (fwd != out.layers.end())
            out.layer("llm.proj_share.decode",
                      projMsDecode / fwd->second.value, "fraction");
        if (!DenseInt8::vectorized())
            std::fprintf(stderr, "perfbench: host.int8_gmac_per_s uses the "
                                 "scalar fallback (no AVX-512 VNNI)\n");
    }
}

} // namespace perfbench
