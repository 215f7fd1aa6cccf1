/**
 * @file
 * Shared plumbing of the perfbench harness: the run context a workload
 * receives, the outcome it fills (attempted/failed operations plus named
 * metrics), the span tracer behind the per-layer run, and small timing
 * and statistics helpers.
 *
 * Everything here is the benchmark's own code. The program under test
 * (libbbs) is only ever called through its public headers.
 */
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds since an arbitrary process-local epoch. */
std::int64_t nowNs();

inline double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/** Process CPU time (user + system, every thread) in seconds. */
double processCpuSeconds();

/** Peak resident set size of the process so far, in MiB. */
double peakRssMiB();

/** Threads the process may run on (the affinity mask; `nproc`). */
int availableCpus();

/** Median of @p xs (0 for an empty sample). */
double median(std::vector<double> xs);

/** Linear-interpolated percentile, @p p in [0, 100]. */
double percentileOf(std::vector<double> xs, double p);

/**
 * The tail a sample supports: the highest percentile, up to p99, with at
 * least ten samples beyond it; the median when there are fewer than
 * forty samples.
 */
double tailOf(const std::vector<double> &xs);

/** Geometric mean of positive values. */
double geomeanOf(const std::vector<double> &xs);

/** splitmix64: the benchmark's own seed-derivation step. */
std::uint64_t mix64(std::uint64_t x);

/** One recorded span. Times are nowNs() values. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1; ///< index of the enclosing span, -1 = root
    std::uint64_t id = 0;     ///< stream / request / model id, 0 = none
};

/**
 * In-memory span recorder. Spans are appended from the driving thread
 * only (the thread that calls into the program's public functions) and
 * written out once, at the end of the run. Disabled tracers record
 * nothing and cost one branch per call site.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled)
    {
        if (enabled_)
            spans_.reserve(1 << 16);
    }

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open span; returns its index. */
    std::int32_t open(const char *name, std::uint64_t id = 0);
    void close(std::int32_t index);

    /** Record a finished span with explicit times (e.g. a request from
     *  send to response), parented to the innermost open span. */
    void record(const char *name, std::int64_t startNs, std::int64_t endNs,
                std::uint64_t id = 0);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (ms) of every span called @p name. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** A span's duration minus the part its children cover, in ms. */
    std::vector<double> selfTimesMs() const;

    /** Write every span as JSON lines to @p path (once, at the end). */
    bool write(const std::string &path) const;

    /** Per-name count / total / self-time table, for humans (stderr). */
    void printSummary() const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** RAII span; a no-op on a disabled tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const char *name, std::uint64_t id = 0)
        : tracer_(t), index_(t.enabled() ? t.open(name, id) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (index_ >= 0)
            tracer_.close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    std::int32_t index_;
};

/**
 * Engine worker-pool threads (the calling thread included) of the
 * generation and classify workloads and of the engine/llm probes. One:
 * on a 4-vCPU host with steal time, the pool's per-plan hand-offs made
 * 4-thread decode slower than 1-thread decode and twice as noisy
 * (README, "Threads"). llm.forward_ms.decode_nproc keeps the pool's
 * cost in view.
 */
inline constexpr unsigned kEngineThreads = 1;

/** The paper pipeline's coarse loops scale; they get half the CPUs. */
inline unsigned
paperThreads(int cpus)
{
    return static_cast<unsigned>(cpus > 1 ? cpus / 2 : 1);
}

/** What a workload is asked to do. */
struct RunContext
{
    std::uint64_t seed = 1;
    double seconds = 10.0; ///< length of the timed phase
    int cpus = 1;          ///< thread budget (nproc)
    Tracer *tracer = nullptr;
    std::string scratch;   ///< directory for files a workload writes
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload reports. */
struct Outcome
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /** End-to-end metrics (untraced runs report these). */
    std::map<std::string, Metric> endToEnd;
    /** Per-layer metrics (the traced run reports these). */
    std::map<std::string, Metric> layers;

    /** Count one checked operation; a false @p ok is a failure, logged
     *  to stderr with @p what. Returns @p ok. */
    bool check(bool ok, const std::string &what);

    void
    e2e(const std::string &name, double value, const std::string &unit)
    {
        endToEnd[name] = Metric{value, unit};
    }
    void
    layer(const std::string &name, double value, const std::string &unit)
    {
        layers[name] = Metric{value, unit};
    }

    /** Fold another outcome's counts and per-layer metrics into this. */
    void merge(const Outcome &other);
};

// ------------------------------------------------------------ workloads
//
// Each workload runs its set-up, a timed phase of ctx.seconds, and its
// oracles (outside the timed phase), then reports the end-to-end
// metrics. With a tracer it additionally fills its per-layer metrics.

void runDecode(const RunContext &ctx, Outcome &out);
void runPrefill(const RunContext &ctx, Outcome &out);
void runClassify(const RunContext &ctx, Outcome &out);
void runPaper(const RunContext &ctx, Outcome &out);

/**
 * Generation-path probes: TransformerModel::forward and KvCache calls
 * on the benchmark's own caches, with the KvCache scores/values
 * oracles. Fills the llm.* per-layer metrics when traced; always runs
 * the oracles.
 */
void probeLlm(const RunContext &ctx, Outcome &out);

/**
 * Engine-stage probes: MatmulPlan::run on stand-in operands at the
 * decode model's shapes, each output checked against a naive int32
 * product over PackedOperand::unpack(), plus the benchmark's dense INT8
 * roofline kernel. Fills engine.* and host.* when traced.
 */
void probeEngine(const RunContext &ctx, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
