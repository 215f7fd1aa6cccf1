/**
 * @file
 * perfbench — the repository's benchmark binary.
 *
 *   perfbench --workload decode|prefill|classify|paper --seed N
 *             --seconds S --trace 0|1 [--scratch DIR]
 *
 * --trace 0 runs one workload and prints its end-to-end metrics.
 * --trace 1 runs the same workload with spans on (its end-to-end numbers
 * come out as traced.*, so the tracing overhead shows), then every other
 * workload for a short slice and the layer probes, and prints every
 * per-layer metric. The last line of stdout is the result object:
 *
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * Everything else goes to stderr.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

/** Length of the timed phase of the other workloads in a traced run:
 *  long enough for decode streams to finish their budgets. */
constexpr double kSliceSeconds = 6.0;

const char *const kWorkloads[] = {"decode", "prefill", "classify", "paper"};

const char *const kEndToEnd[] = {"setup_s",        "peak_rss_mib",
                                 "cpu_ms_per_op",  "ops_per_s",
                                 "latency_ms_p50", "latency_ms_tail"};

/** The traced run's own end-to-end numbers (tracing overhead). */
const char *const kTracedEndToEnd[] = {"ops_per_s", "cpu_ms_per_op",
                                       "latency_ms_p50", "latency_ms_tail"};

const char *const kPerLayer[] = {
    "serve.gen.step_ms.decode",
    "serve.gen.step_ms.prefill",
    "serve.gen.rows_per_step.decode",
    "serve.gen.rows_per_step.prefill",
    "serve.gen.ttft_ms_p50.decode",
    "llm.forward_ms.decode",
    "llm.forward_ms.decode_nproc",
    "llm.forward_ms.prefill",
    "llm.proj_share.decode",
    "llm.attn.scores_us",
    "llm.attn.values_us",
    "llm.kv.append_us",
    "llm.kv.resident_mib",
    "engine.attn_proj.b16.gmac_per_s",
    "engine.attn_proj.b32.gmac_per_s",
    "engine.mlp_up.b16.gmac_per_s",
    "engine.mlp_up.b32.gmac_per_s",
    "engine.mlp_down.b16.gmac_per_s",
    "engine.mlp_down.b32.gmac_per_s",
    "engine.lm_head.b16.gmac_per_s",
    "engine.lm_head.b32.gmac_per_s",
    "engine.classify.gmac_per_s",
    "serve.batch_rows",
    "serve.queue_wait_ms",
    "serve.server_ms_p50",
    "net.overhead_ms_p50",
    "store.open_ms",
    "store.first_request_ms",
    "models.materialize_s",
    "core.prune_s",
    "accel.simulate_s.bitvert",
    "accel.simulate_s.baselines",
    "sim.bitvert_speedup.cons",
    "sim.bitvert_speedup.mod",
    "core.bbs_sparsity_min",
    "host.int8_gmac_per_s",
};

void
runWorkload(const std::string &name, const RunContext &ctx, Outcome &out)
{
    if (name == "decode")
        runDecode(ctx, out);
    else if (name == "prefill")
        runPrefill(ctx, out);
    else if (name == "classify")
        runClassify(ctx, out);
    else
        runPaper(ctx, out);
}

void
printResult(const Outcome &out, const std::map<std::string, Metric> &metrics)
{
    std::string line = "{\"correct\": ";
    line += out.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        line += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
                value + ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    line += "}}";
    std::cout << line << std::endl;
}

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload decode|prefill|classify|"
                 "paper --seed N --seconds S --trace 0|1 [--scratch DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    long long seed = -1;
    double seconds = 0.0;
    int trace = -1;
    std::string scratch = ".bench_build/perfbench-run";
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload")
            workload = value;
        else if (key == "--seed")
            seed = std::atoll(value.c_str());
        else if (key == "--seconds")
            seconds = std::atof(value.c_str());
        else if (key == "--trace")
            trace = std::atoi(value.c_str());
        else if (key == "--scratch")
            scratch = value;
        else
            return usage(("unknown option " + key).c_str());
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || workload == w;
    if (!known || seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1))
        return usage("missing or invalid arguments");

    std::filesystem::create_directories(scratch);
    RunContext ctx;
    ctx.seed = static_cast<std::uint64_t>(seed);
    ctx.seconds = seconds;
    ctx.cpus = availableCpus();
    ctx.scratch = scratch;

    Outcome out;
    std::map<std::string, Metric> metrics;
    std::set<std::string> expected;
    if (trace == 0) {
        runWorkload(workload, ctx, out);
        // The generation path's layer oracles (plans, KV cache) ride on
        // every run of its workloads, after the timed phase.
        if (workload == "decode" || workload == "prefill") {
            probeLlm(ctx, out);
            probeEngine(ctx, out);
        }
        out.e2e("peak_rss_mib", peakRssMiB(), "MiB");
        metrics = out.endToEnd;
        for (const char *m : kEndToEnd)
            expected.insert(m);
    } else {
        Tracer tracer(true);
        ctx.tracer = &tracer;
        runWorkload(workload, ctx, out);
        for (const char *m : kTracedEndToEnd)
            out.layer(std::string("traced.") + m, out.endToEnd.at(m).value,
                      out.endToEnd.at(m).unit);
        RunContext slice = ctx;
        slice.seconds = kSliceSeconds;
        for (const char *w : kWorkloads) {
            if (workload == w)
                continue;
            Outcome other;
            runWorkload(w, slice, other);
            out.merge(other);
        }
        probeLlm(ctx, out);
        probeEngine(ctx, out);
        metrics = out.layers;
        for (const char *m : kPerLayer)
            expected.insert(m);
        for (const char *m : kTracedEndToEnd)
            expected.insert(std::string("traced.") + m);
        tracer.printSummary();
        std::string path = scratch + "/trace-" + workload + "-" +
                           std::to_string(seed) + ".jsonl";
        if (tracer.write(path))
            std::cerr << "perfbench: " << tracer.spans().size()
                      << " spans written to " << path << "\n";
    }

    // The metric set is fixed: a missing or extra name is a benchmark
    // bug, not a measurement.
    std::set<std::string> got;
    for (const auto &[name, m] : metrics)
        got.insert(name);
    if (got != expected) {
        for (const auto &m : expected)
            if (!got.count(m))
                std::cerr << "perfbench: metric missing: " << m << "\n";
        for (const auto &m : got)
            if (!expected.count(m))
                std::cerr << "perfbench: metric not declared: " << m << "\n";
        return 3;
    }
    printResult(out, metrics);
    return 0;
}
