/**
 * @file
 * The paper workload: the reproduction pipeline of the paper's Fig. 12
 * over a subset of benchmarkModels() — one CNN, one ViT, one BERT.
 *
 * Set-up materializes the subset's weights at the standard weight cap
 * (repeated; the median is setup_s). One round carries every model
 * through BBS pruning (prepareModel with the conservative and moderate
 * configs) and the eight-accelerator lineup. The timed phase runs whole
 * rounds until the run length is reached. The properties the paper
 * claims are checked outside the timed phase on every run.
 */
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/factory.hpp"
#include "bench.hpp"
#include "common/parallel.hpp"
#include "core/bbs.hpp"
#include "core/global_pruning.hpp"
#include "models/model_zoo.hpp"
#include "models/workload.hpp"
#include "sim/prepared_model.hpp"

namespace perfbench {

namespace {

using bbs::MaterializedModel;
using bbs::ModelSim;
using bbs::PreparedModel;

/** The standard per-layer weight cap of the repo's paper benches. */
constexpr std::int64_t kWeightCap = 2'000'000;
constexpr int kMaterializeReps = 5;

/** The subset's BitVert geomean speedups over Stripes must fall within
 *  20% of the paper's Fig. 12 geomeans (2.48x cons, 3.03x mod). */
constexpr double kConsBand[2] = {2.48 * 0.8, 2.48 * 1.2};
constexpr double kModBand[2] = {3.03 * 0.8, 3.03 * 1.2};

const std::vector<std::string> &
subset()
{
    static const std::vector<std::string> names = {"ResNet-34", "ViT-Small",
                                                   "Bert-MRPC"};
    return names;
}

bool
isBitVert(const std::string &accel)
{
    return accel.rfind("BitVert", 0) == 0;
}

/** Prune + simulate one model on the lineup; name -> result. */
std::map<std::string, ModelSim>
pipeline(const MaterializedModel &mm,
         const std::vector<std::unique_ptr<bbs::Accelerator>> &lineup,
         Tracer &tracer, std::uint64_t id)
{
    const bbs::GlobalPruneConfig cons = bbs::conservativeConfig();
    const bbs::GlobalPruneConfig mod = bbs::moderateConfig();
    PreparedModel plain, withCons, withMod;
    {
        ScopedSpan span(tracer, "sim.prepare.plain", id);
        plain = bbs::prepareModel(mm);
    }
    {
        ScopedSpan span(tracer, "core.prune", id);
        withCons = bbs::prepareModel(mm, &cons);
        withMod = bbs::prepareModel(mm, &mod);
    }
    bbs::SimConfig cfg;
    std::map<std::string, ModelSim> out;
    for (const auto &acc : lineup) {
        const std::string name = acc->name();
        const PreparedModel *pm = &plain;
        if (name == "BitVert (cons)")
            pm = &withCons;
        else if (name == "BitVert (mod)")
            pm = &withMod;
        ScopedSpan span(tracer,
                        isBitVert(name) ? "accel.simulate.bitvert"
                                        : "accel.simulate.baseline",
                        id);
        out.emplace(name, acc->simulateModel(*pm, cfg));
    }
    return out;
}

} // namespace

void
runPaper(const RunContext &ctx, Outcome &out)
{
    Tracer disabled(false);
    Tracer &tracer = ctx.tracer != nullptr ? *ctx.tracer : disabled;
    bbs::setWorkerThreadCap(paperThreads(ctx.cpus));
    auto lineup = bbs::evaluationLineup();

    // ---- Set-up: materialize the subset kMaterializeReps times.
    bbs::MaterializeOptions opts;
    opts.seed = mix64(ctx.seed ^ 0x7061706572ull);
    opts.maxWeightsPerLayer = kWeightCap;
    std::vector<MaterializedModel> models;
    std::vector<double> setupS;
    for (int rep = 0; rep < kMaterializeReps; ++rep) {
        models.clear();
        ScopedSpan span(tracer, "setup.materialize");
        std::int64_t t0 = nowNs();
        for (const std::string &name : subset()) {
            ScopedSpan one(tracer, "models.materialize");
            models.push_back(
                bbs::materializeModel(bbs::modelByName(name), opts));
        }
        setupS.push_back(secondsSince(t0));
    }
    double weights = 0.0;
    for (const auto &mm : models)
        for (const auto &l : mm.layers)
            weights += static_cast<double>(l.weights.values.numel());

    // ---- Timed phase: whole rounds.
    std::vector<double> modelMs; // one per model per round
    std::vector<std::map<std::string, ModelSim>> sims(models.size());
    int rounds = 0;
    double cpu0 = processCpuSeconds();
    std::int64_t t0 = nowNs();
    {
        ScopedSpan phase(tracer, "paper");
        do {
            ScopedSpan round(tracer, "paper.round", rounds + 1);
            for (std::size_t i = 0; i < models.size(); ++i) {
                std::int64_t m0 = nowNs();
                sims[i] = pipeline(models[i], lineup, tracer, i + 1);
                modelMs.push_back(static_cast<double>(nowNs() - m0) * 1e-6);
            }
            ++rounds;
        } while (secondsSince(t0) < ctx.seconds);
    }
    double elapsed = secondsSince(t0);
    double cpu = processCpuSeconds() - cpu0;

    // ---- Properties, outside the timed phase.
    std::vector<double> consSpeedup, modSpeedup;
    double sparsityMin = 1.0;
    for (std::size_t i = 0; i < models.size(); ++i) {
        const auto &s = sims[i];
        const std::string &name = subset()[i];
        double cons = s.at("BitVert (cons)").totalCycles();
        double mod = s.at("BitVert (mod)").totalCycles();
        bool fewest = cons > 0.0 && mod > 0.0;
        for (const auto &[accel, sim] : s)
            if (!isBitVert(accel))
                fewest = fewest && cons < sim.totalCycles() &&
                         mod < sim.totalCycles();
        out.check(fewest, name + ": BitVert has the fewest cycles");
        double stripes = s.at("Stripes").totalCycles();
        consSpeedup.push_back(stripes / cons);
        modSpeedup.push_back(stripes / mod);

        double modelMin = 1.0;
        for (const auto &l : models[i].layers)
            modelMin = std::min(modelMin, bbs::bbsSparsity(l.weights.values));
        sparsityMin = std::min(sparsityMin, modelMin);
        out.check(modelMin >= 0.5, name + ": BBS sparsity >= 0.5 per layer");
    }
    {
        // Simulated cycles must not depend on the thread count.
        const std::size_t i = 1; // the smallest model of the subset
        bbs::setWorkerThreadCap(1);
        auto again = pipeline(models[i], lineup, disabled, 0);
        bbs::setWorkerThreadCap(paperThreads(ctx.cpus));
        bool same = again.size() == sims[i].size();
        for (const auto &[accel, sim] : again)
            same = same && sim.totalCycles() ==
                               sims[i].at(accel).totalCycles();
        out.check(same, subset()[i] + ": cycles equal at one thread");
    }
    double cons = geomeanOf(consSpeedup), mod = geomeanOf(modSpeedup);
    char what[128];
    std::snprintf(what, sizeof what,
                  "BitVert geomean speedup cons %.3fx in [%.2f, %.2f], "
                  "mod %.3fx in [%.2f, %.2f]",
                  cons, kConsBand[0], kConsBand[1], mod, kModBand[0],
                  kModBand[1]);
    out.check(cons >= kConsBand[0] && cons <= kConsBand[1] &&
                  mod >= kModBand[0] && mod <= kModBand[1],
              what);
    std::fprintf(stderr, "perfbench: paper %s over %d rounds\n", what,
                 rounds);

    // One op is 1k materialized weights carried through a round.
    double ops = weights * 1e-3 * rounds;
    out.e2e("setup_s", median(setupS), "s");
    out.e2e("ops_per_s", ops / elapsed, "1/s");
    out.e2e("cpu_ms_per_op", cpu * 1e3 / ops, "ms");
    out.e2e("latency_ms_p50", median(modelMs), "ms");
    out.e2e("latency_ms_tail", tailOf(modelMs), "ms");

    if (tracer.enabled()) {
        // Per-round sums of each stage, medians over rounds.
        auto perRound = [&](const char *name) {
            std::vector<double> ms = tracer.durationsMs(name);
            std::size_t perR = ms.size() / static_cast<std::size_t>(rounds);
            std::vector<double> sums;
            for (int r = 0; r < rounds; ++r) {
                double sum = 0.0;
                for (std::size_t k = 0; k < perR; ++k)
                    sum += ms[static_cast<std::size_t>(r) * perR + k];
                sums.push_back(sum * 1e-3);
            }
            return median(sums);
        };
        out.layer("models.materialize_s", median(setupS), "s");
        out.layer("core.prune_s", perRound("core.prune"), "s");
        out.layer("accel.simulate_s.bitvert",
                  perRound("accel.simulate.bitvert"), "s");
        out.layer("accel.simulate_s.baselines",
                  perRound("accel.simulate.baseline"), "s");
        out.layer("sim.bitvert_speedup.cons", cons, "x");
        out.layer("sim.bitvert_speedup.mod", mod, "x");
        out.layer("core.bbs_sparsity_min", sparsityMin, "fraction");
    }
}

} // namespace perfbench
