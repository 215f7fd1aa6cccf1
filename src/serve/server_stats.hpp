/**
 * @file
 * Serving telemetry: per-request latency percentiles, the batch-size
 * histogram (did batching actually happen?), rejection counters, and
 * sustained throughput.
 *
 * Since the observability PR the counters and fixed-bucket histograms
 * live in an obs::Registry (relaxed atomics, Prometheus-exposable —
 * see common/metrics.hpp); ServerStats is the serving-layer facade
 * that registers them, keeps the sliding latency ring the percentile
 * estimators need (percentiles want raw samples, not buckets), and
 * still answers the original snapshot() API — callers of
 * InferenceServer::stats() see exactly the fields they always did,
 * plus the estimator-saturation fields below.
 */
#ifndef BBS_SERVE_SERVER_STATS_HPP
#define BBS_SERVE_SERVER_STATS_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.hpp"
#include "serve/request.hpp"

namespace bbs {

/** One consistent reading of the counters. */
struct StatsSnapshot
{
    std::uint64_t completed = 0;        ///< requests served Ok
    std::uint64_t expired = 0;          ///< DeadlineExpired rejections
    std::uint64_t shutdownRejected = 0; ///< ShutDown rejections
    std::uint64_t badRequests = 0;      ///< UnknownModel + BadInput
    std::uint64_t overloaded = 0;       ///< Overloaded admission sheds
    std::uint64_t batches = 0;          ///< batched forward passes

    /**
     * Latency estimators cover a sliding window of the most recent Ok
     * completions; the counters above are exact for the server's whole
     * lifetime. The split matters for long soaks: p50/p99/mean/max
     * describe the last `latencyWindow` completions only, so a latency
     * excursion older than the window has aged out of the percentiles
     * while still being counted in `completed`.
     */
    double p50Us = 0.0; ///< median submit->completion latency
    double p99Us = 0.0;
    double meanUs = 0.0;
    double maxUs = 0.0;
    double meanQueueUs = 0.0;

    /**
     * The same percentiles estimated from the bbs_serve_latency_us
     * histogram buckets (obs::histogramQuantile, linear interpolation
     * within the owning bucket). Bucket-resolution rather than exact,
     * but computed over EVERY completion since start — the full-run
     * complement when latencyDropped shows the raw ring has saturated.
     */
    double p50HistUs = 0.0;
    double p99HistUs = 0.0;

    /** Capacity of the sliding latency window (ServerStats::
     *  kLatencyWindow). */
    std::uint64_t latencyWindow = 0;
    /** Completions whose latency samples have been overwritten (aged
     *  out of the window): completed - min(completed, latencyWindow).
     *  Nonzero means the percentile estimators are saturated — they
     *  describe recent behavior, not the full run. */
    std::uint64_t latencyDropped = 0;

    /** batchHist[n] = how many batches held exactly n requests
     *  (index 0 unused; size maxBatch + 1). */
    std::vector<std::uint64_t> batchHist;
    double meanBatchRows = 0.0;

    /** Requests sitting in the queue when the snapshot was taken (set
     *  by InferenceServer::stats(); 0 for a bare ServerStats). */
    std::uint64_t queueDepth = 0;

    double elapsedS = 0.0;       ///< since construction / reset()
    double throughputRps = 0.0;  ///< completed / elapsedS
};

class ServerStats
{
  public:
    /** Latency samples kept for the percentile estimators: a ring over
     *  the most recent completions, so a long-lived server's memory and
     *  snapshot cost stay bounded no matter how many requests it has
     *  served. Snapshot consumers can detect saturation through
     *  StatsSnapshot::latencyDropped. */
    static constexpr std::size_t kLatencyWindow = 1 << 16;

    /**
     * Registers the serving metrics in @p registry (the owning server's
     * instance registry, so multi-server processes keep exact per-server
     * series); with nullptr a private registry is created (bare
     * ServerStats in tests).
     */
    explicit ServerStats(std::int64_t maxBatch,
                         obs::Registry *registry = nullptr);

    /** Record one Ok completion. */
    void recordCompletion(double queueUs, double totalUs);
    /** Record one executed batch of @p rows requests. */
    void recordBatch(std::int64_t rows);
    /** Record a rejection (terminal non-Ok status). */
    void recordRejection(ServeStatus status);

    StatsSnapshot snapshot() const;

    /** Zero everything and restart the throughput clock. */
    void reset();

  private:
    std::unique_ptr<obs::Registry> owned_; ///< when none was passed in
    obs::Registry &registry_;

    // Registered metrics (stable refs; the registry outlives us).
    obs::Counter &completed_;
    obs::Counter &expired_;
    obs::Counter &shutdownRejected_;
    obs::Counter &badRequests_;
    obs::Counter &overloaded_;
    obs::Counter &batches_;
    obs::Histogram &batchRows_;  ///< unit buckets 1..maxBatch (exact)
    obs::Histogram &latencyUs_;
    obs::Histogram &queueWaitUs_;

    /** Guards the percentile rings and the throughput clock only; the
     *  counters/histograms above are lock-free. */
    mutable std::mutex mutex_;
    std::chrono::steady_clock::time_point start_;
    /** Ring buffers over the last kLatencyWindow Ok completions; the
     *  write position is ringWrites_ % kLatencyWindow. */
    std::vector<double> latenciesUs_;
    std::vector<double> queueUs_;
    std::uint64_t ringWrites_ = 0;
};

} // namespace bbs

#endif // BBS_SERVE_SERVER_STATS_HPP
