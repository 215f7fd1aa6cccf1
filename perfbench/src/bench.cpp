#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>

namespace perfbench {

std::int64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

double
percentileOf(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
median(std::vector<double> xs)
{
    return percentileOf(std::move(xs), 50.0);
}

double
tailOf(const std::vector<double> &xs)
{
    if (xs.size() < 40)
        return median(xs);
    double beyond = 10.0 / static_cast<double>(xs.size());
    return percentileOf(xs, std::min(99.0, 100.0 * (1.0 - beyond)));
}

double
geomeanOf(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(xs.size()));
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

// ---------------------------------------------------------------- Tracer

std::int32_t
Tracer::open(const char *name, std::uint64_t id)
{
    Span s;
    s.name = name;
    s.startNs = nowNs();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.id = id;
    auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(index);
    return index;
}

void
Tracer::close(std::int32_t index)
{
    spans_[static_cast<std::size_t>(index)].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

void
Tracer::record(const char *name, std::int64_t startNs, std::int64_t endNs,
               std::uint64_t id)
{
    if (!enabled_)
        return;
    Span s;
    s.name = name;
    s.startNs = startNs;
    s.endNs = endNs;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.id = id;
    spans_.push_back(s);
}

std::vector<double>
Tracer::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-6);
    return out;
}

std::vector<double>
Tracer::selfTimesMs() const
{
    // Children of one parent may overlap (explicitly recorded request
    // spans), so subtract the union of their intervals, not the sum.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs,
                                                                  s.endNs);
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Merge the sorted, clipped intervals; [curStart, curEnd) is the
        // run being merged (empty until the first interval).
        std::int64_t covered = 0, curStart = 0, curEnd = 0;
        for (auto [a, b] : iv) {
            a = std::max(a, spans_[i].startNs);
            b = std::min(b, spans_[i].endNs);
            if (b <= a)
                continue;
            if (curEnd == curStart || a > curEnd) {
                covered += curEnd - curStart;
                curStart = a;
                curEnd = b;
            } else {
                curEnd = std::max(curEnd, b);
            }
        }
        covered += curEnd - curStart;
        self[i] = static_cast<double>(spans_[i].endNs - spans_[i].startNs -
                                      covered) *
                  1e-6;
    }
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (const Span &s : spans_) {
        out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
            << ",\"id\":" << s.id << "}\n";
    }
    return static_cast<bool>(out);
}

void
Tracer::printSummary() const
{
    struct Row
    {
        std::int64_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };
    std::map<std::string, Row> rows;
    std::vector<double> self = selfTimesMs();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Row &r = rows[spans_[i].name];
        ++r.count;
        r.totalMs +=
            static_cast<double>(spans_[i].endNs - spans_[i].startNs) * 1e-6;
        r.selfMs += self[i];
    }
    std::fprintf(stderr, "%-34s %9s %12s %12s\n", "span", "count",
                 "total ms", "self ms");
    for (const auto &[name, r] : rows)
        std::fprintf(stderr, "%-34s %9lld %12.3f %12.3f\n", name.c_str(),
                     static_cast<long long>(r.count), r.totalMs, r.selfMs);
}

// --------------------------------------------------------------- Outcome

bool
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::cerr << "perfbench: FAILED " << what << "\n";
    }
    return ok;
}

void
Outcome::merge(const Outcome &other)
{
    attempted += other.attempted;
    failed += other.failed;
    for (const auto &[name, m] : other.layers)
        layers[name] = m;
}

} // namespace perfbench
