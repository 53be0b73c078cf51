// Shared machinery of the end-to-end STM benchmark: a cycle clock, the
// log-linear latency histogram, the tracing decorators that time calls
// into each layer's public functions from outside the library, and the
// closed-loop phase runner. Everything here sits on the public API
// (stm::make, tb::TimeBase::wrap_external, ds::*Policy, TxStats).

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include <chronostm/ds/policy.hpp>
#include <chronostm/stm/facade.hpp>
#include <chronostm/timebase/facade.hpp>
#include <chronostm/util/affinity.hpp>
#include <chronostm/util/epochs.hpp>
#include <chronostm/util/rng.hpp>

namespace stmbench {

using namespace chronostm;

// ---- clocks ------------------------------------------------------------

// Cycle counter for per-transaction spans (a few ns per read); converted
// to ns with a ratio measured against steady_clock over each phase.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

inline std::uint64_t wall_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// SplitMix64: derives every per-thread stream and input from the seed.
inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// One stream per (series, tid): workers use their thread id; the build
// and layout streams below use ids no thread has.
inline std::uint64_t stream_seed(std::uint64_t seed, unsigned series,
                                 unsigned tid) {
    return mix64(mix64(seed) ^ (std::uint64_t{series} << 32) ^ tid);
}
inline constexpr unsigned kPlacementStream = 1000;  // + build repetition
inline constexpr unsigned kBuildPadStream = 3000;   // + build repetition

// ---- latency histogram -------------------------------------------------

// Log-linear buckets: exact below 64, then 64 linear sub-buckets per
// power of two, so a bucket is at most 1/64 (~1.6%) of its lower edge
// wide. Power-of-two buckets would move tail quantiles in 2x steps; this
// keeps run-to-run repeats of p50/p95 within the bucket width. Quantiles
// interpolate linearly inside the bucket so they are not quantized.
class LatencyHistogram {
 public:
    static constexpr unsigned kSubBits = 6;
    static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
    static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

    LatencyHistogram() : counts_(kBuckets, 0) {}

    void record(std::uint64_t v) {
        ++counts_[index(v)];
        ++n_;
    }

    void merge(const LatencyHistogram& o) {
        for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
        n_ += o.n_;
    }

    std::uint64_t count() const { return n_; }

    // Value at quantile q in [0, 1]; 0 when empty.
    double quantile(double q) const {
        if (n_ == 0) return 0;
        const double rank = std::max(1.0, q * static_cast<double>(n_));
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            if (counts_[i] == 0) continue;
            if (static_cast<double>(cum + counts_[i]) >= rank) {
                const double frac = (rank - static_cast<double>(cum) - 0.5) /
                                    static_cast<double>(counts_[i]);
                return static_cast<double>(lower(i)) +
                       static_cast<double>(width(i)) *
                           std::clamp(frac, 0.0, 1.0);
            }
            cum += counts_[i];
        }
        return static_cast<double>(lower(kBuckets - 1));
    }

 private:
    static std::size_t index(std::uint64_t v) {
        if (v < kSub) return static_cast<std::size_t>(v);
        const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
        const std::uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
        return static_cast<std::size_t>((e - kSubBits + 1) * kSub + sub);
    }

    static std::uint64_t lower(std::size_t i) {
        if (i < kSub) return i;
        const unsigned e = static_cast<unsigned>(i / kSub) + kSubBits - 1;
        const std::uint64_t sub = i % kSub;
        return (kSub + sub) << (e - kSubBits);
    }

    static std::uint64_t width(std::size_t i) {
        if (i < kSub) return 1;
        const unsigned e = static_cast<unsigned>(i / kSub) + kSubBits - 1;
        return std::uint64_t{1} << (e - kSubBits);
    }

    std::vector<std::uint64_t> counts_;
    std::uint64_t n_ = 0;
};

// ---- time-base tracing -------------------------------------------------

// Per-thread time-base call counters. Engines draw on the calling
// thread's clock, so a thread_local accumulator attributes every call to
// the worker that made it.
struct TbAcc {
    std::uint64_t new_ts_n = 0, new_ts_ticks = 0;
    std::uint64_t get_time_n = 0, get_time_ticks = 0;

    std::uint64_t total_ticks() const { return new_ts_ticks + get_time_ticks; }
    TbAcc operator-(const TbAcc& o) const {
        return {new_ts_n - o.new_ts_n, new_ts_ticks - o.new_ts_ticks,
                get_time_n - o.get_time_n, get_time_ticks - o.get_time_ticks};
    }
    void operator+=(const TbAcc& o) {
        new_ts_n += o.new_ts_n;
        new_ts_ticks += o.new_ts_ticks;
        get_time_n += o.get_time_n;
        get_time_ticks += o.get_time_ticks;
    }
};

inline thread_local TbAcc t_tb;

// Decorator handed to stm::make through tb::TimeBase::wrap_external: times
// every get_time/get_new_ts of the wrapped registry base. Must outlive the
// engine built on it.
class TracedTimeBase {
 public:
    explicit TracedTimeBase(tb::TimeBase inner) : inner_(std::move(inner)) {}

    class ThreadClock {
     public:
        explicit ThreadClock(tb::ThreadClock c) : c_(std::move(c)) {}

        std::uint64_t get_time() {
            const std::uint64_t t0 = ticks();
            const std::uint64_t v = c_.get_time();
            t_tb.get_time_ticks += ticks() - t0;
            ++t_tb.get_time_n;
            return v;
        }

        std::uint64_t get_new_ts() {
            const std::uint64_t t0 = ticks();
            const std::uint64_t v = c_.get_new_ts();
            t_tb.new_ts_ticks += ticks() - t0;
            ++t_tb.new_ts_n;
            return v;
        }

     private:
        tb::ThreadClock c_;
    };

    ThreadClock make_thread_clock() {
        return ThreadClock(inner_.make_thread_clock());
    }
    std::uint64_t deviation() const { return inner_.deviation(); }
    const tb::TimeBase& inner() const { return inner_; }

 private:
    tb::TimeBase inner_;
};

// ---- transaction tracing -----------------------------------------------

// Per-thread spans of the traced phase, in ticks. One run() call is
// partitioned into: begin (call -> first functor entry), attempts (functor
// entry -> exit, committed and aborted), gaps (aborted exit -> next entry:
// abort handling, backoff, re-begin) and commit (last exit -> return).
// tb_* hold the time-base child time inside each window.
struct TxTrace {
    std::uint64_t txns = 0, attempts = 0;
    std::uint64_t run_ticks = 0, begin_ticks = 0, attempt_ticks = 0;
    std::uint64_t last_attempt_ticks = 0, gap_ticks = 0, commit_ticks = 0;
    std::uint64_t tb_begin = 0, tb_attempt = 0, tb_gap = 0, tb_commit = 0;
    std::uint64_t loads = 0, stores = 0;
    std::uint64_t sampled_loads = 0, load_ticks = 0;
    std::uint64_t sampled_stores = 0, store_ticks = 0;

    void operator+=(const TxTrace& o) {
        txns += o.txns;
        attempts += o.attempts;
        run_ticks += o.run_ticks;
        begin_ticks += o.begin_ticks;
        attempt_ticks += o.attempt_ticks;
        last_attempt_ticks += o.last_attempt_ticks;
        gap_ticks += o.gap_ticks;
        commit_ticks += o.commit_ticks;
        tb_begin += o.tb_begin;
        tb_attempt += o.tb_attempt;
        tb_gap += o.tb_gap;
        tb_commit += o.tb_commit;
        loads += o.loads;
        stores += o.stores;
        sampled_loads += o.sampled_loads;
        load_ticks += o.load_ticks;
        sampled_stores += o.sampled_stores;
        store_ticks += o.store_ticks;
    }
};

inline thread_local TxTrace* t_trace = nullptr;

// Per-access spans are sampled: timing every access would dominate the
// short transactions (one in kSampleEvery transactions is timed).
inline constexpr std::uint64_t kSampleEvery = 16;

template <typename Tx>
class TracedTx {
 public:
    TracedTx(Tx& tx, TxTrace& tr, bool sample)
        : tx_(tx), tr_(tr), sample_(sample) {}

    std::uint64_t load(void* p) {
        ++tr_.loads;
        if (!sample_) return tx_.load(p);
        const std::uint64_t tb0 = t_tb.total_ticks();
        const std::uint64_t t0 = ticks();
        const std::uint64_t v = tx_.load(p);
        tr_.load_ticks += (ticks() - t0) - (t_tb.total_ticks() - tb0);
        ++tr_.sampled_loads;
        return v;
    }

    void store(void* p, std::uint64_t v) {
        ++tr_.stores;
        if (!sample_) return tx_.store(p, v);
        const std::uint64_t tb0 = t_tb.total_ticks();
        const std::uint64_t t0 = ticks();
        tx_.store(p, v);
        tr_.store_ticks += (ticks() - t0) - (t_tb.total_ticks() - tb0);
        ++tr_.sampled_stores;
    }

 private:
    Tx& tx_;
    TxTrace& tr_;
    bool sample_;
};

// Policy decorator (the ds::*Policy shape): spans around the wrapped
// policy's run() and its functor, per-access spans through TracedTx.
// Functors must return void; results travel through captures.
template <typename P>
class TracedPolicy {
 public:
    using Ctx = typename P::Ctx;

    explicit TracedPolicy(P inner) : inner_(std::move(inner)) {}

    Ctx make_context() const { return inner_.make_context(); }

    template <typename F>
    void run(Ctx& ctx, F&& f) const {
        TxTrace& tr = *t_trace;
        const bool sample = (tr.txns++ % kSampleEvery) == 0;
        struct Mark {
            std::uint64_t t, tb;
        };
        const Mark start{ticks(), t_tb.total_ticks()};
        Mark entry = start, exit = start;
        std::uint64_t attempts = 0;
        struct ExitStamp {
            Mark& exit;
            const Mark& entry;
            TxTrace& tr;
            ~ExitStamp() {
                exit = Mark{ticks(), t_tb.total_ticks()};
                tr.attempt_ticks += exit.t - entry.t;
                tr.tb_attempt += exit.tb - entry.tb;
            }
        };
        inner_.run(ctx, [&](auto& tx) {
            const Mark now{ticks(), t_tb.total_ticks()};
            if (attempts++ == 0) {
                tr.begin_ticks += now.t - start.t;
                tr.tb_begin += now.tb - start.tb;
            } else {
                tr.gap_ticks += now.t - exit.t;
                tr.tb_gap += now.tb - exit.tb;
            }
            entry = now;
            ExitStamp stamp{exit, entry, tr};
            TracedTx<std::remove_reference_t<decltype(tx)>> ttx(tx, tr,
                                                                 sample);
            f(ttx);
        });
        const Mark end{ticks(), t_tb.total_ticks()};
        tr.commit_ticks += end.t - exit.t;
        tr.tb_commit += end.tb - exit.tb;
        tr.run_ticks += end.t - start.t;
        tr.last_attempt_ticks += exit.t - entry.t;
        tr.attempts += attempts;
    }

    std::size_t slot_size() const { return inner_.slot_size(); }
    std::size_t slot_align() const { return inner_.slot_align(); }
    void slot_init(void* p, std::uint64_t v) const { inner_.slot_init(p, v); }
    void slot_destroy(void* p) const { inner_.slot_destroy(p); }
    std::uint64_t slot_peek(const void* p) const {
        return inner_.slot_peek(p);
    }
    stm::Engine::SlotDtor slot_dtor() const { return inner_.slot_dtor(); }

 private:
    P inner_;
};

// ---- slot storage ------------------------------------------------------

// Blocks of transactional slots laid out at runtime by the policy's slot
// size (the engine decides what a slot is). Each block is allocated
// separately, so per-worker blocks share no cache line, and starts at a
// seeded cache-line offset inside a 1 MiB-aligned window. The engines
// index their metadata by address bits below 2^20 (orec table: bits 4-19;
// epoch-filter stripes: bits 14-19), so where blocks fall decides orec
// aliasing and which blocks share a stripe. Placing them from the seed
// makes every build sample a layout instead of inheriting one from the
// allocator and address-space randomization, which would fix it per
// process.
template <typename P>
class SlotBlocks {
 public:
    static constexpr std::size_t kWindow = std::size_t{1} << 20;

    SlotBlocks(const P& pol, unsigned blocks, unsigned per_block,
               std::uint64_t init, std::uint64_t placement_seed)
        : pol_(pol), per_block_(per_block) {
        const std::size_t a = std::max<std::size_t>(pol_.slot_align(), 8);
        stride_ = (pol_.slot_size() + a - 1) / a * a;
        Rng rng(placement_seed);
        for (unsigned b = 0; b < blocks; ++b) {
            char* base = static_cast<char*>(::operator new(
                stride_ * per_block_ + kWindow, std::align_val_t{kWindow}));
            bases_.push_back(base);
            blocks_.push_back(base + 64 * rng.below(kWindow / 64));
            for (unsigned i = 0; i < per_block_; ++i)
                pol_.slot_init(slot(b, i), init);
        }
    }
    SlotBlocks(const SlotBlocks&) = delete;
    SlotBlocks& operator=(const SlotBlocks&) = delete;
    ~SlotBlocks() {
        for (unsigned b = 0; b < blocks_.size(); ++b) {
            for (unsigned i = 0; i < per_block_; ++i)
                pol_.slot_destroy(slot(b, i));
            ::operator delete(bases_[b], std::align_val_t{kWindow});
        }
    }

    void* slot(unsigned b, unsigned i) const {
        return blocks_[b] + static_cast<std::size_t>(i) * stride_;
    }

    // Quiesced state only.
    std::uint64_t sum() const {
        std::uint64_t s = 0;
        for (unsigned b = 0; b < blocks_.size(); ++b)
            for (unsigned i = 0; i < per_block_; ++i)
                s += pol_.slot_peek(slot(b, i));
        return s;
    }

 private:
    P pol_;
    unsigned per_block_;
    std::size_t stride_ = 0;
    std::vector<char*> bases_, blocks_;
};

// ---- closed-loop phase runner ------------------------------------------

// What a worker records during the measured window. Op kinds let a
// workload split latency by operation (hashmap get/put/erase).
struct OpSink {
    static constexpr unsigned kKinds = 3;
    LatencyHistogram hist;
    std::uint64_t ops = 0;
    std::uint64_t kind_ops[kKinds] = {}, kind_ticks[kKinds] = {};

    void record(unsigned kind, std::uint64_t dt) {
        hist.record(dt);
        ++ops;
        ++kind_ops[kind];
        kind_ticks[kind] += dt;
    }
};

// TxStats counters the benchmark uses, as plain differences.
struct StatsDelta {
    std::uint64_t commits = 0, aborts = 0, extensions = 0,
                  extension_fast_hits = 0, stripe_walks = 0, ro_commits = 0,
                  backoff_us = 0, escalations = 0;

    static StatsDelta between(const TxStats& a, const TxStats& b) {
        StatsDelta d;
        d.commits = b.commits() - a.commits();
        d.aborts = b.aborts() - a.aborts();
        d.extensions = b.extensions - a.extensions;
        d.extension_fast_hits = b.extension_fast_hits - a.extension_fast_hits;
        d.stripe_walks = b.stripe_walks - a.stripe_walks;
        d.ro_commits = b.ro_commits - a.ro_commits;
        d.backoff_us = b.backoff_us - a.backoff_us;
        d.escalations = b.escalations - a.escalations;
        return d;
    }
    void operator+=(const StatsDelta& o) {
        commits += o.commits;
        aborts += o.aborts;
        extensions += o.extensions;
        extension_fast_hits += o.extension_fast_hits;
        stripe_walks += o.stripe_walks;
        ro_commits += o.ro_commits;
        backoff_us += o.backoff_us;
        escalations += o.escalations;
    }
};

// Per-worker results. The oracle counters cover warmup too: final-state
// oracles see every committed operation.
struct WorkerResult {
    OpSink sink;
    StatsDelta stats;
    TbAcc tb;
    TxTrace trace;
    std::uint64_t commits_all = 0, failed_all = 0;
    std::uint64_t inserted = 0, erased = 0;
    std::string error;
};

struct PhaseResult {
    double seconds = 0, ns_per_tick = 1;
    LatencyHistogram hist;
    std::uint64_t ops = 0;
    std::uint64_t kind_ops[OpSink::kKinds] = {};
    std::uint64_t kind_ticks[OpSink::kKinds] = {};
    StatsDelta stats;
    TbAcc tb;
    TxTrace trace;
    std::uint64_t commits_all = 0, failed_all = 0, inserted = 0, erased = 0;
    std::vector<std::string> errors;

    double mtx_s() const { return static_cast<double>(ops) / seconds / 1e6; }
    double quantile_us(double q) const {
        return hist.quantile(q) * ns_per_tick / 1e3;
    }
};

struct PhaseTiming {
    unsigned threads;
    double warmup_s, measure_s;
};

// Closed loop: each worker starts its next operation when the previous
// one returns. make_worker(tid, result) runs ON the worker thread so
// contexts live where they are used; the returned worker exposes
// op(OpSink&) and stats().
template <typename MakeWorker, typename Sampler>
PhaseResult run_phase(const PhaseTiming& pt, MakeWorker&& make_worker,
                      Sampler& sampler) {
    enum : int { kWarm, kMeasure, kStop };
    std::atomic<int> phase{kWarm};
    std::atomic<unsigned> ready{0};
    std::vector<WorkerResult> res(pt.threads);
    std::vector<std::thread> threads;
    threads.reserve(pt.threads);
    for (unsigned tid = 0; tid < pt.threads; ++tid) {
        threads.emplace_back([&, tid] {
            WorkerResult& r = res[tid];
            TxTrace trace;
            t_trace = &trace;
            bool counted = false;
            try {
                pin_to_cpu(tid);
                auto w = make_worker(tid, r);
                ready.fetch_add(1);
                counted = true;
                {
                    OpSink warm;
                    while (phase.load(std::memory_order_relaxed) == kWarm)
                        w.op(warm);
                }
                const TxStats s0 = w.stats();
                const TbAcc tb0 = t_tb;
                trace = TxTrace{};
                while (phase.load(std::memory_order_relaxed) == kMeasure)
                    w.op(r.sink);
                r.stats = StatsDelta::between(s0, w.stats());
                r.tb = t_tb - tb0;
                r.trace = trace;
            } catch (const std::exception& e) {
                r.error = e.what();
                if (!counted) ready.fetch_add(1);
            }
            t_trace = nullptr;
        });
    }
    while (ready.load() < pt.threads) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::duration<double>(pt.warmup_s));

    const std::uint64_t w0 = wall_ns(), k0 = ticks();
    phase.store(kMeasure);
    sampler.start();
    const std::uint64_t deadline =
        w0 + static_cast<std::uint64_t>(pt.measure_s * 1e9);
    while (wall_ns() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        sampler.tick();
    }
    phase.store(kStop);
    const std::uint64_t w1 = wall_ns(), k1 = ticks();
    sampler.stop();
    for (auto& t : threads) t.join();

    PhaseResult p;
    p.seconds = static_cast<double>(w1 - w0) / 1e9;
    p.ns_per_tick = static_cast<double>(w1 - w0) /
                    static_cast<double>(std::max<std::uint64_t>(k1 - k0, 1));
    for (const WorkerResult& r : res) {
        if (!r.error.empty()) p.errors.push_back(r.error);
        p.hist.merge(r.sink.hist);
        p.ops += r.sink.ops;
        for (unsigned k = 0; k < OpSink::kKinds; ++k) {
            p.kind_ops[k] += r.sink.kind_ops[k];
            p.kind_ticks[k] += r.sink.kind_ticks[k];
        }
        p.stats += r.stats;
        p.tb += r.tb;
        p.trace += r.trace;
        p.commits_all += r.commits_all;
        p.failed_all += r.failed_all;
        p.inserted += r.inserted;
        p.erased += r.erased;
    }
    return p;
}

// ---- series plumbing ---------------------------------------------------

struct Options {
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned threads = 1;
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

// One engine's results on one workload.
struct SeriesReport {
    std::string engine;             // registry name asked for
    std::string engine_spec;        // spec the engine reports
    std::string timebase_spec;      // base the engine actually holds
    std::vector<double> setup_s;    // one entry per build
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> metrics;    // prefixed "<engine>."
    std::uint64_t latency_samples = 0;
    bool attribution_ok = true;
    double attributed_share = 0;  // traced run: spans / run() time
};

struct WorkloadReport {
    std::vector<SeriesReport> series;
};

}  // namespace stmbench
