// Runs one workload on lsa and then orec, each on a fresh engine and time
// base built through the public registries, and turns the phases into
// named metrics. A workload W provides:
//
//   kTimeBase, kSetupReps            registry spec and set-up repetitions
//   kRounds                          measured rounds per engine (untraced)
//   kDsLayer                         runs through ds:: containers
//   Inputs(const Options&)           seeded inputs, built once per run
//   Data<P>(const P&, const Inputs&, build_seed)   the data, per engine
//   Worker<P>(pol, data, tid, seed, WorkerResult&)   op(OpSink&), stats()
//   Sampler<P>(Data<P>&)             main-thread sampling during a phase
//   check(data, phase, failures)     final-state oracles; returns #checks

#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace stmbench {

// Warm-up before each measured window: caches fill and the engines'
// per-thread state (access-set pools, stamp blocks) is allocated.
inline constexpr double kWarmupSeconds = 0.1;

// The attribution check's tolerance: begin + attempts + gaps + commit
// self times plus time-base time must cover run() time within 10%.
inline constexpr double kAttributionTolerance = 0.10;

struct Built {
    // Declared before the engine: the engine borrows the decorator.
    std::unique_ptr<TracedTimeBase> traced;
    stm::Engine eng;
};

// Builds engine `name` over registry base `tb_spec`, optionally through
// the tracing decorator, and checks that what was built is what was asked
// for: the concrete adapter type and the base the engine actually holds.
// A mismatch throws instead of silently measuring another configuration.
template <typename A>
Built build_engine(const std::string& name, const std::string& tb_spec,
                   bool traced, SeriesReport& s) {
    Built b;
    tb::TimeBase base = tb::make(tb_spec);
    const std::string want_tb = base.spec();
    if (traced) {
        b.traced = std::make_unique<TracedTimeBase>(base);
        base = tb::TimeBase::wrap_external(*b.traced, "traced:" + want_tb);
    }
    b.eng = stm::make(name, base);
    A* a = stm::get_if<A>(b.eng);
    if (a == nullptr || b.eng.name() != name)
        throw std::runtime_error("engine '" + name + "' built as '" +
                                 b.eng.name() + "'");
    const tb::TimeBase& held = a->stm().time_base();
    const std::string got_tb =
        traced ? b.traced->inner().spec() : held.spec();
    if (got_tb != want_tb ||
        (traced && held.spec() != "traced:" + want_tb))
        throw std::runtime_error("engine '" + name + "' holds time base '" +
                                 held.spec() + "', asked for '" + want_tb +
                                 "'");
    s.engine_spec = b.eng.spec();
    s.timebase_spec = got_tb;
    return b;
}

struct EpochSample {
    std::uint64_t retired = 0, freed = 0, advances = 0, limbo_peak = 0;
};

// A sampler's start/tick/stop run on the main thread around and during
// the measured window (it is otherwise idle, so sampling costs the
// workers nothing). This one is for workloads without an epoch domain.
struct NullSampler {
    template <typename D>
    explicit NullSampler(D&) {}
    void start() {}
    void tick() {}
    void stop() {}
    EpochSample result() const { return {}; }
};

struct PhaseOutcome {
    PhaseResult r;
    EpochSample epochs;
};

// Builds the data `reps` times (set-up time of each build recorded),
// measures on the last build for `secs`, then runs the final-state
// oracles. Every operation, warm-up included, counts as attempted.
template <typename W, typename A, typename P, typename MakePolicy>
PhaseOutcome run_on(const Options& opt, const typename W::Inputs& in,
                    SeriesReport& s, unsigned series, bool traced,
                    unsigned reps, double secs, MakePolicy make_policy) {
    PhaseOutcome out;
    TxTrace setup_trace;  // traced policies record set-up spans here
    t_trace = &setup_trace;
    for (unsigned rep = 0; rep < reps; ++rep) {
        // A seeded pad ahead of the build moves the engine's shared hot
        // lines (time-base counter, epoch stripes, gate, orec table) to a
        // new heap offset each build; otherwise the allocator hands every
        // round the addresses the last one freed, and which cache slice
        // homes those contended lines would be fixed for the whole process.
        Rng pad_rng(stream_seed(opt.seed, series, kBuildPadStream + rep));
        const std::unique_ptr<char[]> pad(
            new char[64 * (1 + pad_rng.below(1024))]);
        const std::uint64_t t0 = wall_ns();
        Built b = build_engine<A>(s.engine, W::kTimeBase, traced, s);
        const P pol = make_policy(b);
        typename W::template Data<P> data(
            pol, in, stream_seed(opt.seed, series, kPlacementStream + rep));
        s.setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
        if (rep + 1 < reps) continue;

        typename W::template Sampler<P> sampler(data);
        out.r = run_phase(
            PhaseTiming{opt.threads, kWarmupSeconds, secs},
            [&](unsigned tid, WorkerResult& r) {
                return typename W::template Worker<P>(
                    pol, data, tid, stream_seed(opt.seed, series, tid), r);
            },
            sampler);
        out.epochs = sampler.result();
        for (const std::string& e : out.r.errors)
            s.failures.push_back(s.engine + ": worker error: " + e);
        const std::size_t before = s.failures.size();
        const unsigned checks = W::check(data, out.r, s.failures);
        s.attempted += out.r.commits_all + out.r.failed_all + checks;
        s.failed += out.r.failed_all + (s.failures.size() - before) +
                    out.r.errors.size();
    }
    t_trace = nullptr;
    return out;
}

inline double ratio(double num, double den) {
    return den == 0 ? 0 : num / den;
}

// The per-layer metrics of one engine from its three phases: untraced
// facade `u`, traced facade `t` and the untraced direct twin `d`.
inline std::vector<Metric> layer_metrics(const PhaseOutcome& u,
                                         const PhaseOutcome& t,
                                         const PhaseOutcome& d, bool ds_layer,
                                         bool& attribution_ok,
                                         double& attributed_share) {
    const PhaseResult& r = t.r;
    const TxTrace& tr = r.trace;
    const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
    const auto ns = [&](std::uint64_t ticks_) {
        return f(ticks_) * r.ns_per_tick;
    };
    const double txns = f(std::max<std::uint64_t>(tr.txns, 1));
    const auto per_tx = [&](double v) { return v / txns; };
    const StatsDelta& st = r.stats;
    const TbAcc& tb = r.tb;

    // Attribution: self times of the run() partition plus all time-base
    // time (measured by the decorator over the whole window, not per
    // window) against the run() spans measured around the call.
    const double self = ns(tr.begin_ticks - tr.tb_begin) +
                        ns(tr.attempt_ticks - tr.tb_attempt) +
                        ns(tr.gap_ticks - tr.tb_gap) +
                        ns(tr.commit_ticks - tr.tb_commit);
    attributed_share = ratio(self + ns(tb.total_ticks()), ns(tr.run_ticks));
    attribution_ok = tr.txns > 0 &&
                     std::abs(attributed_share - 1.0) <= kAttributionTolerance;

    const double ops = f(std::max<std::uint64_t>(r.ops, 1));
    const auto kind_ns = [&](unsigned k) {
        return ds_layer ? ratio(ns(r.kind_ticks[k]), f(r.kind_ops[k])) : 0;
    };
    const double u_kops = f(std::max<std::uint64_t>(u.r.ops, 1)) / 1e3;
    const EpochSample& ep = u.epochs;
    const std::uint64_t wasted =
        tr.attempt_ticks - tr.last_attempt_ticks + tr.gap_ticks;

    return {
        {"timebase.new_ts_per_tx", per_tx(f(tb.new_ts_n)), "count"},
        {"timebase.new_ts_ns", ratio(ns(tb.new_ts_ticks), f(tb.new_ts_n)),
         "ns"},
        {"timebase.get_time_per_tx", per_tx(f(tb.get_time_n)), "count"},
        {"timebase.get_time_ns",
         ratio(ns(tb.get_time_ticks), f(tb.get_time_n)), "ns"},
        {"timebase.share", ratio(f(tb.total_ticks()), f(tr.run_ticks)),
         "ratio"},
        {"core.read_ns", ratio(ns(tr.load_ticks), f(tr.sampled_loads)), "ns"},
        {"core.write_ns", ratio(ns(tr.store_ticks), f(tr.sampled_stores)),
         "ns"},
        {"core.begin_ns", per_tx(ns(tr.begin_ticks - tr.tb_begin)), "ns"},
        {"core.commit_ns", per_tx(ns(tr.commit_ticks - tr.tb_commit)), "ns"},
        {"core.attempts_per_tx", per_tx(f(tr.attempts)), "count"},
        {"core.wasted_ns_per_tx", per_tx(ns(wasted)), "ns"},
        {"core.backoff_ns_per_tx", per_tx(f(st.backoff_us) * 1e3), "ns"},
        {"core.extensions_per_tx", per_tx(f(st.extensions)), "count"},
        {"core.extension_fast_hit_ratio",
         ratio(f(st.extension_fast_hits), f(st.extensions)), "ratio"},
        {"core.stripe_walks_per_tx", per_tx(f(st.stripe_walks)), "count"},
        {"core.ro_commit_share", ratio(f(st.ro_commits), f(st.commits)),
         "ratio"},
        {"core.escalations_per_mtx", per_tx(f(st.escalations)) * 1e6,
         "count"},
        {"stm.facade_over_direct", ratio(u.r.mtx_s(), d.r.mtx_s()), "ratio"},
        {"ds.get_ns", kind_ns(0), "ns"},
        {"ds.put_ns", kind_ns(1), "ns"},
        {"ds.erase_ns", kind_ns(2), "ns"},
        {"ds.loads_per_op", ds_layer ? f(tr.loads) / ops : 0, "count"},
        {"epochs.retired_per_kop", f(ep.retired) / u_kops, "count"},
        {"epochs.freed_per_retired", ratio(f(ep.freed), f(ep.retired)),
         "ratio"},
        {"epochs.limbo_peak", f(ep.limbo_peak), "count"},
        {"epochs.advances_per_kop", f(ep.advances) / u_kops, "count"},
        {"trace.overhead", ratio(u.r.mtx_s(), t.r.mtx_s()), "ratio"},
    };
}

inline double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Untraced run: W::kRounds rounds, each building both engines afresh and
// measuring lsa then orec for seconds / (2 kRounds). Every end-to-end
// figure is the median over rounds. A round is one engine instance with
// its own seeded layout; the median over many instances repeats where one
// instance's figure would carry its layout's luck and the host's noise.
using Facade = ds::EnginePolicy;

inline Facade facade_of(Built& b) { return Facade(b.eng); }

template <typename W, typename A>
PhaseOutcome measure_round(const Options& opt, const typename W::Inputs& in,
                           SeriesReport& s, unsigned stream) {
    return run_on<W, A, Facade>(opt, in, s, stream, false, W::kSetupReps,
                                opt.seconds / (2.0 * W::kRounds), facade_of);
}

// The tail is reported at p95, not p99. On disjoint-update, lsa over
// batched:B=8 retries 0.5-3% of its transactions for freshness, and that
// share moves with host load. Quantiles near it (p99, p99.5) jump between
// the first-attempt and the retried population from run to run; p95 stays
// clear of it. The retry cost shows in mtx_s and the traced core.* metrics.
inline constexpr double kTailQuantile = 0.95;

inline void summarize_rounds(SeriesReport& s,
                             const std::vector<PhaseOutcome>& rounds) {
    std::vector<double> mtx, p50, tail;
    s.latency_samples = ~std::uint64_t{0};
    for (const PhaseOutcome& o : rounds) {
        mtx.push_back(o.r.mtx_s());
        p50.push_back(o.r.quantile_us(0.50));
        tail.push_back(o.r.quantile_us(kTailQuantile));
        s.latency_samples = std::min(s.latency_samples, o.r.hist.count());
    }
    s.metrics = {
        {"mtx_s", median(mtx), "Mtx/s"},
        {"p50_us", median(p50), "us"},
        {"p95_us", median(tail), "us"},
    };
}

// Traced run: equal thirds of the engine's half of the time for the
// untraced facade, the traced facade and the direct (compile-time
// dispatch) twin.
template <typename W, typename A>
void traced_series(const Options& opt, const typename W::Inputs& in,
                   SeriesReport& s, unsigned stream) {
    const double third = opt.seconds / 6;
    const PhaseOutcome u = run_on<W, A, Facade>(opt, in, s, stream, false, 1,
                                                third, facade_of);
    using Traced = TracedPolicy<Facade>;
    const PhaseOutcome t = run_on<W, A, Traced>(
        opt, in, s, stream, true, 1, third,
        [](Built& b) { return Traced(Facade(b.eng)); });
    using Direct = ds::DirectPolicy<A>;
    const PhaseOutcome d = run_on<W, A, Direct>(
        opt, in, s, stream, false, 1, third,
        [](Built& b) { return Direct(*stm::get_if<A>(b.eng)); });
    s.metrics = layer_metrics(u, t, d, W::kDsLayer, s.attribution_ok,
                              s.attributed_share);
    ++s.attempted;
    if (!s.attribution_ok) {
        ++s.failed;
        s.failures.push_back(s.engine + ": attribution check failed: spans "
                             "cover " + std::to_string(s.attributed_share) +
                             " of run() time");
    }
    s.latency_samples = t.r.hist.count();
}

template <typename W>
WorkloadReport run_workload(const Options& opt) {
    const typename W::Inputs in(opt);
    WorkloadReport rep;
    rep.series.resize(2);
    SeriesReport& lsa = rep.series[0];
    SeriesReport& orec = rep.series[1];
    lsa.engine = "lsa";
    orec.engine = "orec";
    if (opt.trace) {
        traced_series<W, stm::LsaAdapter>(opt, in, lsa, 0);
        traced_series<W, stm::OrecAdapter>(opt, in, orec, 1);
        return rep;
    }
    std::vector<PhaseOutcome> lsa_rounds, orec_rounds;
    for (unsigned r = 0; r < W::kRounds; ++r) {
        lsa_rounds.push_back(
            measure_round<W, stm::LsaAdapter>(opt, in, lsa, 2 * r));
        orec_rounds.push_back(
            measure_round<W, stm::OrecAdapter>(opt, in, orec, 2 * r + 1));
    }
    summarize_rounds(lsa, lsa_rounds);
    summarize_rounds(orec, orec_rounds);
    return rep;
}

}  // namespace stmbench
