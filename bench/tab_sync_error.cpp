// Section 4.3 study: "Synchronization errors shrink the object versions'
// validity ranges." We sweep the published deviation bound of an
// externally-synchronized time base and measure abort rates and throughput
// for multi-version and single-version LSA-RT.
//
// Paper's observations to reproduce:
//   * multi-version STMs lose validity at BOTH ends of old versions ->
//     abort rate climbs once 2*dev approaches typical validity-range
//     lengths;
//   * errors below the natural cost of a commit + cache miss have no
//     effect;
//   * correctness is never affected, only performance.

#include <cstdio>
#include <iostream>
#include <string>
#include <memory>
#include <thread>
#include <vector>

#include <chronostm/stm/facade.hpp>
#include <chronostm/util/cli.hpp>
#include <chronostm/util/json_out.hpp>
#include <chronostm/util/rng.hpp>
#include <chronostm/util/table.hpp>
#include <chronostm/workload/runner.hpp>

using namespace chronostm;

namespace {

struct Result {
    double mtx = 0;
    double abort_ratio = 0;
    TxStats stats;
    bool conserved = true;
    std::uint64_t p50_ns = 0, p99_ns = 0, p999_ns = 0;
};

template <typename A>
Result run_core(A& adapter, unsigned threads, double duration_ms) {
    constexpr int kAccounts = 32;
    std::vector<std::unique_ptr<typename A::template Var<long>>> acct;
    for (int i = 0; i < kAccounts; ++i)
        acct.push_back(
            std::make_unique<typename A::template Var<long>>(100));

    wl::RunSpec spec;
    spec.threads = threads;
    spec.warmup_ms = duration_ms / 5;
    spec.duration_ms = duration_ms;
    const auto res = wl::run_throughput(spec, [&](unsigned tid) {
        auto ctx = std::make_shared<typename A::Context>(
            adapter.make_context());
        auto rng = std::make_shared<Rng>(tid * 17 + 5);
        return [&, ctx, rng] {
            const auto a = rng->below(kAccounts);
            auto b = rng->below(kAccounts);
            if (a == b) b = (b + 1) % kAccounts;
            adapter.run(*ctx, [&](typename A::Txn& tx) {
                tx.write(*acct[a], tx.read(*acct[a]) - 1);
                tx.write(*acct[b], tx.read(*acct[b]) + 1);
            });
        };
    });

    Result out;
    out.mtx = res.mops_per_sec;
    out.p50_ns = res.p50_ns;
    out.p99_ns = res.p99_ns;
    out.p999_ns = res.p999_ns;
    const auto stats = adapter.collected_stats();
    out.abort_ratio = stats.commits() + stats.aborts() == 0
                          ? 0.0
                          : static_cast<double>(stats.aborts()) /
                                static_cast<double>(stats.commits() + stats.aborts());
    out.stats = stats;
    long total = 0;
    for (auto& a : acct) total += a->unsafe_peek();
    out.conserved = total == 100L * kAccounts;
    return out;
}

// The per-point base is built from the uniform --timebase spec with the
// sweep's device count and deviation bound appended -- later keys override
// earlier ones in the registry grammar, so a custom base spec still works.
// --engine takes any stm::make() spec; only the LSA engine has a version
// history, so every other engine runs one single-version panel (validity
// shrinking hits it exactly like single-version LSA: the one live version
// loses range at both ends; the non-time-base baselines ignore the sweep
// entirely and serve as flat reference lines).
Result run_one(const std::string& engine_spec, const std::string& tb_spec,
               std::uint32_t dev_ns, unsigned max_versions, unsigned threads,
               double duration_ms) {
    const char* sep = tb_spec.find(':') == std::string::npos ? ":" : ",";
    auto tbase = tb::make(tb_spec + sep + "devices=" +
                          std::to_string(threads) + ",dev=" +
                          std::to_string(dev_ns));

    std::string spec = engine_spec;
    if (stm::parse_engine_spec(spec).name == "lsa")
        spec = wl::engine_spec_with(
            spec, "versions=" + std::to_string(max_versions));
    stm::Engine eng = stm::make(spec, std::move(tbase));
    Result r;
    stm::visit(eng, [&](auto& adapter) {
        r = run_core(adapter, threads, duration_ms);
    });
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli("Section 4.3: effect of clock synchronization error on LSA-RT");
    cli.flag_str("timebase", "extsync",
                 "time base NAME for the deviation sweep (devices/dev keys "
                 "are appended per point)");
    wl::flag_engine(cli);
    cli.flag_i64("threads", 2, "worker threads")
        .flag_i64("duration-ms", 250, "measured window per point")
        .flag_str("json", "", "write machine-readable results to this path");
    try {
        if (!cli.parse(argc, argv)) return 0;
        {
            const std::string& t = cli.str("timebase");
            const char* sep = t.find(':') == std::string::npos ? ":" : ",";
            tb::make(t + sep + "devices=2,dev=1");  // typo -> clean exit 2
        }
        wl::validate_engine_flag(cli);
        wl::single_engine_spec(cli);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    const std::string engine_spec = wl::single_engine_spec(cli);
    const std::string engine_name = stm::parse_engine_spec(engine_spec).name;
    const bool multi_version = engine_name == "lsa";
    const auto threads = static_cast<unsigned>(cli.i64("threads"));
    const double duration = static_cast<double>(cli.i64("duration-ms"));
    const std::string& tb_spec = cli.str("timebase");

    std::printf("== Section 4.3 synchronization-error study (SPAA'07) ==\n"
                "bank transfers over ExtSyncClock, deviation sweep\n\n");

    const std::uint32_t devs[] = {1,       100,      10'000,
                                  100'000, 1'000'000, 10'000'000};
    bool all_conserved = true;
    double mv_small = 0, mv_big = 0;

    Json json;
    json.obj_begin()
        .kv("driver", "tab_sync_error")
        .kv("timebase", tb_spec)
        .kv("engine", cli.str("engine"))
        .kv("threads", threads)
        .kv("duration_ms", duration)
        .key("panels")
        .arr_begin();
    // Only LSA has a version history: one single-version panel otherwise.
    const std::vector<unsigned> panels = multi_version
                                             ? std::vector<unsigned>{8u, 1u}
                                             : std::vector<unsigned>{1u};
    for (const unsigned k : panels) {
        Table t(!multi_version
                    ? "engine '" + engine_name +
                          "' (single-version by construction)"
                    : (k == 1 ? "single-version (max_versions=1)"
                              : "multi-version (max_versions=8)"));
        t.set_header({"dev (ns)", "Mtx/s", "abort ratio", "conserved"});
        json.obj_begin().kv("max_versions", k).key("rows").arr_begin();
        for (const auto dev : devs) {
            const Result r =
                run_one(engine_spec, tb_spec, dev, k, threads, duration);
            t.add_row({Table::num(static_cast<std::uint64_t>(dev)),
                       Table::num(r.mtx, 3), Table::num(r.abort_ratio, 4),
                       r.conserved ? "yes" : "NO"});
            json.obj_begin()
                .kv("dev_ns", dev)
                .kv("mtxs", r.mtx)
                .kv("abort_ratio", r.abort_ratio)
                .kv("conserved", r.conserved);
            wl::latency_json(json, r);
            wl::tx_stats_json(json, r.stats).obj_end();
            all_conserved = all_conserved && r.conserved;
            if (k == 8 && dev == 1) mv_small = r.abort_ratio;
            if (k == 8 && dev == 10'000'000) mv_big = r.abort_ratio;
        }
        json.arr_end().obj_end();
        t.add_note("dev is the published per-stamp deviation bound; validity "
                   "ranges shrink by dev at each end");
        t.print(std::cout);
        std::printf("\n");
    }

    std::printf("SHAPE-CHECK correctness unaffected by any deviation: %s\n",
                all_conserved ? "PASS" : "FAIL");
    if (multi_version)
        std::printf("SHAPE-CHECK large deviation raises multi-version abort "
                    "rate (%.4f -> %.4f): %s\n",
                    mv_small, mv_big, mv_big >= mv_small ? "PASS" : "FAIL");
    json.arr_end().kv("all_conserved", all_conserved).obj_end();
    if (!write_json_flag(cli.str("json"), json)) return 2;
    return all_conserved ? 0 : 1;
}
