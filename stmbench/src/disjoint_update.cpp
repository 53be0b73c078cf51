// disjoint-update: the paper's Figure 2 (10-access panel). Each worker
// owns 256 private slots and runs read-increment-write transactions over
// 10 consecutive ones from a random start. Nothing is shared but the time
// base and the engine's commit metadata, so the stamp draw and the commit
// (locks, stripe bump, write-back) carry the cost.

#include "series.hpp"
#include "workloads.hpp"

namespace stmbench {
namespace {

struct DisjointUpdate {
    static constexpr const char* kTimeBase = "batched:B=8";
    static constexpr unsigned kSetupReps = 3;
    static constexpr unsigned kRounds = 40;
    static constexpr bool kDsLayer = false;
    static constexpr unsigned kSlots = 256;
    static constexpr unsigned kAccesses = 10;

    struct Inputs {
        unsigned threads;
        explicit Inputs(const Options& o) : threads(o.threads) {}
    };

    template <typename P>
    struct Data {
        SlotBlocks<P> slots;
        Data(const P& pol, const Inputs& in, std::uint64_t build_seed)
            : slots(pol, in.threads, kSlots, 0, build_seed) {}
    };

    template <typename P>
    using Sampler = NullSampler;

    template <typename P>
    class Worker {
     public:
        Worker(const P& pol, Data<P>& d, unsigned tid, std::uint64_t seed,
               WorkerResult& r)
            : pol_(pol), ctx_(pol.make_context()), d_(d), tid_(tid),
              rng_(seed), r_(r) {}

        TxStats stats() const { return ctx_.stats(); }

        void op(OpSink& sink) {
            const unsigned start = static_cast<unsigned>(rng_.below(kSlots));
            const std::uint64_t t0 = ticks();
            try {
                pol_.run(ctx_, [&](auto& tx) {
                    for (unsigned k = 0; k < kAccesses; ++k) {
                        void* p = d_.slots.slot(tid_, (start + k) % kSlots);
                        tx.store(p, tx.load(p) + 1);
                    }
                });
            } catch (const RetryExhausted&) {
                ++r_.failed_all;
                return;
            }
            sink.record(0, ticks() - t0);
            ++r_.commits_all;
        }

     private:
        const P& pol_;
        typename P::Ctx ctx_;
        Data<P>& d_;
        unsigned tid_;
        Rng rng_;
        WorkerResult& r_;
    };

    // Every committed transaction added exactly kAccesses.
    template <typename P>
    static unsigned check(Data<P>& d, const PhaseResult& p,
                          std::vector<std::string>& failures) {
        const std::uint64_t want = kAccesses * p.commits_all;
        const std::uint64_t got = d.slots.sum();
        if (got != want)
            failures.push_back("disjoint-update: slot sum " +
                               std::to_string(got) + " != 10 x commits " +
                               std::to_string(want));
        return 1;
    }
};

}  // namespace

WorkloadReport run_disjoint_update(const Options& opt) {
    return run_workload<DisjointUpdate>(opt);
}

}  // namespace stmbench
