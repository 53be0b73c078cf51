// hashmap-mixed: ds::TxHashMap over a 2^20 key range, half of it
// prepopulated, uniform keys, 90% get / 5% put / 5% erase on the shared
// time base. Short read-dominated probe transactions over a working set
// far larger than L2: read/admission and facade dispatch dominate,
// read-only commits draw no stamp, and puts/erases drive tx_alloc/tx_free
// and epoch reclamation.

#include <algorithm>
#include <numeric>

#include <chronostm/ds/hashmap.hpp>

#include "series.hpp"
#include "workloads.hpp"

namespace stmbench {
namespace {

struct HashmapMixed {
    static constexpr const char* kTimeBase = "shared";
    static constexpr unsigned kSetupReps = 1;
    static constexpr unsigned kRounds = 6;
    static constexpr bool kDsLayer = true;
    static constexpr std::uint64_t kKeys = std::uint64_t{1} << 20;
    // Two cells per key of the range: live keys settle near half the
    // range (a quarter of the cells); tombstones share the rest.
    static constexpr std::size_t kCapacity = std::size_t{1} << 21;
    enum : unsigned { kGet, kPut, kErase };

    struct Inputs {
        std::vector<std::uint32_t> prepopulated;
        std::uint64_t salt;

        // The prepopulated half is the first half of a seeded shuffle of
        // the key range.
        explicit Inputs(const Options& o) : salt(mix64(o.seed ^ 0x5eed)) {
            std::vector<std::uint32_t> keys(kKeys);
            std::iota(keys.begin(), keys.end(), 0u);
            Rng rng(mix64(o.seed));
            for (std::size_t i = keys.size() - 1; i > 0; --i)
                std::swap(keys[i], keys[rng.below(i + 1)]);
            keys.resize(kKeys / 2);
            prepopulated = std::move(keys);
        }

        // The value scheme: every put of `key` writes this value, so any
        // hit must return it.
        std::uint64_t value_of(std::uint64_t key) const {
            return mix64(key ^ salt);
        }
    };

    template <typename P>
    struct Data {
        const Inputs& in;
        ds::TxHashMap<P> map;

        Data(const P& pol, const Inputs& inputs, std::uint64_t)
            : in(inputs), map(pol, kCapacity) {
            auto h = map.make_handle();
            for (std::uint32_t k : in.prepopulated)
                map.put(h, k, in.value_of(k));
        }
    };

    // Samples the epoch domain from the idle main thread.
    template <typename P>
    class Sampler {
     public:
        explicit Sampler(Data<P>& d) : map_(d.map) {}
        void start() { s0_ = map_.heap().stats(); }
        void tick() {
            limbo_peak_ = std::max(limbo_peak_, map_.heap().stats().limbo);
        }
        void stop() { s1_ = map_.heap().stats(); }
        EpochSample result() const {
            return {s1_.retired - s0_.retired, s1_.freed - s0_.freed,
                    s1_.advances - s0_.advances, limbo_peak_};
        }

     private:
        ds::TxHashMap<P>& map_;
        eb::DomainStats s0_, s1_;
        std::uint64_t limbo_peak_ = 0;
    };

    template <typename P>
    class Worker {
     public:
        Worker(const P&, Data<P>& d, unsigned, std::uint64_t seed,
               WorkerResult& r)
            : d_(d), h_(d.map.make_handle()), rng_(seed), r_(r) {}

        TxStats stats() const { return h_.ctx.stats(); }

        void op(OpSink& sink) {
            const std::uint64_t dice = rng_.below(100);
            const std::uint64_t key = rng_.below(kKeys);
            const unsigned kind = dice < 90 ? kGet : dice < 95 ? kPut : kErase;
            const std::uint64_t t0 = ticks();
            try {
                switch (kind) {
                    case kGet: {
                        std::uint64_t v = 0;
                        if (d_.map.get(h_, key, v) &&
                            v != d_.in.value_of(key)) {
                            ++r_.failed_all;
                            return;
                        }
                        break;
                    }
                    case kPut:
                        r_.inserted +=
                            d_.map.put(h_, key, d_.in.value_of(key)) ? 1 : 0;
                        break;
                    default:
                        r_.erased += d_.map.erase(h_, key) ? 1 : 0;
                        break;
                }
            } catch (const RetryExhausted&) {
                ++r_.failed_all;
                return;
            }
            sink.record(kind, ticks() - t0);
            ++r_.commits_all;
        }

     private:
        Data<P>& d_;
        typename ds::TxHashMap<P>::Handle h_;
        Rng rng_;
        WorkerResult& r_;
    };

    // Live keys match the committed inserts and erases, and once every
    // handle is gone and the domain drained, every retired node is freed.
    template <typename P>
    static unsigned check(Data<P>& d, const PhaseResult& p,
                          std::vector<std::string>& failures) {
        const std::uint64_t want =
            d.in.prepopulated.size() + p.inserted - p.erased;
        const std::uint64_t got = d.map.unsafe_size();
        if (got != want)
            failures.push_back("hashmap-mixed: live keys " +
                               std::to_string(got) + " != prepopulated + " +
                               "inserted - erased = " + std::to_string(want));
        d.map.heap().drain();
        const eb::DomainStats s = d.map.heap().stats();
        if (s.freed != s.retired)
            failures.push_back("hashmap-mixed: after drain freed " +
                               std::to_string(s.freed) + " != retired " +
                               std::to_string(s.retired));
        return 2;
    }
};

}  // namespace

WorkloadReport run_hashmap_mixed(const Options& opt) {
    return run_workload<HashmapMixed>(opt);
}

}  // namespace stmbench
