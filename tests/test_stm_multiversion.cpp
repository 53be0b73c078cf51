// Tier-1 STM semantics: the multi-version history and lazy snapshot
// extension, staged deterministically.
//
//  1. With history (max_versions=4) and extension off, a reader whose
//     snapshot predates a concurrent commit reads the OLD version and
//     commits on the first attempt -- a consistent-but-old snapshot.
//  2. With no history (max_versions=1, TL2-like) the same schedule aborts
//     the reader once and retries into a fresh snapshot.
//  3. With extension on, the same schedule extends the snapshot instead
//     (the read set is still the most recent) and sees the new value
//     without aborting.
//  4. The heap-allocated ring (TVar<T, false>, the facade's cell layout)
//     holds max_versions - 1 entries: after two commits the reader still
//     finds its version, after five the ring has wrapped past it and the
//     reader aborts once.

#include <atomic>
#include <thread>

#include <chronostm/core/lsa_stm.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

using Tx = Transaction;

struct Staged {
    int attempts = 0;
    long a = -1, b = -1;
    std::uint64_t aborts = 0;
};

// Reader reads A, parks while a writer commits B `writes` times (11, 12,
// ..., last 20), then reads B.
template <bool InlineHist = true>
Staged run_schedule(unsigned max_versions, bool read_extension,
                    int writes = 1) {
    StmConfig cfg;
    cfg.max_versions = max_versions;
    cfg.read_extension = read_extension;
    LsaStm stm(tb::make("shared"), cfg);
    TVar<long, InlineHist> va(1), vb(10);

    std::atomic<bool> reader_started{false}, writer_done{false};
    std::thread writer([&] {
        auto ctx = stm.make_context();
        while (!reader_started.load(std::memory_order_acquire))
            std::this_thread::yield();
        for (int k = 1; k <= writes; ++k)
            ctx.run([&](Tx& tx) { vb.set(tx, k == writes ? 20 : 10 + k); });
        writer_done.store(true, std::memory_order_release);
    });

    Staged out;
    auto ctx = stm.make_context();
    ctx.run([&](Tx& tx) {
        ++out.attempts;
        out.a = va.get(tx);
        if (out.attempts == 1) {
            reader_started.store(true, std::memory_order_release);
            while (!writer_done.load(std::memory_order_acquire))
                std::this_thread::yield();
        }
        out.b = vb.get(tx);
    });
    writer.join();
    out.aborts = ctx.stats().aborts();
    return out;
}

}  // namespace

int main() {
    {
        const Staged r = run_schedule(/*max_versions=*/4,
                                      /*read_extension=*/false);
        CHECK_MSG(r.attempts == 1, "attempts %d", r.attempts);
        CHECK(r.a == 1);
        CHECK_MSG(r.b == 10, "old version not served: b=%ld", r.b);
        CHECK(r.aborts == 0);
    }
    {
        const Staged r = run_schedule(/*max_versions=*/1,
                                      /*read_extension=*/false);
        CHECK_MSG(r.attempts == 2, "attempts %d", r.attempts);
        CHECK_MSG(r.b == 20, "retry did not see fresh value: b=%ld", r.b);
        CHECK(r.aborts == 1);
    }
    {
        const Staged r = run_schedule(/*max_versions=*/1,
                                      /*read_extension=*/true);
        CHECK_MSG(r.attempts == 1, "attempts %d", r.attempts);
        CHECK_MSG(r.b == 20, "extension did not reach the present: b=%ld",
                  r.b);
        CHECK(r.aborts == 0);
    }
    {
        const Staged r = run_schedule<false>(/*max_versions=*/4,
                                             /*read_extension=*/false,
                                             /*writes=*/2);
        CHECK_MSG(r.attempts == 1, "attempts %d", r.attempts);
        CHECK_MSG(r.b == 10, "heap ring lost the old version: b=%ld", r.b);
        CHECK(r.aborts == 0);
    }
    {
        const Staged r = run_schedule<false>(/*max_versions=*/4,
                                             /*read_extension=*/false,
                                             /*writes=*/5);
        CHECK_MSG(r.attempts == 2, "attempts %d", r.attempts);
        CHECK_MSG(r.b == 20, "retry did not see fresh value: b=%ld", r.b);
        CHECK(r.aborts == 1);
    }
    std::printf("test_stm_multiversion: PASS\n");
    return 0;
}
