// Tier-1 irrevocability gate: detail::IrrevGate keeps one in-flight
// counter per context slot instead of one engine-global count, so the
// drain an escalating transaction performs must see every in-flight
// update commit on every slot -- including slots shared by several
// contexts and contexts registered after the token was taken.
//
//   (a) acquire() blocks while a committer is in flight on any slot and
//       returns after its exit_commit();
//   (b) past kSlots contexts slots are shared, and the drain still waits
//       for every in-flight committer on a shared slot;
//   (c) a committer -- also one whose context was created after the token
//       was taken -- is held at the gate until release(), in the gate
//       itself and end to end in both engines (read-only commits pass);
//   (d) a 4-thread stress on both engines: an auditor repeatedly goes
//       irrevocable and reads a 64-account bank twice with a pause in
//       between (the reads must match: nobody commits while the token is
//       held), while three threads run transfers (the sum must hold).
//
// CHRONOSTM_TIMEBASE adds time-base specs to the (d) stress.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <chronostm/core/irrev_gate.hpp>
#include <chronostm/stm/adapter.hpp>
#include <chronostm/util/rng.hpp>

#include "test_util.hpp"

using namespace chronostm;
using detail::IrrevGate;

namespace {

void sleep_ms(int ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Starts acquire() on a helper thread and waits until the token is
// claimed, so the caller observes the drain phase.
struct Escalator {
    IrrevGate& gate;
    std::atomic<bool> acquired{false};
    std::thread t;
    int who = 0;

    explicit Escalator(IrrevGate& g) : gate(g) {
        t = std::thread([this] {
            gate.acquire(&who);
            acquired.store(true);
        });
        while (!gate.active()) std::this_thread::yield();
    }
    void finish() {
        t.join();
        CHECK(gate.held_by(&who));
        gate.release();
        CHECK(!gate.active());
    }
};

// (a) One committer in flight on each slot in turn.
void check_drain_waits_each_slot() {
    IrrevGate gate;
    std::vector<unsigned> slots;
    for (unsigned i = 0; i < IrrevGate::kSlots; ++i)
        slots.push_back(gate.assign_slot());
    for (const unsigned s : slots) {
        gate.enter_commit(s);
        Escalator esc(gate);
        sleep_ms(1);
        CHECK_MSG(!esc.acquired.load(), "slot %u", s);
        gate.exit_commit(s);
        esc.finish();
    }
    // Quiescent gate: acquire returns at once.
    Escalator esc(gate);
    esc.finish();
}

// (b) 130 contexts share the 64 slots round-robin; the drain waits for
// the last in-flight committer on a slot even after its slot-mates left.
void check_shared_slots() {
    constexpr unsigned kContexts = 130;
    IrrevGate gate;
    std::vector<unsigned> slots;
    for (unsigned i = 0; i < kContexts; ++i) {
        slots.push_back(gate.assign_slot());
        CHECK(slots[i] == slots[i % IrrevGate::kSlots]);
    }
    CHECK(slots[0] == slots[IrrevGate::kSlots] &&
          slots[0] == slots[2 * IrrevGate::kSlots]);
    for (const unsigned s : slots) gate.enter_commit(s);
    Escalator esc(gate);
    // Everyone but context 128 leaves, including its slot-mates 0 and 64.
    for (unsigned i = 0; i < kContexts; ++i) {
        if (i == 2 * IrrevGate::kSlots) continue;
        gate.exit_commit(slots[i]);
        CHECK(!esc.acquired.load());
    }
    sleep_ms(5);
    CHECK(!esc.acquired.load());
    gate.exit_commit(slots[2 * IrrevGate::kSlots]);
    esc.finish();
}

// (c), gate level: committers on an existing slot and on a slot assigned
// after the token was taken both wait for release().
void check_committers_held() {
    IrrevGate gate;
    const unsigned early = gate.assign_slot();
    int who = 0;
    gate.acquire(&who);
    const unsigned late = gate.assign_slot();
    std::atomic<int> entered{0};
    std::vector<std::thread> ts;
    for (const unsigned s : {early, late})
        ts.emplace_back([&, s] {
            gate.enter_commit(s);
            entered.fetch_add(1);
            gate.exit_commit(s);
        });
    sleep_ms(20);
    CHECK(entered.load() == 0);
    gate.release();
    for (auto& t : ts) t.join();
    CHECK(entered.load() == 2);
    // Both left: a second escalation drains at once.
    gate.acquire(&who);
    gate.release();
}

// (c) and (b), end to end: while one context holds the token, an update
// commit from a context created afterwards is held at the gate and a
// read-only commit passes. Then 130 contexts (shared slots) each commit
// once and an escalation still drains.
template <typename Adapter>
void check_engine_gate(const char* label) {
    Adapter adapter(tb::make("shared"));
    using Var = typename Adapter::template Var<long>;
    using Txn = typename Adapter::Txn;
    Var a(0), b(0), c(7);

    std::atomic<bool> holding{false}, finish{false}, committed{false};
    std::thread holder([&] {
        auto ctx = adapter.make_context();
        adapter.run(ctx, [&](Txn& tx) {
            tx.become_irrevocable();
            holding.store(true);
            while (!finish.load()) std::this_thread::yield();
            tx.write(a, tx.read(a) + 1);
        });
    });
    while (!holding.load()) std::this_thread::yield();
    CHECK(adapter.stm().irrevocable_active());

    std::thread late([&] {
        auto ctx = adapter.make_context();  // registered after the token
        adapter.run(ctx, [&](Txn& tx) { tx.write(b, tx.read(b) + 1); });
        committed.store(true);
    });
    {
        auto ctx = adapter.make_context();
        const long seen = adapter.run(ctx, [&](Txn& tx) { return tx.read(c); });
        CHECK(seen == 7);
    }
    sleep_ms(20);
    CHECK_MSG(!committed.load() && b.unsafe_peek() == 0, "%s", label);
    finish.store(true);
    holder.join();
    late.join();
    CHECK(a.unsafe_peek() == 1 && b.unsafe_peek() == 1);
    CHECK(!adapter.stm().irrevocable_active());

    std::vector<typename Adapter::Context> ctxs;
    for (unsigned i = 0; i < 130; ++i) {
        ctxs.push_back(adapter.make_context());
        adapter.run(ctxs.back(),
                    [&](Txn& tx) { tx.write(b, tx.read(b) + 1); });
    }
    adapter.run(ctxs.front(), [&](Txn& tx) {
        tx.become_irrevocable();
        tx.write(b, tx.read(b) + 1);
    });
    CHECK_MSG(b.unsafe_peek() == 132, "%s b=%ld", label, b.unsafe_peek());
    CHECK(!adapter.stm().irrevocable_active());
}

// (d) Quiescence under load.
template <typename Adapter>
void check_quiescence_stress(tb::TimeBase tbase, const std::string& label) {
    constexpr unsigned kAccounts = 64;
    constexpr long kInitial = 100;
    constexpr unsigned kTransferThreads = 3;
    constexpr unsigned kAudits = 150;
    Adapter adapter(std::move(tbase));
    using Var = typename Adapter::template Var<long>;
    using Txn = typename Adapter::Txn;
    std::vector<std::unique_ptr<Var>> bank;
    for (unsigned i = 0; i < kAccounts; ++i)
        bank.push_back(std::make_unique<Var>(kInitial));

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> transfers{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kTransferThreads; ++t)
        workers.emplace_back([&, t] {
            auto ctx = adapter.make_context();
            Rng rng(0x9e3779b9u + t);
            while (!done.load(std::memory_order_relaxed)) {
                const auto from = rng.next() % kAccounts;
                const auto to = rng.next() % kAccounts;
                adapter.run(ctx, [&](Txn& tx) {
                    tx.write(*bank[from], tx.read(*bank[from]) - 1);
                    tx.write(*bank[to], tx.read(*bank[to]) + 1);
                });
                transfers.fetch_add(1, std::memory_order_relaxed);
            }
        });

    auto ctx = adapter.make_context();
    std::vector<long> first(kAccounts), second(kAccounts);
    for (unsigned audit = 0; audit < kAudits; ++audit) {
        // Let transfers run between audits, so every audit drains a
        // pipeline that is actually busy.
        const auto seen = transfers.load();
        while (transfers.load() < seen + 20) std::this_thread::yield();
        long sum = 0;
        adapter.run(ctx, [&](Txn& tx) {
            tx.become_irrevocable();
            sum = 0;
            for (unsigned i = 0; i < kAccounts; ++i) {
                first[i] = tx.read(*bank[i]);
                sum += first[i];
            }
            // Give any committer that slipped past the gate time to land.
            for (int spin = 0; spin < 20; ++spin) std::this_thread::yield();
            // The commit pipeline is quiescent: peeking the heap directly
            // must show exactly what the transaction read.
            for (unsigned i = 0; i < kAccounts; ++i)
                second[i] = bank[i]->unsafe_peek();
        });
        CHECK_MSG(sum == kInitial * static_cast<long>(kAccounts),
                  "%s audit %u sum %ld", label.c_str(), audit, sum);
        for (unsigned i = 0; i < kAccounts; ++i)
            CHECK_MSG(first[i] == second[i],
                      "%s audit %u account %u: %ld then %ld", label.c_str(),
                      audit, i, first[i], second[i]);
    }
    done.store(true);
    for (auto& w : workers) w.join();

    long total = 0;
    for (const auto& v : bank) total += v->unsafe_peek();
    CHECK_MSG(total == kInitial * static_cast<long>(kAccounts), "%s total %ld",
              label.c_str(), total);
    CHECK(adapter.collected_stats().irrevocable_commits >= kAudits);
    CHECK(!adapter.stm().irrevocable_active());
    std::printf("  %-28s %u audits, %llu transfers\n", label.c_str(), kAudits,
                static_cast<unsigned long long>(transfers.load()));
}

void stress_all(const std::string& spec) {
    check_quiescence_stress<stm::LsaAdapter>(tb::make(spec), "lsa/" + spec);
    check_quiescence_stress<stm::OrecAdapter>(tb::make(spec), "orec/" + spec);
}

}  // namespace

int main() {
    check_drain_waits_each_slot();
    check_shared_slots();
    check_committers_held();
    check_engine_gate<stm::LsaAdapter>("lsa");
    check_engine_gate<stm::OrecAdapter>("orec");
    stress_all("shared");
    if (const char* env = std::getenv("CHRONOSTM_TIMEBASE"))
        for (const auto& spec : tb::split_specs(env)) stress_all(spec);
    std::printf("test_stm_irrev_gate: PASS\n");
    return 0;
}
