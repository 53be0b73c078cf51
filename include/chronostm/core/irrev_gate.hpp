// Irrevocability gate shared by both engines.
//
// A transaction that escalates to irrevocable serial mode claims the
// engine-global token and then waits until no update commit is in flight,
// so it runs against a quiescent commit pipeline: no lock is held by
// anyone else, no version can change under its feet, and its own commit
// needs no validation. Read-only commits never touch the gate -- they
// cannot invalidate anything.
//
// The in-flight count is distributed, not one engine-global word: each
// thread context owns one of kSlots cache-line-padded counters (assigned
// round-robin at make_context; past kSlots contexts, slots are shared),
// so an update commit's enter/exit RMWs touch only the committer's own
// line and the token line is only ever read on the fast path. The price
// moves to the rare escalation, which scans every slot. Correctness is a
// Dekker pairing, all seq_cst: a committer's slot RMW precedes its token
// load, an escalator's token CAS precedes its slot loads, so either the
// committer sees the token (and backs out) or the escalator sees the
// committer (and waits for it). DESIGN.md "Irrevocability via quiescence"
// has the full argument, including late registrants and shared slots.

#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include <chronostm/util/pause.hpp>

namespace chronostm {
namespace detail {

class IrrevGate {
 public:
    static constexpr unsigned kSlots = 64;

    // Round-robin slot for a new thread context; called from make_context,
    // never on the commit path.
    unsigned assign_slot() {
        return next_slot_.fetch_add(1, std::memory_order_relaxed) % kSlots;
    }

    // Update commits enter before taking their first lock and exit after
    // their last unlock or rollback.
    void enter_commit(unsigned slot) {
        auto& count = slots_[slot].inflight;
        for (;;) {
            count.fetch_add(1, std::memory_order_seq_cst);
            if (!(token_.load(std::memory_order_seq_cst) & 1u)) return;
            // An irrevocable transaction is running (or draining); back
            // out so its drain can finish, and wait for it. It is
            // guaranteed to finish, so waiting here is bounded.
            count.fetch_sub(1, std::memory_order_release);
            while (token_.load(std::memory_order_relaxed) & 1u)
                std::this_thread::yield();
        }
    }
    void exit_commit(unsigned slot) {
        slots_[slot].inflight.fetch_sub(1, std::memory_order_release);
    }

    void acquire(const void* who) {
        for (;;) {
            std::uint64_t w = 0;
            if (token_.compare_exchange_weak(w, 1u,
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed))
                break;
            // One irrevocable transaction at a time.
            while (token_.load(std::memory_order_relaxed) & 1u)
                std::this_thread::yield();
        }
        holder_.store(who, std::memory_order_release);
        // Drain: in-flight committers finish (or roll back) on their own;
        // none of them can block on us because we hold no locks yet. A
        // committer entering from here on sees the token and backs out.
        std::uint64_t spins = 0;
        for (auto& s : slots_) {
            while (s.inflight.load(std::memory_order_seq_cst) != 0) {
                cpu_relax();
                if ((++spins & 63u) == 0) std::this_thread::yield();
            }
        }
    }
    void release() {
        holder_.store(nullptr, std::memory_order_release);
        token_.store(0, std::memory_order_release);
    }

    bool active() const {
        return token_.load(std::memory_order_acquire) & 1u;
    }
    // Identity of the current token holder (the TxDesc in the LSA engine,
    // the thread context in the orec engine) so conflict arbitration can
    // exempt it from kills.
    bool held_by(const void* who) const {
        return who != nullptr &&
               holder_.load(std::memory_order_acquire) == who;
    }

 private:
    struct alignas(64) Slot {
        std::atomic<std::uint64_t> inflight{0};
    };

    // Token line: read by every update commit, written only by escalation.
    alignas(64) std::atomic<std::uint64_t> token_{0};
    std::atomic<const void*> holder_{nullptr};
    std::atomic<unsigned> next_slot_{0};
    Slot slots_[kSlots];
};

// Exception-safe gate exit: commit() arms this after enter_commit() so
// every path out -- success, rollback returns, AbortTx, or a throwing
// value copy during write-back -- leaves the context's slot.
struct GateGuard {
    IrrevGate* gate = nullptr;
    unsigned slot = 0;
    ~GateGuard() {
        if (gate) gate->exit_commit(slot);
    }
};

// Exception-safe token release for run(): the normal commit path releases
// the token in txn_commit; this guard covers abnormal exits (an exception
// escaping the user functor while escalated must not leave the engine
// wedged behind a stuck token).
struct TokenGuard {
    IrrevGate* gate = nullptr;
    bool* held = nullptr;
    ~TokenGuard() {
        if (held != nullptr && *held) {
            gate->release();
            *held = false;
        }
    }
};

}  // namespace detail
}  // namespace chronostm
