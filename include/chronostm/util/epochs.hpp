#pragma once
// Quiescence-based (epoch) reclamation for transactionally freed nodes.
//
// The transactional allocator (stm/alloc.hpp) cannot hand a committed
// tx_free straight to operator delete: a doomed-but-still-running reader
// may sit on a pointer to the node (it read the pointer before the
// unlinking transaction committed and has not yet validated), and the LSA
// engine's multi-version history rings can serve *old* pointer values to
// any transaction whose snapshot predates the unlink. Both hazards are
// bounded by transaction lifetime, which makes epochs the right shape:
//
//   - Every thread that may touch transactional nodes registers a
//     Participant and pins it for the full duration of each run() call
//     (every attempt, including doomed ones, happens inside the pin).
//   - A committed tx_free retires the node into the freeing participant's
//     limbo list stamped with the current global epoch.
//   - The global epoch only advances when every pinned participant has
//     caught up to it, and a limbo entry is freed only once the minimum
//     pinned epoch has moved PAST its stamp. Together: everyone who could
//     have seen the node unlinked-but-unreclaimed has finished.
//
// Why this also covers the history rings ("Reclamation vs. multi-version
// histories" in DESIGN.md): a transaction that begins after the unlinking
// commit has snapshot lower >= that commit's stamp, and read_old_version
// skips any history entry whose validity range ends before lower -- so the
// stale pointer version is unreachable to it. Only transactions concurrent
// with the unlink can reach the node through a history entry, and those
// are pinned in an epoch <= the retire stamp, which blocks reclamation
// until they exit. The ring itself stores pointer *values*, never owns the
// pointee, so no separate pinning pass over rings is needed.
//
// Concurrency contract: pin/unpin/retire/collect on one Participant are
// called by its owning thread only; registration and epoch advance take a
// mutex but sit off the per-transaction fast path (pin and unpin are two
// atomic ops). The domain must outlive every participant it issued.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace chronostm {
namespace eb {

// Deleters take a caller-supplied context so containers can run slot
// destructors over node layouts only they understand; the context must
// stay valid until the owning domain is destroyed.
using Deleter = void (*)(void*, void*) noexcept;

struct Retired {
    void* ptr;
    Deleter del;
    void* ctx;
    std::uint64_t epoch;
};

struct DomainStats {
    std::uint64_t retired = 0;
    std::uint64_t freed = 0;
    std::uint64_t advances = 0;
    std::uint64_t limbo = 0;  // retired - freed at sample time
};

class EpochDomain;

class Participant {
 public:
    // Enter a read-side critical section. The loop pairs the local-epoch
    // store with a recheck of the global epoch so a collector scanning the
    // participant table either sees our pin or we observe its advance --
    // never neither. One iteration in the common case.
    void pin() noexcept {
        std::uint64_t e = global_->load(std::memory_order_acquire);
        for (;;) {
            local_.store(e, std::memory_order_seq_cst);
            const std::uint64_t now = global_->load(std::memory_order_seq_cst);
            if (now == e) break;
            e = now;
        }
    }

    bool pinned() const noexcept {
        return local_.load(std::memory_order_relaxed) != kQuiescent;
    }

    // unpin() and retire()/collect() are declared below EpochDomain (they
    // poke the domain for amortized advance/collection).
    inline void unpin() noexcept;
    inline void retire(void* p, Deleter d, void* ctx) noexcept;
    // Free every limbo entry whose epoch the domain has proven safe.
    inline void collect() noexcept;
    std::size_t limbo_size() const noexcept { return limbo_.size(); }

 private:
    friend class EpochDomain;
    static constexpr std::uint64_t kQuiescent = 0;

    explicit Participant(EpochDomain* d, const std::atomic<std::uint64_t>* g)
        : domain_(d), global_(g) {}

    EpochDomain* domain_;
    const std::atomic<std::uint64_t>* global_;
    alignas(64) std::atomic<std::uint64_t> local_{kQuiescent};
    std::vector<Retired> limbo_;   // owner-thread only
    unsigned ops_since_collect_ = 0;
};

class EpochDomain {
 public:
    EpochDomain() = default;
    EpochDomain(const EpochDomain&) = delete;
    EpochDomain& operator=(const EpochDomain&) = delete;

    ~EpochDomain() {
        // No participant may be pinned at domain teardown; everything
        // still in limbo (including orphans from dead participants) is
        // unreachable and freed unconditionally.
        std::lock_guard<std::mutex> lk(mu_);
        for (auto& r : orphans_) r.del(r.ptr, r.ctx);
        freed_.fetch_add(orphans_.size(), std::memory_order_relaxed);
        orphans_.clear();
    }

    // Threads register once and keep the handle for their lifetime. The
    // custom deleter drains any un-reclaimed limbo into the domain's
    // orphan list, so a thread exiting with deferred frees pending leaks
    // nothing.
    std::shared_ptr<Participant> register_participant() {
        auto* raw = new Participant(this, &global_);
        std::shared_ptr<Participant> p(raw, [this](Participant* q) {
            this->adopt_orphans(q);
            delete q;
        });
        std::lock_guard<std::mutex> lk(mu_);
        parts_.push_back(p);
        return p;
    }

    std::uint64_t epoch() const noexcept {
        return global_.load(std::memory_order_acquire);
    }

    // Advance the global epoch if every pinned participant has caught up,
    // then recompute the reclamation horizon: entries stamped strictly
    // below min(pinned locals) -- or below the global epoch when nobody is
    // pinned -- are safe to free.
    std::uint64_t try_advance() noexcept {
        // The scan holds a strong reference to every live participant. If
        // an owner drops its handle meanwhile, the scan's reference is the
        // last one, and releasing it runs the deleter, which takes mu_ in
        // adopt_orphans(). So the references are released only after mu_
        // is (declared after `scanned`, hence unlocked before it dies).
        std::vector<std::shared_ptr<Participant>> scanned;
        std::lock_guard<std::mutex> lk(mu_);
        return advance_locked(scanned);
    }

    // Latest horizon computed by try_advance(); entries with
    // epoch < safe_epoch may be freed by their owning participant.
    std::uint64_t safe_epoch() const noexcept {
        return safe_.load(std::memory_order_acquire);
    }

    DomainStats stats() const {
        DomainStats s;
        s.retired = retired_.load(std::memory_order_relaxed);
        s.freed = freed_.load(std::memory_order_relaxed);
        s.advances = advances_.load(std::memory_order_relaxed);
        s.limbo = s.retired - s.freed;
        return s;
    }

 private:
    friend class Participant;

    std::uint64_t advance_locked(
        std::vector<std::shared_ptr<Participant>>& scanned) noexcept {
        const std::uint64_t g = global_.load(std::memory_order_acquire);
        std::uint64_t min_pinned = ~std::uint64_t{0};
        bool all_current = true;
        scanned.reserve(parts_.size());
        for (auto it = parts_.begin(); it != parts_.end();) {
            auto p = it->lock();
            if (!p) {
                it = parts_.erase(it);
                continue;
            }
            const std::uint64_t l = p->local_.load(std::memory_order_seq_cst);
            if (l != Participant::kQuiescent) {
                if (l < min_pinned) min_pinned = l;
                if (l != g) all_current = false;
            }
            scanned.push_back(std::move(p));
            ++it;
        }
        if (all_current) {
            global_.store(g + 1, std::memory_order_release);
            advances_.fetch_add(1, std::memory_order_relaxed);
        }
        // Horizon: nobody pinned -> everything stamped before the (old)
        // global epoch is unreachable; otherwise the oldest pin bounds it.
        const std::uint64_t horizon =
            (min_pinned == ~std::uint64_t{0}) ? g : min_pinned;
        safe_.store(horizon, std::memory_order_release);
        // Opportunistically drain orphans that fell below the horizon.
        std::size_t w = 0;
        for (std::size_t r = 0; r < orphans_.size(); ++r) {
            if (orphans_[r].epoch < horizon) {
                orphans_[r].del(orphans_[r].ptr, orphans_[r].ctx);
                freed_.fetch_add(1, std::memory_order_relaxed);
            } else {
                orphans_[w++] = orphans_[r];
            }
        }
        orphans_.resize(w);
        return horizon;
    }

    void adopt_orphans(Participant* p) {
        if (p->limbo_.empty()) return;
        std::lock_guard<std::mutex> lk(mu_);
        orphans_.insert(orphans_.end(), p->limbo_.begin(), p->limbo_.end());
        p->limbo_.clear();
    }

    // Epoch 0 is reserved as the quiescent marker, so the clock starts at 1.
    std::atomic<std::uint64_t> global_{1};
    std::atomic<std::uint64_t> safe_{0};
    std::atomic<std::uint64_t> retired_{0};
    std::atomic<std::uint64_t> freed_{0};
    std::atomic<std::uint64_t> advances_{0};
    std::mutex mu_;
    std::vector<std::weak_ptr<Participant>> parts_;
    std::vector<Retired> orphans_;
};

inline void Participant::unpin() noexcept {
    local_.store(kQuiescent, std::memory_order_release);
    // Amortized housekeeping: every few unpins, or whenever limbo has
    // piled up, push the epoch forward and sweep.
    if (!limbo_.empty() &&
        (++ops_since_collect_ >= 16 || limbo_.size() >= 128)) {
        ops_since_collect_ = 0;
        domain_->try_advance();
        collect();
    }
}

inline void Participant::retire(void* p, Deleter d, void* ctx) noexcept {
    limbo_.push_back(
        Retired{p, d, ctx, global_->load(std::memory_order_acquire)});
    domain_->retired_.fetch_add(1, std::memory_order_relaxed);
}

inline void Participant::collect() noexcept {
    if (limbo_.empty()) return;
    const std::uint64_t horizon = domain_->safe_epoch();
    std::size_t w = 0;
    for (std::size_t r = 0; r < limbo_.size(); ++r) {
        if (limbo_[r].epoch < horizon) {
            limbo_[r].del(limbo_[r].ptr, limbo_[r].ctx);
            domain_->freed_.fetch_add(1, std::memory_order_relaxed);
        } else {
            limbo_[w++] = limbo_[r];
        }
    }
    limbo_.resize(w);
}

// RAII pin covering one transactional run() window (all attempts).
class PinGuard {
 public:
    explicit PinGuard(Participant& p) noexcept : p_(&p) { p_->pin(); }
    ~PinGuard() {
        if (p_ != nullptr) p_->unpin();
    }
    PinGuard(PinGuard&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;
    PinGuard& operator=(PinGuard&&) = delete;

 private:
    Participant* p_;
};

}  // namespace eb
}  // namespace chronostm
