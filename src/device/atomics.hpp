#ifndef ECL_DEVICE_ATOMICS_HPP
#define ECL_DEVICE_ATOMICS_HPP

// Signature-store primitives.
//
// ECL-SCC's Phase 2 can use CUDA atomicMax, but the paper's implementation
// uses atomic-free monotonic stores (Nasre et al. [17]): racing writers may
// lose an update, which only delays convergence because the propagation is
// monotonic and retried (§3.4). In portable C++, a plain racy write is UB,
// so the benign race is modelled with relaxed-order atomic loads/stores:
// same lost-update semantics, no undefined behavior.

#include <atomic>
#include <cstdint>

namespace ecl::device {

using AtomicU32 = std::atomic<std::uint32_t>;

/// CAS-loop atomic max (the "safe" Phase-2 variant). Returns true if the
/// stored value changed.
inline bool atomic_fetch_max(AtomicU32& slot, std::uint32_t value) noexcept {
  std::uint32_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur) {
    if (slot.compare_exchange_weak(cur, value, std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// The paper's atomic-free monotonic store: read, compare, plain store.
/// Concurrent writers may overwrite each other (a lower value can win one
/// round), which the caller must tolerate by re-checking on the next
/// iteration. Returns true if this thread wrote.
inline bool racy_store_max(AtomicU32& slot, std::uint32_t value) noexcept {
  if (value > slot.load(std::memory_order_relaxed)) {
    slot.store(value, std::memory_order_relaxed);
    return true;
  }
  return false;
}

/// CAS-loop atomic min (used by the optional 4-signature min/max variant,
/// §3.3). Returns true if the stored value changed.
inline bool atomic_fetch_min(AtomicU32& slot, std::uint32_t value) noexcept {
  std::uint32_t cur = slot.load(std::memory_order_relaxed);
  while (value < cur) {
    if (slot.compare_exchange_weak(cur, value, std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// Monotonic racy store, min direction.
inline bool racy_store_min(AtomicU32& slot, std::uint32_t value) noexcept {
  if (value < slot.load(std::memory_order_relaxed)) {
    slot.store(value, std::memory_order_relaxed);
    return true;
  }
  return false;
}

}  // namespace ecl::device

#endif  // ECL_DEVICE_ATOMICS_HPP
