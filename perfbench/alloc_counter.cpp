#include "alloc_counter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

/// Per-thread counters, one cache line each: the owning thread updates its
/// slot with plain relaxed loads and stores, so counting adds no contended
/// atomic to the workers' allocations. Threads past kSlots share the last
/// slot and pay a fetch_add.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> allocations{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::int64_t> live{0};
};
constexpr std::size_t kSlots = 256;
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
std::atomic<bool> g_counting{false};
thread_local Slot* t_slot = nullptr;
thread_local bool t_shared = false;

Slot& my_slot() {
  if (t_slot == nullptr) {
    const std::size_t index =
        g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_shared = index >= kSlots - 1;
    t_slot = &g_slots[t_shared ? kSlots - 1 : index];
  }
  return *t_slot;
}

template <class T>
void bump(std::atomic<T>& counter, T delta) {
  if (t_shared)
    counter.fetch_add(delta, std::memory_order_relaxed);
  else
    counter.store(counter.load(std::memory_order_relaxed) + delta,
                  std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size, std::size_t align) {
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size == 0 ? 1 : size);
  } else if (posix_memalign(&p, align, size == 0 ? 1 : size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  if (g_counting.load(std::memory_order_relaxed)) {
    Slot& slot = my_slot();
    bump<std::uint64_t>(slot.allocations, 1);
    bump<std::uint64_t>(slot.bytes, size);
    bump<std::int64_t>(slot.live,
                       static_cast<std::int64_t>(malloc_usable_size(p)));
  }
  return p;
}

void counted_free(void* p) {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed))
    bump<std::int64_t>(my_slot().live,
                       -static_cast<std::int64_t>(malloc_usable_size(p)));
  std::free(p);
}

}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocTotals alloc_totals() {
  AllocTotals total;
  for (const Slot& slot : g_slots) {
    total.allocations += slot.allocations.load(std::memory_order_relaxed);
    total.bytes += slot.bytes.load(std::memory_order_relaxed);
    total.live_bytes += slot.live.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  return perfbench::counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return perfbench::counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::counted_alloc(size, static_cast<std::size_t>(align));
}
// The nothrow forms too: a mix of the default and these replacements would
// free memory from one allocator through the other.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size, alignof(std::max_align_t));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return ::operator new(size, align, std::nothrow);
}
void operator delete(void* p) noexcept { perfbench::counted_free(p); }
void operator delete[](void* p) noexcept { perfbench::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
