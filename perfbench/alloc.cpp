// Counting global allocator for the benchmark binary.
//
// Every form of operator new bumps one counter, so the benchmark can report
// exact heap allocations per operation for the timed phase and per call for
// the replay probes. Frees are not counted. All forms forward to
// malloc/aligned_alloc, so the replaced operator delete can free them all.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

void* counted_aligned(std::size_t size, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc contract
  return std::aligned_alloc(a, rounded != 0 ? rounded : a);
}
}  // namespace

namespace perfbench {
std::uint64_t heap_allocations() { return g_allocations.load(std::memory_order_relaxed); }
}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  if (void* p = counted_aligned(size, al)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t al) { return ::operator new(size, al); }

// GCC cannot see that every operator new above forwards to malloc or
// aligned_alloc, so it warns when their pointers reach std::free().
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
