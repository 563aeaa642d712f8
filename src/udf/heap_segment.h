#ifndef NLQ_UDF_HEAP_SEGMENT_H_
#define NLQ_UDF_HEAP_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/memory_tracker.h"
#include "common/status.h"

namespace nlq::udf {

/// Default heap capacity per aggregate state. Mirrors the Teradata
/// constraint the paper describes: "the amount of memory that can be
/// allocated ... is currently limited to one 64 kb segment".
inline constexpr size_t kDefaultHeapCapacity = 64 * 1024;

/// Allocator bounded to a single segment. Aggregate UDFs keep all
/// cross-row state here; an allocation that would exceed the segment
/// fails (forcing the MAX_d-style static sizing and the partitioned
/// high-d scheme of the paper's Table 6).
///
/// The capacity is a cap, not what gets allocated: each Allocate gets
/// its own exact-size block, so a state that asks for 1 KiB costs
/// 1 KiB of memory however large the cap is. Blocks never move, so
/// every returned pointer stays valid for the segment's lifetime.
class HeapSegment {
 public:
  explicit HeapSegment(size_t capacity = kDefaultHeapCapacity)
      : capacity_(capacity) {}

  HeapSegment(const HeapSegment&) = delete;
  HeapSegment& operator=(const HeapSegment&) = delete;

  ~HeapSegment() {
    if (tracker_ != nullptr) tracker_->Release(capacity_);
  }

  /// Budget-charged construction: charges `capacity` against `tracker`
  /// up front (the whole cap, whatever is later allocated) and fails
  /// with kResourceExhausted instead of admitting past the query's
  /// memory limit. The charge is released when the segment is
  /// destroyed — partial aggregation states merged away mid-query give
  /// their memory back. A null tracker means no budget (untracked
  /// segment).
  static StatusOr<std::unique_ptr<HeapSegment>> Create(
      MemoryTracker* tracker, size_t capacity = kDefaultHeapCapacity) {
    if (tracker != nullptr) {
      NLQ_RETURN_IF_ERROR(tracker->Charge(capacity, "UDF heap segment"));
    }
    auto segment = std::make_unique<HeapSegment>(capacity);
    segment->tracker_ = tracker;
    return segment;
  }

  size_t capacity() const { return capacity_; }
  size_t used() const { return used_; }
  size_t remaining() const { return capacity_ - used_; }

  /// Allocates `bytes` (8-byte aligned, uninitialized) as a block of
  /// its own; nullptr when the segment's cap would overflow.
  void* Allocate(size_t bytes) {
    const size_t aligned = (bytes + 7) & ~size_t{7};
    if (aligned > remaining()) return nullptr;
    // operator new[] aligns to at least 8 bytes; a zero-byte request
    // still gets a distinct non-null block.
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(
        aligned == 0 ? 1 : aligned));
    used_ += aligned;
    return blocks_.back().get();
  }

  /// Typed allocation, zero-initialized. T must be trivially
  /// destructible — UDF state is dropped without destructor calls,
  /// exactly like a C struct in the Teradata API.
  template <typename T>
  T* AllocateObject() {
    static_assert(std::is_trivially_destructible_v<T>,
                  "UDF heap state must be trivially destructible");
    void* ptr = Allocate(sizeof(T));
    if (ptr == nullptr) return nullptr;
    return new (ptr) T{};
  }

 private:
  size_t capacity_;
  size_t used_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
  MemoryTracker* tracker_ = nullptr;  // set by Create; released in dtor
};

}  // namespace nlq::udf

#endif  // NLQ_UDF_HEAP_SEGMENT_H_
