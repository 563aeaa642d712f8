#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/random.h"
#include "storage/value.h"
#include "tests/test_util.h"
#include "udf/heap_segment.h"
#include "udf/packing.h"
#include "udf/udf.h"

namespace nlq::udf {
namespace {

using storage::DataType;
using storage::Datum;

// ---------------------------------------------------------------------------
// HeapSegment
// ---------------------------------------------------------------------------

TEST(HeapSegmentTest, DefaultCapacityIs64Kb) {
  HeapSegment heap;
  EXPECT_EQ(heap.capacity(), 64u * 1024u);
  EXPECT_EQ(heap.used(), 0u);
}

TEST(HeapSegmentTest, AllocationsAreAligned) {
  HeapSegment heap;
  void* a = heap.Allocate(3);
  void* b = heap.Allocate(5);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(heap.used(), 16u);  // two 8-byte aligned chunks
}

TEST(HeapSegmentTest, RefusesOverflow) {
  HeapSegment heap(64);
  EXPECT_NE(heap.Allocate(64), nullptr);
  EXPECT_EQ(heap.Allocate(1), nullptr);
}

TEST(HeapSegmentTest, ExactFitAfterAlignment) {
  HeapSegment heap(16);
  EXPECT_NE(heap.Allocate(9), nullptr);  // rounds to 16
  EXPECT_EQ(heap.remaining(), 0u);
  EXPECT_EQ(heap.Allocate(1), nullptr);
}

TEST(HeapSegmentTest, TypedAllocationZeroInitializes) {
  struct State {
    double values[8];
    int count;
  };
  HeapSegment heap;
  State* s = heap.AllocateObject<State>();
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 0);
  for (double v : s->values) EXPECT_EQ(v, 0.0);
}

TEST(HeapSegmentTest, TypedAllocationRespectsCapacity) {
  struct Big {
    char data[100000];
  };
  HeapSegment heap;  // 64 KB
  EXPECT_EQ(heap.AllocateObject<Big>(), nullptr);
}

TEST(HeapSegmentTest, BlocksAreExactSize) {
  // The capacity is a cap: a small state costs a small block, not the
  // whole 64 KB segment.
  HeapSegment heap;
  for (const size_t bytes : {size_t{1}, size_t{100}, size_t{4096}}) {
    void* p = heap.Allocate(bytes);
    ASSERT_NE(p, nullptr);
#if defined(__GLIBC__)
    EXPECT_LT(malloc_usable_size(p), bytes + 64) << bytes;
#endif
  }
  EXPECT_EQ(heap.used(), 8u + 104u + 4096u);
}

TEST(HeapSegmentTest, PointersStayStable) {
  HeapSegment heap;
  std::vector<unsigned char*> blocks;
  for (int i = 0; i < 200; ++i) {
    auto* p = static_cast<unsigned char*>(heap.Allocate(40));
    ASSERT_NE(p, nullptr);
    std::memset(p, i, 40);
    blocks.push_back(p);
  }
  // Later allocations never move or overwrite earlier blocks.
  for (int i = 0; i < 200; ++i) {
    for (int b = 0; b < 40; ++b) ASSERT_EQ(blocks[i][b], i) << i;
  }
}

TEST(HeapSegmentTest, CapHoldsAcrossBlocks) {
  HeapSegment heap;  // 64 KB cap over many blocks
  for (int i = 0; i < 1000; ++i) ASSERT_NE(heap.Allocate(64), nullptr);
  ASSERT_NE(heap.Allocate(1536), nullptr);  // exactly 65536 bytes used
  EXPECT_EQ(heap.used(), 64u * 1024u);
  EXPECT_EQ(heap.remaining(), 0u);
  EXPECT_EQ(heap.Allocate(1), nullptr);  // the byte past 64 KB
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

TEST(PackingTest, PackFormat) {
  EXPECT_EQ(PackDoubles({1.0, 2.5, -3.0}), "1;2.5;-3");
  EXPECT_EQ(PackDoubles({}), "");
  EXPECT_EQ(PackDoubles({42.0}), "42");
}

TEST(PackingTest, UnpackValid) {
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<double> v, UnpackDoubles("1;2.5;-3"));
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[1], 2.5);
}

TEST(PackingTest, UnpackEmpty) {
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<double> v, UnpackDoubles(""));
  EXPECT_TRUE(v.empty());
}

TEST(PackingTest, UnpackRejectsGarbage) {
  EXPECT_FALSE(UnpackDoubles("1;x;3").ok());
  EXPECT_FALSE(UnpackDoubles("1;;3").ok());
}

TEST(PackingTest, UnpackIntoBuffer) {
  double buf[4];
  NLQ_ASSERT_OK_AND_ASSIGN(size_t n, UnpackDoublesInto("5;6;7", buf, 4));
  EXPECT_EQ(n, 3u);
  EXPECT_DOUBLE_EQ(buf[2], 7.0);
}

TEST(PackingTest, UnpackIntoRejectsOverflow) {
  double buf[2];
  EXPECT_FALSE(UnpackDoublesInto("1;2;3", buf, 2).ok());
}

TEST(PackingTest, UnpackIntoRejectsTrailingSeparator) {
  double buf[4];
  EXPECT_FALSE(UnpackDoublesInto("1;2;", buf, 4).ok());
}

class PackRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PackRoundTripTest, RoundTripsExactly) {
  Random rng(GetParam());
  std::vector<double> values(GetParam());
  for (auto& v : values) v = rng.NextGaussian(0, 1000);
  NLQ_ASSERT_OK_AND_ASSIGN(std::vector<double> back,
                           UnpackDoubles(PackDoubles(values)));
  ASSERT_EQ(back.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) EXPECT_EQ(back[i], values[i]);
}

INSTANTIATE_TEST_SUITE_P(Dims, PackRoundTripTest,
                         ::testing::Values(1, 2, 8, 16, 64, 256));

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

class FakeScalar : public ScalarUdf {
 public:
  explicit FakeScalar(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  DataType return_type() const override { return DataType::kDouble; }
  StatusOr<Datum> Invoke(const std::vector<Datum>&) const override {
    return Datum::Double(1.0);
  }

 private:
  std::string name_;
};

class FakeAggregate : public AggregateUdf {
 public:
  explicit FakeAggregate(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  DataType return_type() const override { return DataType::kDouble; }
  StatusOr<void*> Init(HeapSegment* heap) const override {
    return heap->Allocate(8);
  }
  Status Accumulate(void*, const std::vector<Datum>&) const override {
    return Status::OK();
  }
  Status Merge(void*, const void*) const override { return Status::OK(); }
  StatusOr<Datum> Finalize(const void*) const override {
    return Datum::Double(0.0);
  }

 private:
  std::string name_;
};

TEST(UdfRegistryTest, RegisterAndLookupCaseInsensitive) {
  UdfRegistry registry;
  NLQ_ASSERT_OK(registry.RegisterScalar(std::make_unique<FakeScalar>("MyFn")));
  EXPECT_NE(registry.FindScalar("myfn"), nullptr);
  EXPECT_NE(registry.FindScalar("MYFN"), nullptr);
  EXPECT_EQ(registry.FindScalar("other"), nullptr);
}

TEST(UdfRegistryTest, RejectsDuplicates) {
  UdfRegistry registry;
  NLQ_ASSERT_OK(registry.RegisterScalar(std::make_unique<FakeScalar>("f")));
  EXPECT_FALSE(registry.RegisterScalar(std::make_unique<FakeScalar>("F")).ok());
  NLQ_ASSERT_OK(
      registry.RegisterAggregate(std::make_unique<FakeAggregate>("g")));
  EXPECT_FALSE(
      registry.RegisterAggregate(std::make_unique<FakeAggregate>("g")).ok());
}

TEST(UdfRegistryTest, ScalarAndAggregateNamespacesAreSeparate) {
  UdfRegistry registry;
  NLQ_ASSERT_OK(registry.RegisterScalar(std::make_unique<FakeScalar>("f")));
  NLQ_ASSERT_OK(
      registry.RegisterAggregate(std::make_unique<FakeAggregate>("f")));
  EXPECT_NE(registry.FindScalar("f"), nullptr);
  EXPECT_NE(registry.FindAggregate("f"), nullptr);
}

TEST(UdfRegistryTest, NameLists) {
  UdfRegistry registry;
  NLQ_ASSERT_OK(registry.RegisterScalar(std::make_unique<FakeScalar>("b")));
  NLQ_ASSERT_OK(registry.RegisterScalar(std::make_unique<FakeScalar>("a")));
  const auto names = registry.ScalarNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
}

}  // namespace
}  // namespace nlq::udf
