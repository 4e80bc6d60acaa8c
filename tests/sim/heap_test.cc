/**
 * @file
 * Unit test for the pinned mmap threshold.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/heap.hh"

// A sanitizer brings its own allocator; glibc's counters then see
// none of the blocks.
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__)
#if defined(__has_feature)
#if !__has_feature(address_sanitizer)
#define GLIBC_HEAP 1
#endif
#else
#define GLIBC_HEAP 1
#endif
#endif

#if GLIBC_HEAP
#include <malloc.h>
#endif

namespace {

using namespace dgxsim::sim;

#if GLIBC_HEAP

/** Keeps the compiler from folding a malloc/free pair away. */
void *volatile g_keep = nullptr;

TEST(HeapTest, FreeingALargeBlockDoesNotRaiseTheThreshold)
{
    pinHeapThresholds();
    pinHeapThresholds(); // idempotent
    // Unpinned, freeing this mapped block would raise the threshold
    // to 8 MB and the 2 MB block below would come from the brk heap.
    g_keep = std::malloc(8 << 20);
    std::free(g_keep);
    const std::size_t mapped = mallinfo2().hblks;
    g_keep = std::malloc(2 << 20);
    EXPECT_EQ(mallinfo2().hblks, mapped + 1);
    std::free(g_keep);
    EXPECT_EQ(mallinfo2().hblks, mapped);
}

#endif

} // namespace
