/**
 * @file
 * A heap whose peak does not depend on what ran before.
 *
 * glibc serves a request of at least its mmap threshold (128 KiB at
 * start) from a mapping of its own, and raises the threshold to the
 * size of any mapped chunk that is freed. Once a large profiler or
 * DAG buffer has been freed, later multi-megabyte buffers come from
 * the brk heap instead, and whether they fit a hole or extend the top
 * depends on what earlier simulations in the process left behind: the
 * same resnet-50 analysis peaked at 24 or 30 MB of resident memory
 * depending on the runs before it. Pinning the thresholds turns the
 * raise off, so multi-megabyte buffers always come from, and return
 * to, their own mapping.
 */

#ifndef DGXSIM_SIM_HEAP_HH
#define DGXSIM_SIM_HEAP_HH

#include <cstddef>

namespace dgxsim::sim {

/** Requests of at least this many bytes get a mapping of their own. */
inline constexpr std::size_t kMmapThreshold = 1 << 20;

/**
 * Free bytes the heap top may hold before they go back to the kernel.
 * Pinning the mmap threshold would leave this at glibc's 128 KiB, and
 * each simulation would then refault the top the previous one gave
 * back (3.5% of grid_cold throughput on a 4-vCPU host).
 */
inline constexpr std::size_t kTrimThreshold = 32 << 20;

/**
 * Pin the allocator's mmap and trim thresholds, once per process;
 * later calls do nothing. A no-op on non-glibc hosts. Every Machine
 * calls it, so each simulation runs on the pinned heap.
 */
void pinHeapThresholds();

} // namespace dgxsim::sim

#endif // DGXSIM_SIM_HEAP_HH
