#include "sim/heap.hh"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace dgxsim::sim {

void
pinHeapThresholds()
{
#if defined(__GLIBC__)
    // Setting either threshold turns glibc's dynamic raise off.
    static const bool pinned =
        mallopt(M_MMAP_THRESHOLD, static_cast<int>(kMmapThreshold)) &&
        mallopt(M_TRIM_THRESHOLD, static_cast<int>(kTrimThreshold));
    (void)pinned;
#endif
}

} // namespace dgxsim::sim
