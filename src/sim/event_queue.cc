#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace dgxsim::sim {

EventQueue::Record *
EventQueue::allocRecord()
{
    if (freeList_.empty()) {
        slabs_.push_back(std::make_unique<Record[]>(kSlabSize));
        Record *slab = slabs_.back().get();
        freeList_.reserve(freeList_.size() + kSlabSize);
        // Reverse order so the first allocation serves slab[0].
        for (std::size_t i = kSlabSize; i-- > 0;)
            freeList_.push_back(&slab[i]);
    }
    Record *rec = freeList_.back();
    freeList_.pop_back();
    return rec;
}

void
EventQueue::recycle(Record *rec)
{
    // Invalidate every outstanding handle to this incarnation, then
    // make the record reusable. The callback is released eagerly so
    // captured resources do not linger on the free list.
    ++rec->gen;
    rec->callback = nullptr;
    freeList_.push_back(rec);
}

void
EventQueue::place(std::size_t i, const HeapEntry &entry)
{
    heap_[i] = entry;
    entry.record->slot = i;
}

void
EventQueue::siftUp(std::size_t i)
{
    const HeapEntry entry = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!(entry < heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, entry);
}

void
EventQueue::siftDown(std::size_t i)
{
    const HeapEntry entry = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (heap_[c] < heap_[best])
                best = c;
        }
        if (!(heap_[best] < entry))
            break;
        place(i, heap_[best]);
        i = best;
    }
    place(i, entry);
}

EventQueue::HeapEntry
EventQueue::removeAt(std::size_t i)
{
    const HeapEntry removed = heap_[i];
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
        // The last entry fills the hole; it may belong above or below.
        place(i, last);
        if (i > 0 && last < heap_[(i - 1) / 4])
            siftUp(i);
        else
            siftDown(i);
    }
    return removed;
}

EventHandle
EventQueue::schedule(Tick when, Callback cb)
{
    if (when < curTick_)
        fatal("event scheduled in the past: ", when, " < ", curTick_);
    Record *rec = allocRecord();
    rec->callback = std::move(cb);
    heap_.push_back(HeapEntry{when, nextSeq_++, rec});
    siftUp(heap_.size() - 1);
    return EventHandle(rec, rec->gen);
}

bool
EventQueue::cancel(EventHandle &handle)
{
    if (!handle.valid())
        return false;
    recycle(removeAt(handle.record_->slot).record);
    return true;
}

bool
EventQueue::reschedule(EventHandle &handle, Tick when)
{
    if (!handle.valid())
        return false;
    if (when < curTick_)
        fatal("event rescheduled into the past: ", when, " < ", curTick_);
    const std::size_t i = handle.record_->slot;
    const HeapEntry old = heap_[i];
    heap_[i].when = when;
    heap_[i].seq = nextSeq_++;
    if (heap_[i] < old)
        siftUp(i);
    else
        siftDown(i);
    return true;
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const HeapEntry entry = removeAt(0);
    curTick_ = entry.when;
    ++executed_;
    // Move the callback out and recycle before invoking: the callback
    // may schedule new events (reusing this record is fine — any
    // handle to the fired event went stale at the generation bump).
    Callback cb = std::move(entry.record->callback);
    recycle(entry.record);
    cb();
    return true;
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    return curTick_;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (!heap_.empty() && heap_.front().when <= limit)
        step();
    if (curTick_ < limit)
        curTick_ = limit;
    return curTick_;
}

} // namespace dgxsim::sim
