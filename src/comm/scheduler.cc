#include "comm/scheduler.hh"

#include <algorithm>
#include <deque>

#include "sim/logging.hh"
#include "sim/suggest.hh"

namespace dgxsim::comm {

const char *
schedulerName(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::Fifo:
        return "fifo";
      case SchedulerPolicy::Priority:
        return "priority";
      case SchedulerPolicy::Partitioned:
        return "partitioned";
    }
    return "fifo";
}

const std::vector<SchedulerInfo> &
schedulerRegistry()
{
    static const std::vector<SchedulerInfo> registry = {
        {SchedulerPolicy::Fifo, "fifo",
         "legacy order: whole buckets, one collective in flight "
         "(streamed on NCCL)"},
        {SchedulerPolicy::Priority, "priority",
         "credit-windowed priority queue: late-layer/small gradients "
         "overtake large early ones"},
        {SchedulerPolicy::Partitioned, "partitioned",
         "priority queue over partition-bytes chunks: large tensors "
         "no longer monopolize the wire"},
    };
    return registry;
}

std::vector<std::string>
schedulerNames()
{
    std::vector<std::string> names;
    names.reserve(schedulerRegistry().size());
    for (const SchedulerInfo &info : schedulerRegistry())
        names.push_back(info.name);
    return names;
}

SchedulerPolicy
parseScheduler(const std::string &name)
{
    for (const SchedulerInfo &info : schedulerRegistry()) {
        if (name == info.name)
            return info.policy;
    }
    sim::fatal("unknown scheduler '", name, "'",
               sim::didYouMean(name, schedulerNames()),
               " (run `dgxprof list schedulers`)");
}

void
Scheduler::submit(OpKind kind, sim::Bytes bytes, int priority,
                  std::function<void()> done,
                  profiling::CauseToken cause)
{
    auto op = std::make_shared<SchedOpState>();
    op->kind = kind;
    op->totalBytes = bytes;
    op->priority = priority;
    op->seq = nextSeq_++;
    op->done = std::move(done);
    op->cause = std::move(cause);
    op->bytesRemaining = bytes;
    const int before = queuedChunks_;
    enqueueChunks(op);
    op->chunksRemaining = queuedChunks_ - before;
    if (op->chunksRemaining <= 0)
        sim::fatal("scheduler '", name(), "' queued no chunks for a ",
                   bytes, "-byte collective");
}

bool
Scheduler::next(SchedChunk &out)
{
    if (queuedChunks_ == 0)
        return false;
    if (limits_.maxInFlightChunks > 0 &&
        inFlightChunks_ >= limits_.maxInFlightChunks)
        return false;
    if (!windowOpen())
        return false;
    if (!popChunk(out))
        return false;
    out.tag = nextTag_++;
    --queuedChunks_;
    ++inFlightChunks_;
    inFlightBytes_ += out.bytes;
    return true;
}

bool
Scheduler::finishChunk(const SchedChunk &chunk)
{
    --inFlightChunks_;
    inFlightBytes_ -= chunk.bytes;
    SchedOpState &op = *chunk.op;
    if (op.chunksRemaining <= 0 || op.bytesRemaining < chunk.bytes) {
        sim::fatal("scheduler '", name(), "' chunk accounting broke: ",
                   op.chunksRemaining, " chunks / ", op.bytesRemaining,
                   " bytes remaining, finishing ", chunk.bytes,
                   " bytes");
    }
    op.bytesRemaining -= chunk.bytes;
    if (--op.chunksRemaining > 0)
        return false;
    // Flow conservation: every submitted byte must have been carried
    // by exactly one chunk.
    if (op.bytesRemaining != 0) {
        sim::fatal("scheduler '", name(), "' lost ", op.bytesRemaining,
                   " of ", op.totalBytes,
                   " bytes across partition chunks");
    }
    return true;
}

namespace {

/**
 * Bit-exact replay of the legacy op queue: whole buckets in
 * submission order; one in flight unless the communicator pipelines.
 */
class FifoScheduler final : public Scheduler
{
  public:
    explicit FifoScheduler(SchedulerLimits limits) : Scheduler(limits)
    {
    }

    const char *name() const override { return "fifo"; }

  protected:
    void
    enqueueChunks(std::shared_ptr<SchedOpState> op) override
    {
        queue_.push_back(SchedChunk{op->totalBytes, 0, 0, std::move(op)});
        ++queuedChunks_;
    }

    bool
    popChunk(SchedChunk &out) override
    {
        if (queue_.empty())
            return false;
        out = std::move(queue_.front());
        queue_.pop_front();
        return true;
    }

    bool
    windowOpen() const override
    {
        return limits_.pipelined || inFlightChunks_ == 0;
    }

  private:
    std::deque<SchedChunk> queue_;
};

/**
 * Shared engine of the priority policies: a deterministically
 * ordered ready list ((priority desc, bytes asc, seq asc, chunk
 * asc)) drained under a credit-byte in-flight window. `priority`
 * queues whole buckets; `partitioned` splits them first.
 */
class PriorityScheduler : public Scheduler
{
  public:
    PriorityScheduler(SchedulerLimits limits, sim::Bytes credit_bytes)
        : Scheduler(limits), creditBytes_(credit_bytes)
    {
    }

    const char *name() const override { return "priority"; }

  protected:
    void
    enqueueChunks(std::shared_ptr<SchedOpState> op) override
    {
        pushChunk(SchedChunk{op->totalBytes, 0, 0, std::move(op)});
    }

    bool
    popChunk(SchedChunk &out) override
    {
        if (ready_.empty())
            return false;
        std::pop_heap(ready_.begin(), ready_.end(), &laterThan);
        out = std::move(ready_.back());
        ready_.pop_back();
        return true;
    }

    bool
    windowOpen() const override
    {
        // At least one chunk is always admitted, so a bucket larger
        // than the whole window still makes progress.
        return inFlightChunks_ == 0 || inFlightBytes_ < creditBytes_;
    }

    void
    pushChunk(SchedChunk chunk)
    {
        ready_.push_back(std::move(chunk));
        std::push_heap(ready_.begin(), ready_.end(), &laterThan);
        ++queuedChunks_;
    }

  private:
    /** Heap comparator: true when @p a runs later than @p b. */
    static bool
    laterThan(const SchedChunk &a, const SchedChunk &b)
    {
        if (a.op->priority != b.op->priority)
            return a.op->priority < b.op->priority;
        if (a.op->totalBytes != b.op->totalBytes)
            return a.op->totalBytes > b.op->totalBytes;
        if (a.op->seq != b.op->seq)
            return a.op->seq > b.op->seq;
        return a.index > b.index;
    }

    sim::Bytes creditBytes_;
    std::vector<SchedChunk> ready_;
};

/** Priority scheduling over partition_bytes-sized chunks. */
class PartitionedScheduler final : public PriorityScheduler
{
  public:
    PartitionedScheduler(SchedulerLimits limits,
                         sim::Bytes partition_bytes,
                         sim::Bytes credit_bytes)
        : PriorityScheduler(limits, credit_bytes),
          partitionBytes_(partition_bytes)
    {
        if (partitionBytes_ == 0)
            sim::fatal("partition bytes must be positive");
    }

    const char *name() const override { return "partitioned"; }

  protected:
    void
    enqueueChunks(std::shared_ptr<SchedOpState> op) override
    {
        sim::Bytes left = op->totalBytes;
        sim::Bytes carved = 0;
        int index = 0;
        // Zero-byte collectives still need one (empty) chunk so the
        // completion callback fires.
        do {
            const sim::Bytes piece = std::min(left, partitionBytes_);
            pushChunk(SchedChunk{piece, index++, 0, op});
            carved += piece;
            left -= piece;
        } while (left > 0);
        if (carved != op->totalBytes) {
            sim::fatal("partitioned scheduler carved ", carved,
                       " bytes out of a ", op->totalBytes,
                       "-byte collective");
        }
    }

  private:
    sim::Bytes partitionBytes_;
};

} // namespace

std::unique_ptr<Scheduler>
makeScheduler(SchedulerPolicy policy, sim::Bytes partition_bytes,
              sim::Bytes credit_bytes, SchedulerLimits limits)
{
    switch (policy) {
      case SchedulerPolicy::Fifo:
        return std::make_unique<FifoScheduler>(limits);
      case SchedulerPolicy::Priority:
        return std::make_unique<PriorityScheduler>(limits,
                                                   credit_bytes);
      case SchedulerPolicy::Partitioned:
        return std::make_unique<PartitionedScheduler>(
            limits, partition_bytes, credit_bytes);
    }
    sim::fatal("unhandled scheduler policy ",
               static_cast<int>(policy));
}

} // namespace dgxsim::comm
