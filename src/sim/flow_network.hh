/**
 * @file
 * Fluid-model network of shared channels with max-min fair bandwidth
 * sharing.
 *
 * A Flow is a bulk transfer of a known byte count across an ordered
 * set of channels (links). All channels along a flow's path carry the
 * flow concurrently (cut-through DMA pipelining). When flows start or
 * finish, the network recomputes a max-min fair rate allocation. This
 * reproduces how concurrent DMA transfers share NVLink/PCIe bandwidth
 * on a real multi-GPU system without simulating individual packets.
 *
 * The network keeps one armed completion event, not one per flow.
 * Every re-solve scans the in-flight flows once for their ETAs and
 * re-keys that event (EventQueue::reschedule) to the earliest
 * (ETA, position in active_ iteration order). That is the key the
 * earliest of a set of per-flow events re-keyed in the same iteration
 * order would hold, so the fire order and the executed-event count are
 * those of per-flow arming. Flows the scan finds with no bytes left are
 * retired in one batch (one reallocation, one re-arm), and their
 * callbacks run in descending flow id before the callback of the flow
 * whose event fired: the order that completing them one at a time, each
 * inside the previous one's re-solve, would give.
 *
 * The allocation is incremental: the network tracks which flows use
 * each channel and which channels a flow start/finish/capacity change
 * dirtied, and re-solves only the connected component of the
 * flow-channel bipartite graph reachable from the dirty channels.
 * Max-min allocation within a component is arithmetically independent
 * of every other component (no shared channel, so no shared residual
 * capacity), and the restricted solver visits channels in ascending
 * index and flows in ascending id — the same orders the from-scratch
 * solver used — so the resulting rates are bit-identical to a full
 * re-solve. Flows outside the component keep their previous rates,
 * which a full solve would have recomputed to the same doubles.
 */

#ifndef DGXSIM_SIM_FLOW_NETWORK_HH
#define DGXSIM_SIM_FLOW_NETWORK_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace dgxsim::sim {

class Auditor;

/**
 * Shared-bandwidth transfer fabric. Channels are unidirectional
 * capacity pools; callers model a full-duplex link as two channels.
 */
class FlowNetwork
{
  public:
    using ChannelId = std::size_t;
    using FlowId = std::uint64_t;
    static constexpr FlowId invalidFlow = ~FlowId(0);

    explicit FlowNetwork(EventQueue &queue) : queue_(queue) {}
    FlowNetwork(const FlowNetwork &) = delete;
    FlowNetwork &operator=(const FlowNetwork &) = delete;

    /**
     * Create a channel.
     * @param bytes_per_tick Capacity (see gbpsToBytesPerTick()).
     * @param name Debug label.
     */
    ChannelId addChannel(double bytes_per_tick, std::string name = "");

    /** Change a channel's capacity (used by bandwidth ablations). */
    void setChannelCapacity(ChannelId id, double bytes_per_tick);

    /** @return a channel's capacity in bytes per tick. */
    double channelCapacity(ChannelId id) const;

    /** @return the number of channels. */
    std::size_t numChannels() const { return channels_.size(); }

    /**
     * Start a transfer.
     * @param bytes Payload size; zero-byte flows complete after just
     *              the latency.
     * @param path Channels the flow occupies concurrently.
     * @param on_complete Callback invoked when the last byte lands.
     * @param latency Fixed head latency before bytes start moving.
     * @return an id usable with flowActive()/currentRate().
     */
    FlowId startFlow(Bytes bytes, std::vector<ChannelId> path,
                     std::function<void()> on_complete, Tick latency = 0);

    /** @return true while the flow has not completed. */
    bool flowActive(FlowId id) const;

    /**
     * @return the number of flows not yet completed: transferring,
     * latency-stage and pure-latency ones.
     */
    std::size_t activeFlows() const { return active_.size(); }

    /**
     * @return the flow's current allocated rate in bytes per tick, or
     * 0 if the flow is not actively transferring.
     */
    double currentRate(FlowId id) const;

    /** @return total bytes delivered through a channel so far. */
    double bytesDelivered(ChannelId id) const;

    /**
     * @return the busy time integral of a channel: sum over time of
     * (allocated rate / capacity), in ticks. Used for utilization
     * statistics.
     */
    double busyTicks(ChannelId id) const;

    /**
     * Attach (or detach, with nullptr) an invariant auditor. While
     * attached, byte conservation is verified at every flow
     * completion and rate/busy-time invariants at every settle and
     * reallocation point.
     */
    void setAuditor(Auditor *auditor) { auditor_ = auditor; }

    /** @return the attached auditor, or nullptr. */
    Auditor *auditor() const { return auditor_; }

  private:
    struct Channel
    {
        double capacity = 0; ///< bytes per tick
        std::string name;
        double delivered = 0; ///< bytes
        double busyTicks = 0;
    };

    struct Flow
    {
        double remaining = 0; ///< bytes
        double requested = 0; ///< bytes asked for at startFlow()
        std::vector<ChannelId> path;
        std::function<void()> onComplete;
        double rate = 0; ///< bytes per tick
        Tick lastUpdate = 0;
        /** Pure-latency flow: completes by its own event, never armed. */
        bool done = false;
        /** True once the flow entered the allocation membership. */
        bool joined = false;
        /** Epoch stamp used by the incremental solver's closure walk. */
        std::uint64_t mark = 0;
    };

    /** Charge elapsed progress to all active flows, then reallocate. */
    void recompute();

    /** Advance flow progress from lastUpdate to now. */
    void settleProgress();

    /**
     * Max-min fair allocation over the active flows. Incremental:
     * only the dirty-channel component is re-solved (see the file
     * comment); a call with nothing dirty is a no-op.
     */
    void allocateRates();

    /** Flag a channel whose flow set or capacity changed. */
    void markDirty(ChannelId id);

    /** Enter @p id into the allocation (per-channel membership). */
    void joinAllocation(FlowId id, const Flow &flow);

    /** Remove @p id from the allocation (per-channel membership). */
    void leaveAllocation(FlowId id, const Flow &flow);

    /**
     * Re-arm the network's completion event at the earliest in-flight
     * flow, or cancel it when none is transferring. Flows with no bytes
     * left are first retired in one batch and reallocated around; their
     * callbacks run last, in descending flow id.
     */
    void rescheduleCompletions();

    /**
     * One scan of the transferring flows: collect those with no bytes
     * left into @p finished, and return the earliest completion of the
     * rest as (tick, flow), or invalidFlow when there is none.
     */
    std::pair<Tick, FlowId> earliestCompletion(
        std::vector<FlowId> &finished) const;

    /**
     * Audit byte conservation for a completing flow, take it out of
     * the allocation and erase it.
     * @return its completion callback.
     */
    std::function<void()> retire(
        std::unordered_map<FlowId, Flow>::iterator it);

    void activate(FlowId id);
    void complete(FlowId id);

    /** Audit rate sums vs. capacity after an allocation pass. */
    void auditRates();

    /** Audit per-channel busy-time integrals after a settle pass. */
    void auditBusyTicks();

    EventQueue &queue_;
    std::vector<Channel> channels_;
    std::unordered_map<FlowId, Flow> active_;
    FlowId nextFlow_ = 0;
    Auditor *auditor_ = nullptr;
    /** The one pending completion event; it completes armedFlow_. */
    EventHandle armed_;
    FlowId armedFlow_ = invalidFlow;

    /**
     * Per-channel ids of flows currently in the allocation (activated,
     * not done). One entry per path element, so a path listing a
     * channel twice counts as two users — matching the from-scratch
     * solver's user accounting.
     */
    std::vector<std::vector<FlowId>> channelFlows_;
    /**
     * Latency-stage flows not yet in the allocation. A flow whose
     * head latency expires at tick T joins at the first allocation
     * pass with now >= T — which may be a recompute triggered by an
     * unrelated flow earlier in tick T than the activation event,
     * exactly as the from-scratch solver's lastUpdate <= now
     * membership test behaved.
     */
    std::vector<FlowId> latencyPending_;
    /** Channels whose flow set or capacity changed since last solve. */
    std::vector<ChannelId> dirty_;
    std::vector<std::uint8_t> channelDirty_;
    /** Closure-walk epoch stamps (channels; flows stamp Flow::mark). */
    std::vector<std::uint64_t> channelMark_;
    std::uint64_t solveEpoch_ = 0;
    /** Scratch for the restricted solve; only affected slots touched. */
    std::vector<double> capScratch_;
    std::vector<int> userScratch_;
    std::vector<std::uint8_t> frozenScratch_;
    std::vector<ChannelId> affectedChannels_;
    std::vector<std::pair<FlowId, Flow *>> affectedFlows_;
};

} // namespace dgxsim::sim

#endif // DGXSIM_SIM_FLOW_NETWORK_HH
