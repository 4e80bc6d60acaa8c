#include "hw/fabric.hh"

#include <array>
#include <memory>

#include "sim/logging.hh"

namespace dgxsim::hw {

Fabric::Fabric(sim::EventQueue &queue, Topology topo, HostSpec host)
    : queue_(queue), topo_(std::move(topo)), host_(std::move(host)),
      flows_(queue)
{
    for (std::size_t i = 0; i < topo_.links().size(); ++i) {
        const Link &link = topo_.links()[i];
        const double cap = sim::gbpsToBytesPerTick(link.gbpsPerDir());
        const std::string base =
            topo_.nodeLabel(link.a) + "-" + topo_.nodeLabel(link.b);
        chans_.push_back({flows_.addChannel(cap, base + ">"),
                          flows_.addChannel(cap, base + "<")});
    }
    if (sim::Auditor::envEnabled())
        enableAudit();
}

void
Fabric::setAuditor(sim::Auditor *auditor)
{
    auditor_ = auditor;
    flows_.setAuditor(auditor);
}

sim::Auditor *
Fabric::enableAudit()
{
    if (!auditor_) {
        ownedAuditor_ = std::make_unique<sim::Auditor>();
        setAuditor(ownedAuditor_.get());
    }
    return auditor_;
}

sim::FlowNetwork::ChannelId
Fabric::channelFor(std::size_t link, NodeId from) const
{
    if (link >= chans_.size())
        sim::panic("bad link index ", link);
    return topo_.links()[link].a == from ? chans_[link][0]
                                         : chans_[link][1];
}

std::shared_ptr<const Route>
Fabric::route(NodeId src, NodeId dst)
{
    const std::uint64_t key =
        (std::uint64_t(std::uint32_t(src)) << 32) | std::uint32_t(dst);
    std::shared_ptr<const Route> &slot = routes_[key];
    if (!slot)
        slot = std::make_shared<const Route>(topo_.findRoute(src, dst));
    return slot;
}

void
Fabric::scaleNvlinkBandwidth(double factor)
{
    routes_.clear();
    topo_.scaleNvlinkBandwidth(factor);
    for (std::size_t i = 0; i < topo_.links().size(); ++i) {
        const Link &link = topo_.links()[i];
        if (link.type != LinkType::NVLink)
            continue;
        const double cap = sim::gbpsToBytesPerTick(link.gbpsPerDir());
        flows_.setChannelCapacity(chans_[i][0], cap);
        flows_.setChannelCapacity(chans_[i][1], cap);
    }
}

void
Fabric::scaleIbBandwidth(double factor)
{
    routes_.clear();
    topo_.scaleIbBandwidth(factor);
    for (std::size_t i = 0; i < topo_.links().size(); ++i) {
        const Link &link = topo_.links()[i];
        if (link.type != LinkType::IB)
            continue;
        const double cap = sim::gbpsToBytesPerTick(link.gbpsPerDir());
        flows_.setChannelCapacity(chans_[i][0], cap);
        flows_.setChannelCapacity(chans_[i][1], cap);
    }
}

void
Fabric::scaleLinkBandwidth(std::size_t link_index, double factor)
{
    routes_.clear();
    topo_.scaleLinkBandwidth(link_index, factor);
    const Link &link = topo_.links()[link_index];
    const double cap = sim::gbpsToBytesPerTick(link.gbpsPerDir());
    flows_.setChannelCapacity(chans_[link_index][0], cap);
    flows_.setChannelCapacity(chans_[link_index][1], cap);
}

double
Fabric::linkBytesMoved(std::size_t link_index) const
{
    if (link_index >= chans_.size())
        sim::fatal("unknown link ", link_index);
    return flows_.bytesDelivered(chans_[link_index][0]) +
           flows_.bytesDelivered(chans_[link_index][1]);
}

void
Fabric::runLegs(std::shared_ptr<TransferRecord> rec,
                std::shared_ptr<const Route> route, std::size_t leg,
                Callback done)
{
    if (leg >= route->legs.size()) {
        rec->end = queue_.now();
        if (auditor_) {
            auditor_->expect(rec->end >= rec->start, rec->end,
                             "transfer ", topo_.nodeLabel(rec->src),
                             "->", topo_.nodeLabel(rec->dst),
                             " ends before it starts");
        }
        records_.push_back(*rec);
        if (done)
            done();
        return;
    }
    const RouteLeg &hop = route->legs[leg];
    const Link &link = topo_.links()[hop.linkIndex];
    sim::Tick latency = sim::usToTicks(link.latencyUs);
    // Host-staged copies pay a software staging cost at each relay
    // (pinned-buffer management in the driver). Inter-node routes pay
    // it only at the host relays; the NIC and switch hops forward in
    // hardware (RDMA) with just their link latency.
    if (route->kind == RouteKind::HostPcie && leg > 0) {
        latency += sim::usToTicks(host_.stagingOverheadUs);
    } else if (route->kind == RouteKind::InterNode && leg > 0 &&
               topo_.nodeKind(hop.from) == NodeKind::Cpu) {
        latency += sim::usToTicks(host_.stagingOverheadUs);
    }
    flows_.startFlow(
        rec->bytes, {channelFor(hop.linkIndex, hop.from)},
        [this, rec, route = std::move(route), leg,
         done = std::move(done)]() mutable {
            runLegs(rec, std::move(route), leg + 1, std::move(done));
        },
        latency);
}

void
Fabric::transfer(NodeId src, NodeId dst, sim::Bytes bytes, Callback done)
{
    std::shared_ptr<const Route> path = route(src, dst);
    auto rec = std::make_shared<TransferRecord>();
    rec->src = src;
    rec->dst = dst;
    rec->bytes = bytes;
    rec->kind = path->kind;
    rec->start = queue_.now();
    if (path->kind == RouteKind::Loopback) {
        rec->end = queue_.now();
        records_.push_back(*rec);
        if (done)
            done();
        return;
    }
    runLegs(std::move(rec), std::move(path), 0, std::move(done));
}

void
Fabric::transferDirect(NodeId src, NodeId dst, sim::Bytes bytes,
                       Callback done)
{
    auto link = topo_.directLink(src, dst, LinkType::NVLink);
    if (!link)
        link = topo_.directLink(src, dst, LinkType::PCIe);
    if (!link)
        link = topo_.directLink(src, dst, LinkType::QPI);
    if (!link) {
        sim::fatal("transferDirect between non-neighbors ",
                   topo_.nodeLabel(src), " and ", topo_.nodeLabel(dst));
    }
    auto rec = std::make_shared<TransferRecord>();
    rec->src = src;
    rec->dst = dst;
    rec->bytes = bytes;
    rec->kind = topo_.links()[*link].type == LinkType::NVLink
                    ? RouteKind::DirectNvlink
                    : RouteKind::HostPcie;
    rec->start = queue_.now();
    const Link &l = topo_.links()[*link];
    flows_.startFlow(
        bytes, {channelFor(*link, src)},
        [this, rec, done = std::move(done)]() {
            rec->end = queue_.now();
            if (auditor_) {
                auditor_->expect(rec->end >= rec->start, rec->end,
                                 "direct transfer ",
                                 topo_.nodeLabel(rec->src), "->",
                                 topo_.nodeLabel(rec->dst),
                                 " ends before it starts");
            }
            records_.push_back(*rec);
            if (done)
                done();
        },
        sim::usToTicks(l.latencyUs));
}

} // namespace dgxsim::hw
