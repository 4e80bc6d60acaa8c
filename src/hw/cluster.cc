#include "hw/cluster.hh"

#include <string>

#include "sim/logging.hh"

namespace dgxsim::hw {

namespace {

struct InterconnectBuilder
{
    const char *name;
    const char *description;
    double gbpsPerDir;
    double latencyUs;
};

/** Registration order == listing order in `dgxprof list interconnects`. */
constexpr InterconnectBuilder kBuilders[] = {
    {"ib100", "100 Gb/s InfiniBand EDR (one NIC per node)", 12.5, 1.5},
    {"ib200", "200 Gb/s InfiniBand HDR (one NIC per node)", 25.0, 1.2},
    {"ib400", "400 Gb/s InfiniBand NDR (one NIC per node)", 50.0, 1.0},
    {"roce100", "100 Gb/s RoCEv2 Ethernet (one NIC per node)", 12.5,
     3.0},
};

} // namespace

Interconnect
makeInterconnect(const std::string &name)
{
    for (const InterconnectBuilder &b : kBuilders) {
        if (name == b.name) {
            return Interconnect{b.name, b.description, b.gbpsPerDir,
                                b.latencyUs};
        }
    }
    std::string known;
    for (const InterconnectBuilder &b : kBuilders) {
        if (!known.empty())
            known += ", ";
        known += b.name;
    }
    sim::fatal("unknown interconnect '", name, "' (known: ", known, ")");
}

bool
isInterconnect(const std::string &name)
{
    for (const InterconnectBuilder &b : kBuilders) {
        if (name == b.name)
            return true;
    }
    return false;
}

std::vector<std::string>
interconnectNames()
{
    std::vector<std::string> out;
    for (const InterconnectBuilder &b : kBuilders)
        out.push_back(b.name);
    return out;
}

std::vector<NodeId>
Cluster::gpuSet(int gpus_per_node) const
{
    if (gpus_per_node < 1 || gpus_per_node > gpusPerNode) {
        sim::fatal("requested ", gpus_per_node, " GPUs per node; each ",
                   platform.name, " node has ", gpusPerNode);
    }
    if (nodes == 1)
        return topology.gpuSet(gpus_per_node);
    std::vector<NodeId> out;
    for (int k = 0; k < nodes; ++k) {
        int picked = 0;
        for (NodeId id = k * nodeStride;
             id < (k + 1) * nodeStride && picked < gpus_per_node; ++id) {
            if (topology.nodeKind(id) == NodeKind::Gpu) {
                out.push_back(id);
                ++picked;
            }
        }
    }
    return out;
}

int
Cluster::clusterNodeOf(NodeId id) const
{
    if (id < 0 || id >= topology.numNodes())
        sim::fatal("unknown node ", id);
    if (id < nodes * nodeStride)
        return id / nodeStride;
    const NodeId nic0 = nodes * nodeStride;
    if (id < nic0 + nodes)
        return id - nic0;
    return -1; // the cluster switch belongs to no node
}

Cluster
makeCluster(const Platform &platform, int nodes,
            const std::string &interconnect)
{
    if (nodes < 1)
        sim::fatal("cluster must have at least 1 node, got ", nodes);
    Cluster cluster;
    cluster.platform = platform;
    cluster.nodes = nodes;
    cluster.interconnect = makeInterconnect(interconnect);
    cluster.nodeStride = platform.topology.numNodes();
    cluster.gpusPerNode = platform.topology.numGpus();

    if (nodes == 1) {
        // Degenerate cluster: the platform graph, bit for bit. No NIC
        // or switch nodes may be appended — Machine's determinism
        // digest folds per-link byte counters, so any extra link
        // would change the digest of a single-node run.
        cluster.topology = platform.topology;
        return cluster;
    }

    const Topology &plat = platform.topology;
    Topology topo;
    for (int k = 0; k < nodes; ++k) {
        const std::string prefix = "n" + std::to_string(k) + ".";
        for (NodeId id = 0; id < plat.numNodes(); ++id)
            topo.addNode(plat.nodeKind(id), prefix + plat.nodeLabel(id));
        for (const Link &link : plat.links()) {
            Link copy = link;
            copy.a += k * cluster.nodeStride;
            copy.b += k * cluster.nodeStride;
            topo.addLink(copy);
        }
    }

    // One NIC per node, PCIe-attached to the node's first CPU.
    NodeId first_cpu = -1;
    for (NodeId id = 0; id < plat.numNodes() && first_cpu < 0; ++id) {
        if (plat.nodeKind(id) == NodeKind::Cpu)
            first_cpu = id;
    }
    if (first_cpu < 0)
        sim::fatal("platform ", platform.name, " has no CPU node");
    std::vector<NodeId> nics;
    for (int k = 0; k < nodes; ++k) {
        NodeId nic = topo.addNode(
            NodeKind::Nic, "n" + std::to_string(k) + ".NIC0");
        nics.push_back(nic);
        topo.addLink(Link{first_cpu + k * cluster.nodeStride, nic,
                          LinkType::PCIe, 1, platform.hostSpec.pcieGBps,
                          2.0});
    }

    // A single non-blocking cluster switch; every NIC hangs off it
    // with one IB link, so inter-node flows contend max-min fairly on
    // the per-NIC links rather than inside the crossbar.
    NodeId sw = topo.addNode(NodeKind::Switch, "IBSW0");
    for (NodeId nic : nics) {
        topo.addLink(Link{nic, sw, LinkType::IB, 1,
                          cluster.interconnect.gbpsPerDir,
                          cluster.interconnect.latencyUs});
    }

    cluster.topology = std::move(topo);
    return cluster;
}

} // namespace dgxsim::hw
