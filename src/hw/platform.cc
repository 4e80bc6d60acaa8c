#include "hw/platform.hh"

#include <string>
#include <utility>

#include "sim/logging.hh"
#include "sim/suggest.hh"

namespace dgxsim::hw {

namespace {

Platform
dgx1v()
{
    return Platform{
        "dgx1v",
        "8x V100 DGX-1, hybrid cube-mesh NVLink (the paper's machine)",
        Topology::dgx1Volta(), GpuSpec::voltaV100(),
        HostSpec::xeonE52698v4()};
}

Platform
dgx1p()
{
    // The GPU-generation ablation's machine: the Volta cube-mesh with
    // Pascal P100 devices, so compute generation is the only variable
    // (the bench pinned its outputs against exactly this pairing).
    return Platform{
        "dgx1p",
        "DGX-1 cube-mesh with Pascal P100 GPUs (generation ablation)",
        Topology::dgx1Volta(), GpuSpec::pascalP100(),
        HostSpec::xeonE52698v4()};
}

Platform
dgx1vUniform()
{
    return Platform{
        "dgx1v-uniform",
        "DGX-1 edge set with uniform NVLink bandwidth (asymmetry "
        "ablation)",
        Topology::dgx1VoltaUniform(), GpuSpec::voltaV100(),
        HostSpec::xeonE52698v4()};
}

Platform
pcie8()
{
    return Platform{
        "pcie8", "8x V100 with no NVLink; all traffic is host-staged",
        Topology::pcieOnly8Gpu(), GpuSpec::voltaV100(),
        HostSpec::xeonE52698v4()};
}

/**
 * DGX-2: two baseboards of 8 V100s, each GPU attached to its board's
 * NVSwitch crossbar with all six NVLink bricks, and the crossbars
 * joined by a full-bisection trunk. Every GPU pair talks at the full
 * 6-brick rate through one or two switch hops; there are no direct
 * GPU-GPU NVLinks at all.
 */
Topology
dgx2Topology()
{
    Topology topo;
    constexpr int num_gpus = 16;
    for (int g = 0; g < num_gpus; ++g)
        topo.addNode(NodeKind::Gpu, "GPU" + std::to_string(g));
    const NodeId cpu0 = topo.addNode(NodeKind::Cpu, "CPU0");
    const NodeId cpu1 = topo.addNode(NodeKind::Cpu, "CPU1");
    const NodeId nvs0 = topo.addNode(NodeKind::Switch, "NVS0");
    const NodeId nvs1 = topo.addNode(NodeKind::Switch, "NVS1");

    constexpr double nvlink_gbps = 25.0;
    constexpr double nvlink_lat_us = 1.0;
    for (NodeId g = 0; g < num_gpus; ++g) {
        topo.addLink(Link{g, g < 8 ? nvs0 : nvs1, LinkType::NVLink, 6,
                          nvlink_gbps, nvlink_lat_us});
    }
    // Inter-baseboard trunk: 48 lanes keep the crossbar
    // non-blocking for all eight cross-board pairs at once.
    topo.addLink(Link{nvs0, nvs1, LinkType::NVLink, 48, nvlink_gbps,
                      nvlink_lat_us});

    const HostSpec host = HostSpec::xeonE52698v4();
    for (NodeId g = 0; g < num_gpus; ++g) {
        topo.addLink(Link{g < 8 ? cpu0 : cpu1, g, LinkType::PCIe, 1,
                          host.pcieGBps, 2.0});
    }
    topo.addLink(Link{cpu0, cpu1, LinkType::QPI, 1, host.qpiGBps, 0.5});
    return topo;
}

Platform
dgx2()
{
    return Platform{
        "dgx2",
        "16x V100 through per-baseboard NVSwitch crossbars (DGX-2)",
        dgx2Topology(), GpuSpec::voltaV100(),
        HostSpec::xeonE52698v4()};
}

struct Builder
{
    const char *name;
    Platform (*build)();
};

// Registration order is presentation order in `dgxprof list platforms`.
constexpr Builder kBuilders[] = {
    {"dgx1v", dgx1v},       {"dgx1p", dgx1p},
    {"dgx1v-uniform", dgx1vUniform}, {"pcie8", pcie8},
    {"dgx2", dgx2},
};

} // namespace

Platform
makePlatform(const std::string &name)
{
    for (const Builder &b : kBuilders) {
        if (name == b.name)
            return b.build();
    }
    std::string known;
    for (const Builder &b : kBuilders) {
        if (!known.empty())
            known += ", ";
        known += b.name;
    }
    sim::fatal("unknown platform '", name, "'",
               sim::didYouMean(name, platformNames()),
               " (known: ", known, ")");
}

bool
isPlatform(const std::string &name)
{
    for (const Builder &b : kBuilders) {
        if (name == b.name)
            return true;
    }
    return false;
}

std::vector<std::string>
platformNames()
{
    std::vector<std::string> out;
    for (const Builder &b : kBuilders)
        out.emplace_back(b.name);
    return out;
}

} // namespace dgxsim::hw
