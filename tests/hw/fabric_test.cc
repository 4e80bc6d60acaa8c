/**
 * @file
 * Tests for the Fabric transfer engine: timing of direct, staged and
 * host-routed copies, bandwidth sharing, ablation hooks, and the
 * route memo's invalidation when an ablation rescales links.
 */

#include <gtest/gtest.h>

#include <vector>

#include "hw/fabric.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace {

using namespace dgxsim;
using namespace dgxsim::hw;
using dgxsim::sim::operator""_GiB;

class FabricTest : public ::testing::Test
{
  protected:
    sim::EventQueue queue;
    Fabric fabric{queue, Topology::dgx1Volta()};

    /** Run a transfer to completion; @return elapsed seconds. */
    double
    timedTransfer(NodeId src, NodeId dst, sim::Bytes bytes)
    {
        const sim::Tick start = queue.now();
        sim::Tick end = 0;
        fabric.transfer(src, dst, bytes, [&] { end = queue.now(); });
        queue.run();
        return sim::ticksToSec(end - start);
    }

    /** @return the NVLink index between two GPUs (must exist). */
    std::size_t
    nvlink(NodeId a, NodeId b) const
    {
        return *fabric.topology().directLink(a, b, LinkType::NVLink);
    }

    /**
     * Transfer between every GPU pair and check each one moved its
     * bytes over exactly the links of the topology's current route.
     */
    void
    expectTransfersFollowCurrentRoutes()
    {
        const Topology &topo = fabric.topology();
        const sim::Bytes bytes = 1000;
        for (NodeId a = 0; a < topo.numGpus(); ++a) {
            for (NodeId b = 0; b < topo.numGpus(); ++b) {
                std::vector<double> expect(topo.links().size());
                for (std::size_t i = 0; i < expect.size(); ++i)
                    expect[i] = fabric.linkBytesMoved(i);
                for (const RouteLeg &leg : topo.findRoute(a, b).legs)
                    expect[leg.linkIndex] += bytes;
                timedTransfer(a, b, bytes);
                for (std::size_t i = 0; i < expect.size(); ++i) {
                    EXPECT_NEAR(fabric.linkBytesMoved(i), expect[i], 1.0)
                        << a << "->" << b << " link " << i;
                }
            }
        }
    }
};

TEST_F(FabricTest, LoopbackIsInstant)
{
    EXPECT_DOUBLE_EQ(timedTransfer(2, 2, 1_GiB), 0.0);
}

TEST_F(FabricTest, DirectSingleLaneTransferMatchesBandwidth)
{
    // 250 MB over a single 25 GB/s NVLink: 10 ms + ~1 us latency.
    const double secs = timedTransfer(0, 3, 250u * 1000 * 1000);
    EXPECT_NEAR(secs, 0.010, 0.0001);
}

TEST_F(FabricTest, DualLaneLinkIsTwiceAsFast)
{
    const double single = timedTransfer(0, 3, 250u * 1000 * 1000);
    const double dual = timedTransfer(0, 1, 250u * 1000 * 1000);
    EXPECT_NEAR(single / dual, 2.0, 0.01);
}

TEST_F(FabricTest, StagedTransferTakesRoughlyTwiceDirect)
{
    // 0->7 has no direct link; store-and-forward over two hops.
    const sim::Bytes payload = 250u * 1000 * 1000;
    const double direct = timedTransfer(0, 6, payload);
    const double staged = timedTransfer(0, 7, payload);
    EXPECT_GT(staged, 1.5 * direct);
    EXPECT_LT(staged, 2.5 * direct);
}

TEST_F(FabricTest, TransferRecordsCaptureRouteKind)
{
    fabric.transfer(0, 7, 1000, [] {});
    queue.run();
    ASSERT_EQ(fabric.records().size(), 1u);
    EXPECT_EQ(fabric.records()[0].kind, RouteKind::StagedNvlink);
    EXPECT_EQ(fabric.records()[0].src, 0);
    EXPECT_EQ(fabric.records()[0].dst, 7);
    fabric.clearRecords();
    EXPECT_TRUE(fabric.records().empty());
}

TEST_F(FabricTest, ConcurrentTransfersOnOneLinkShareBandwidth)
{
    const sim::Bytes payload = 100u * 1000 * 1000;
    sim::Tick end1 = 0, end2 = 0;
    fabric.transfer(0, 3, payload, [&] { end1 = queue.now(); });
    fabric.transfer(0, 3, payload, [&] { end2 = queue.now(); });
    queue.run();
    // Two flows on one 25 GB/s direction: each ~8 ms instead of 4.
    EXPECT_NEAR(sim::ticksToSec(end1), 0.008, 0.0005);
    EXPECT_NEAR(sim::ticksToSec(end2), 0.008, 0.0005);
}

TEST_F(FabricTest, OppositeDirectionsDoNotContend)
{
    const sim::Bytes payload = 100u * 1000 * 1000;
    sim::Tick end1 = 0, end2 = 0;
    fabric.transfer(0, 3, payload, [&] { end1 = queue.now(); });
    fabric.transfer(3, 0, payload, [&] { end2 = queue.now(); });
    queue.run();
    EXPECT_NEAR(sim::ticksToSec(end1), 0.004, 0.0005);
    EXPECT_NEAR(sim::ticksToSec(end2), 0.004, 0.0005);
}

TEST_F(FabricTest, HostRouteIsSlowerThanNvlink)
{
    sim::EventQueue q2;
    Fabric pcie(q2, Topology::pcieOnly8Gpu());
    const sim::Bytes payload = 100u * 1000 * 1000;
    sim::Tick end = 0;
    pcie.transfer(0, 1, payload, [&] { end = q2.now(); });
    q2.run();
    const double pcie_secs = sim::ticksToSec(end);
    const double nvlink_secs = timedTransfer(0, 1, payload);
    EXPECT_GT(pcie_secs, 3.0 * nvlink_secs);
}

TEST_F(FabricTest, TransferDirectRequiresNeighbors)
{
    sim::Tick end = 0;
    fabric.transferDirect(0, 6, 25u * 1000 * 1000,
                          [&] { end = queue.now(); });
    queue.run();
    EXPECT_NEAR(sim::ticksToSec(end), 0.001, 0.0001);
    EXPECT_THROW(fabric.transferDirect(0, 7, 100, [] {}),
                 dgxsim::sim::FatalError);
}

TEST_F(FabricTest, ScaleNvlinkBandwidthSpeedsUpLiveFabric)
{
    const sim::Bytes payload = 250u * 1000 * 1000;
    const double before = timedTransfer(0, 3, payload);
    fabric.scaleNvlinkBandwidth(4.0);
    const double after = timedTransfer(0, 3, payload);
    EXPECT_NEAR(before / after, 4.0, 0.05);
}

TEST_F(FabricTest, LinkBytesMovedAccumulates)
{
    auto link = fabric.topology().directLink(0, 3, LinkType::NVLink);
    ASSERT_TRUE(link.has_value());
    timedTransfer(0, 3, 1000);
    timedTransfer(3, 0, 500);
    EXPECT_NEAR(fabric.linkBytesMoved(*link), 1500.0, 2.0);
}

TEST_F(FabricTest, ZeroByteTransferCompletesAfterLatency)
{
    sim::Tick end = 0;
    fabric.transfer(0, 3, 0, [&] { end = queue.now(); });
    queue.run();
    EXPECT_GT(end, 0u);
    EXPECT_LE(sim::ticksToUs(end), 5.0);
}

TEST_F(FabricTest, TransfersFollowTheRouteOfTheCurrentBandwidths)
{
    // 0->7 stages through a common neighbor, 1 or 6; both give
    // 25 GB/s and the tie goes to the lower relay. Halving 1-7 makes
    // 6 the widest relay; rescaling all NVLink restores every base
    // bandwidth and with it relay 1. Each scale must drop routes the
    // fabric memoized under the old bandwidths.
    expectTransfersFollowCurrentRoutes();
    ASSERT_EQ(fabric.topology().findRoute(0, 7).legs[0].to, 1);

    fabric.scaleLinkBandwidth(nvlink(1, 7), 0.5);
    ASSERT_EQ(fabric.topology().findRoute(0, 7).legs[0].to, 6);
    expectTransfersFollowCurrentRoutes();

    fabric.scaleNvlinkBandwidth(1.0);
    ASSERT_EQ(fabric.topology().findRoute(0, 7).legs[0].to, 1);
    expectTransfersFollowCurrentRoutes();
}

TEST_F(FabricTest, ScaleDuringATransferFinishesItOnItsRoute)
{
    // The scale drops the memoized 0->1->7 route while its first leg
    // is in flight; the transfer must still finish both legs of the
    // route it started on (a sanitizer build catches a dangling one).
    const sim::Bytes payload = 250u * 1000 * 1000;
    bool done = false;
    fabric.transfer(0, 7, payload, [&] { done = true; });
    queue.runUntil(sim::secToTicks(0.001));
    fabric.scaleLinkBandwidth(nvlink(1, 7), 0.5);
    queue.run();
    EXPECT_TRUE(done);
    ASSERT_EQ(fabric.records().size(), 1u);
    EXPECT_EQ(fabric.records()[0].kind, RouteKind::StagedNvlink);
    EXPECT_NEAR(fabric.linkBytesMoved(nvlink(0, 1)), payload, 2.0);
    EXPECT_NEAR(fabric.linkBytesMoved(nvlink(1, 7)), payload, 2.0);
    EXPECT_DOUBLE_EQ(fabric.linkBytesMoved(nvlink(0, 6)), 0.0);
}

} // namespace
