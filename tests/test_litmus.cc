/**
 * @file
 * Two-host sharing litmus tests over the pooled fabric. The pool's
 * ownership model is exclusive-by-default, so cross-host visibility
 * exists only through the PoolManager's explicit alias hook; these
 * tests pin down the three contracts the cluster relies on:
 *
 *  - ordering: one host's writes to a line are observed in program
 *    order (the port is FIFO, the crossbar FIFO-per-port);
 *  - write visibility: an aliased reader observes the owner's latest
 *    committed write, and an *unaliased* reader never does;
 *  - poison routing: fabric-side poison lands in the targeted host's
 *    ledger only -- the other tenant's reads stay clean.
 *
 * All tests drive a Cluster directly via inject() +
 * runFabricUntil(), no workload generators.
 */

#include <gtest/gtest.h>

#include <vector>

#include "system/cluster.hh"

namespace cxlmemo
{
namespace
{

PoolSpec
twoHostSpec()
{
    PoolSpec sp;
    sp.hosts = 2;
    sp.devices = 1;
    sp.capacityMb = 16;
    sp.ops = 1; // irrelevant: run() is never called
    return sp;
}

struct Obs
{
    Tick at = 0;
    CxlSwitch::Status status = CxlSwitch::Status::Ok;
    std::uint64_t value = 0;
    bool seen = false;
};

Cluster::InjectDone
observe(Obs &o)
{
    return [&o](Tick t, CxlSwitch::Status s, std::uint64_t v) {
        o.at = t;
        o.status = s;
        o.value = v;
        o.seen = true;
    };
}

void
drain(Cluster &c)
{
    c.runFabricUntil(c.fabricQueue().curTick() + ticksFromUs(100.0));
}

TEST(Litmus, WriteThenReadSameHostObservesProgramOrder)
{
    Cluster c(twoHostSpec());
    Obs r;
    // Two writes to the same line back to back, then a read: the
    // read must observe the *second* write even though all three ops
    // were in flight together (FIFO port, FIFO VOQ, one device).
    c.inject(0, MemCmd::Write, 128, 0xaaa, {});
    c.inject(0, MemCmd::Write, 128, 0xbbb, {});
    c.inject(0, MemCmd::Read, 128, 0, observe(r));
    drain(c);
    ASSERT_TRUE(r.seen);
    EXPECT_EQ(r.status, CxlSwitch::Status::Ok);
    EXPECT_EQ(r.value, 0xbbbu);
}

TEST(Litmus, AliasedReaderSeesOwnersWrite)
{
    Cluster c(twoHostSpec());
    c.pool().setAlias(1, 0); // host 1 reads through host 0's window
    Obs w, r;
    c.inject(0, MemCmd::Write, 4096, 0x1234, observe(w));
    drain(c);
    ASSERT_TRUE(w.seen);
    c.inject(1, MemCmd::Read, 4096, 0, observe(r));
    drain(c);
    ASSERT_TRUE(r.seen);
    EXPECT_EQ(r.status, CxlSwitch::Status::Ok);
    EXPECT_EQ(r.value, 0x1234u);
}

TEST(Litmus, UnaliasedTenantsNeverObserveEachOther)
{
    Cluster c(twoHostSpec());
    Obs r0, r1;
    // Both hosts use window address 0 -- exclusive ownership maps
    // them to *different* device lines, so host 1 must not see host
    // 0's write.
    c.inject(0, MemCmd::Write, 0, 0xdead, {});
    drain(c);
    c.inject(1, MemCmd::Read, 0, 0, observe(r1));
    c.inject(0, MemCmd::Read, 0, 0, observe(r0));
    drain(c);
    ASSERT_TRUE(r0.seen);
    ASSERT_TRUE(r1.seen);
    EXPECT_EQ(r0.value, 0xdeadu);
    EXPECT_NE(r1.value, 0xdeadu);
    EXPECT_TRUE(c.pool().ledgerOk());
}

TEST(Litmus, NtStoreVisibleToAliasedReader)
{
    Cluster c(twoHostSpec());
    c.pool().setAlias(1, 0);
    Obs r;
    c.inject(0, MemCmd::NtWrite, 256, 0x77, {});
    drain(c);
    c.inject(1, MemCmd::Read, 256, 0, observe(r));
    drain(c);
    ASSERT_TRUE(r.seen);
    EXPECT_EQ(r.value, 0x77u);
}

TEST(Litmus, PoisonLandsInTargetedHostsLedgerOnly)
{
    PoolSpec sp = twoHostSpec();
    sp.poisonHost = 0;
    sp.poisonEvery = 1; // every host-0 read completes poisoned
    Cluster c(sp);
    Obs r0, r1;
    c.inject(0, MemCmd::Read, 64, 0, observe(r0));
    c.inject(1, MemCmd::Read, 64, 0, observe(r1));
    drain(c);
    ASSERT_TRUE(r0.seen);
    ASSERT_TRUE(r1.seen);
    EXPECT_EQ(r0.status, CxlSwitch::Status::Poisoned);
    EXPECT_EQ(r1.status, CxlSwitch::Status::Ok);
    // Writes are never poisoned by the read-poison stream.
    Obs w0;
    c.inject(0, MemCmd::Write, 64, 1, observe(w0));
    drain(c);
    ASSERT_TRUE(w0.seen);
    EXPECT_EQ(w0.status, CxlSwitch::Status::Ok);
}

TEST(Litmus, FencedHostsInjectionsAbortButPeerIsUntouched)
{
    PoolSpec sp = twoHostSpec();
    Cluster c(sp);
    c.fabric().fencePort(1, ContainPolicy::Abort);
    Obs r0, r1;
    c.inject(1, MemCmd::Read, 0, 0, observe(r1));
    c.inject(0, MemCmd::Read, 0, 0, observe(r0));
    drain(c);
    ASSERT_TRUE(r0.seen);
    ASSERT_TRUE(r1.seen);
    EXPECT_EQ(r0.status, CxlSwitch::Status::Ok);
    EXPECT_EQ(r1.status, CxlSwitch::Status::Aborted);
    EXPECT_TRUE(c.fabric().creditLedgerOk());
}

} // namespace
} // namespace cxlmemo
