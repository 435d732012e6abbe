#include "memo/memo.hh"

#include "sim/logging.hh"

namespace cxlmemo
{
namespace memo
{

const char *
targetName(Target t)
{
    switch (t) {
      case Target::Ddr5Local:
        return "DDR5-L8";
      case Target::Ddr5Remote:
        return "DDR5-R1";
      case Target::Cxl:
        return "CXL";
    }
    return "?";
}

std::unique_ptr<Machine>
makeMachine(Target target, bool prefetch, const FaultSpec &faults)
{
    MachineOptions opts;
    opts.prefetchEnabled = prefetch;
    opts.faults = faults;
    const Testbed tb = target == Target::Ddr5Remote
                           ? Testbed::DualSocket
                           : Testbed::SingleSocketCxl;
    return std::make_unique<Machine>(tb, opts);
}

std::unique_ptr<Machine>
makeMachine(Target target, const Options &opts, bool prefetch)
{
    MachineOptions mo;
    mo.prefetchEnabled = prefetch;
    mo.faults = opts.faults;
    mo.qos = opts.qos;
    mo.chaos = opts.chaos;
    mo.obs = opts.obs;
    mo.simThreads = opts.simThreads;
    if (opts.watchdogUs > 0.0)
        mo.watchdogInterval = ticksFromUs(opts.watchdogUs);
    const Testbed tb = target == Target::Ddr5Remote
                           ? Testbed::DualSocket
                           : Testbed::SingleSocketCxl;
    return std::make_unique<Machine>(tb, mo);
}

NodeId
targetNode(Machine &m, Target target)
{
    switch (target) {
      case Target::Ddr5Local:
        return m.localNode();
      case Target::Ddr5Remote:
        return m.remoteNode();
      case Target::Cxl:
        return m.cxlNode();
    }
    CXLMEMO_PANIC("bad target");
}

std::pair<Tick, Tick>
runStream(Machine &m, std::uint16_t core,
          std::unique_ptr<AccessStream> stream)
{
    HwThread thread(m.caches(), core, m.coreParams());
    thread.setAttribution(m.attribution());
    Tick start = 0;
    Tick end = 0;
    thread.start(std::move(stream), m.eq().curTick(),
                 [&start, &end](Tick s, Tick e) {
        start = s;
        end = e;
    });
    // The watchdog stands down when the queue quiesces between
    // streams; restart its snapshot cycle for this stream's run.
    m.rearmWatchdog();
    m.run();
    CXLMEMO_ASSERT(thread.finished(), "stream did not finish");
    return {start, end};
}

} // namespace memo
} // namespace cxlmemo
