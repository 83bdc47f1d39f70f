/**
 * @file
 * Fault injector implementation.
 */

#include "fault/fault_injector.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "sim/domain_scheduler.hh"

namespace enzian::fault {

namespace {

/**
 * Subsystem stream ordinals; mixed into the plan seed with a
 * golden-ratio stride so per-subsystem streams are decorrelated.
 */
constexpr std::uint64_t streamStride = 0x9e3779b97f4a7c15ull;

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t ordinal)
{
    return seed ^ (ordinal * streamStride);
}

/** Initial retry timeouts; generous against retrain-length stalls. */
constexpr double eciRetryUs = 30.0;
constexpr double netRtoUs = 150.0;
constexpr double rdmaRetryUs = 50.0;

/** A small pool of glitchable rails per domain. */
const char *const cpuRails[] = {"VDD_CORE", "VDD_09", "P1V8_CPU",
                                "VDD_DDR_C01"};
const char *const fpgaRails[] = {"VCCINT", "VCCAUX", "MGTAVCC",
                                 "VDD_DDR_F"};

/** Open (@p on) or close a window adding @p p to @p slot. */
void
openWindow(double &slot, double p, bool on)
{
    slot = on ? slot + p : std::max(0.0, slot - p);
}

} // namespace

FaultInjector::FaultInjector(std::string name, EventQueue &eq,
                             const FaultPlan &plan)
    : SimObject(std::move(name), eq), plan_(plan),
      eciRng_{Rng(streamSeed(plan.seed, 16)),
              Rng(streamSeed(plan.seed, 17))},
      dramRng_{Rng(streamSeed(plan.seed, 2)),
               Rng(streamSeed(plan.seed, 18))},
      netRng_(streamSeed(plan.seed, 3)),
      rdmaRng_(streamSeed(plan.seed, 4)),
      bmcRng_(streamSeed(plan.seed, 5))
{
    for (std::size_t k = 0; k < faultKindCount; ++k) {
        stats().addCounter(
            std::string("injected_") +
                toString(static_cast<FaultKind>(k)),
            &injected_[k]);
    }
}

bool
FaultInjector::eciLossy() const
{
    return plan_.hasKind(FaultKind::EciMsgDrop) ||
           plan_.hasKind(FaultKind::EciMsgCorrupt) ||
           plan_.hasKind(FaultKind::EciLinkFlap);
}

void
FaultInjector::attachEci(eci::EciFabric &fabric,
                         eci::HomeAgent &cpu_home,
                         eci::HomeAgent &fpga_home,
                         eci::RemoteAgent &cpu_remote,
                         eci::RemoteAgent &fpga_remote)
{
    fabric_ = &fabric;
    homes_[0] = &cpu_home;
    homes_[1] = &fpga_home;
    remotes_[0] = &cpu_remote;
    remotes_[1] = &fpga_remote;

    for (const auto &s : plan_.faults) {
        if (s.kind == FaultKind::EciMsgDrop ||
            s.kind == FaultKind::EciMsgCorrupt)
            eciMsgSpecs_.push_back(s);
    }
    if (!eciMsgSpecs_.empty()) {
        for (std::uint32_t i = 0; i < fabric.linkCount(); ++i) {
            fabric.link(i).setFaultFilter(
                [this](Tick t, const eci::EciMsg &m) {
                    return eciFilter(t, m);
                });
        }
    }
    if (eciLossy()) {
        // Loss anywhere on the fabric needs the full recovery stack:
        // requester same-tid retries, home-side dedup + replay, and
        // home snoop retries.
        cpu_remote.enableRecovery(eciRetryUs, 24);
        fpga_remote.enableRecovery(eciRetryUs, 24);
        cpu_home.enableRecovery(eciRetryUs, 24);
        fpga_home.enableRecovery(eciRetryUs, 24);
    }
}

eci::EciLink::FaultAction
FaultInjector::eciFilter(Tick t, const eci::EciMsg &msg)
{
    // IPIs have no retry path, so loss injection exempts them.
    if (msg.op == eci::Opcode::IPI)
        return eci::EciLink::FaultAction::Deliver;
    // The filter runs on the sending side, which alone draws from its
    // direction's stream.
    const auto dir = static_cast<std::size_t>(msg.src);
    for (const auto &s : eciMsgSpecs_) {
        if (t < s.at || (s.until != 0 && t >= s.until))
            continue;
        if (eciRng_[dir].chance(s.prob)) {
            count(s.kind, dir);
            return s.kind == FaultKind::EciMsgDrop
                       ? eci::EciLink::FaultAction::Drop
                       : eci::EciLink::FaultAction::Corrupt;
        }
    }
    return eci::EciLink::FaultAction::Deliver;
}

void
FaultInjector::bindDomains(sim::DomainScheduler &sched,
                           sim::TimingDomain &cpu_domain,
                           sim::TimingDomain &fpga_domain)
{
    ENZIAN_ASSERT(!armed_, "bindDomains() must precede arm()");
    stagedCounts_.arm();
    domainQ_ = {&cpu_domain.queue(), &fpga_domain.queue()};
    sched.addBarrierTask([this] { foldDomainCounts(); });
}

std::size_t
FaultInjector::stageOf(const EventQueue &q) const
{
    if (!stagedCounts_.armed())
        return 0;
    ENZIAN_ASSERT(&q == domainQ_[0] || &q == domainQ_[1],
                  "fault injector '%s': an attached subsystem runs "
                  "outside the machine's two domains",
                  name().c_str());
    return &q == domainQ_[1] ? 1 : 0;
}

void
FaultInjector::count(FaultKind k, std::size_t stage)
{
    if (stagedCounts_.armed())
        ++stagedCounts_[stage][static_cast<std::size_t>(k)];
    else
        injected_[static_cast<std::size_t>(k)].inc();
}

void
FaultInjector::foldDomainCounts()
{
    // Fixed fold order (CPU domain, then FPGA) so the shared counters
    // are identical for every thread count.
    stagedCounts_.fold([this](std::array<std::uint64_t,
                                         faultKindCount> &dir) {
        for (std::size_t k = 0; k < faultKindCount; ++k) {
            if (dir[k] != 0) {
                injected_[k].inc(dir[k]);
                dir[k] = 0;
            }
        }
    });
}

void
FaultInjector::attachDram(mem::DramSystem &cpu_dram,
                          mem::DramSystem &fpga_dram)
{
    drams_[0] = &cpu_dram;
    drams_[1] = &fpga_dram;
}

void
FaultInjector::applyDramWindows(std::size_t node)
{
    const auto &cfg = eccNow_[node];
    const bool active =
        cfg.correctable_prob > 0.0 || cfg.uncorrectable_prob > 0.0;
    mem::DramSystem &dram = *drams_[node];
    for (std::uint32_t i = 0; i < dram.channelCount(); ++i)
        dram.channel(i).armEcc(active ? &dramRng_[node] : nullptr, cfg);
}

void
FaultInjector::attachNet(net::TcpStack &a, net::TcpStack &b)
{
    ENZIAN_ASSERT(&a.eventq() == &b.eventq(),
                  "fault injector: TCP pair on two queues");
    tcp_[0] = &a;
    tcp_[1] = &b;
    if (plan_.hasKind(FaultKind::NetLoss) ||
        plan_.hasKind(FaultKind::NetReorder)) {
        // The sequenced wire format must be on before any flow opens.
        a.enableReliable(netRtoUs);
        b.enableReliable(netRtoUs);
    }
}

void
FaultInjector::applyNetWindows()
{
    Rng *rng =
        (netDropNow_ > 0.0 || netReorderNow_ > 0.0) ? &netRng_ : nullptr;
    for (auto *stack : tcp_) {
        stack->setLossFaults(rng, netDropNow_, netReorderNow_,
                             netReorderDelayUs_);
    }
}

void
FaultInjector::attachRdma(net::RdmaInitiator &ini, net::RdmaTarget &tgt,
                          bool abandon_after_retries)
{
    ENZIAN_ASSERT(&ini.eventq() == &tgt.eventq(),
                  "fault injector: RDMA pair on two queues");
    rdmaIni_ = &ini;
    rdmaTgt_ = &tgt;
    if (plan_.hasKind(FaultKind::RdmaDrop))
        ini.enableRecovery(rdmaRetryUs, 16, abandon_after_retries);
}

void
FaultInjector::applyRdmaWindows()
{
    Rng *rng = rdmaDropNow_ > 0.0 ? &rdmaRng_ : nullptr;
    rdmaIni_->setFaults(rng, rdmaDropNow_);
    rdmaTgt_->setFaults(rng, rdmaDropNow_);
}

void
FaultInjector::attachBmc(bmc::Bmc &bmc)
{
    bmc_ = &bmc;
}

void
FaultInjector::arm()
{
    ENZIAN_ASSERT(!armed_, "FaultInjector armed twice");
    armed_ = true;
    Tick bmcAt = 0;
    bool haveGlitch = false;
    for (const auto &s : plan_.faults) {
        switch (s.kind) {
          case FaultKind::EciMsgDrop:
          case FaultKind::EciMsgCorrupt:
            break; // handled by the per-send filter
          case FaultKind::EciLaneFail:
          case FaultKind::EciLinkFlap:
            if (fabric_)
                scheduleEciFault(s);
            break;
          case FaultKind::DramEccCorrectable:
          case FaultKind::DramEccUncorrectable: {
            const std::size_t node = s.target % 2;
            if (!drams_[node])
                break;
            auto &cfg = eccNow_[node];
            double &slot = s.kind == FaultKind::DramEccCorrectable
                               ? cfg.correctable_prob
                               : cfg.uncorrectable_prob;
            scheduleWindow(
                drams_[node]->channel(0).eventq(), s,
                [this, node, &slot, p = s.prob](bool on) {
                    openWindow(slot, p, on);
                    applyDramWindows(node);
                },
                "fault-ecc-on", "fault-ecc-off");
            break;
          }
          case FaultKind::NetLoss:
          case FaultKind::NetReorder: {
            if (!tcp_[0])
                break;
            const bool loss = s.kind == FaultKind::NetLoss;
            double &slot = loss ? netDropNow_ : netReorderNow_;
            const double delay = loss ? 0.0 : s.param;
            scheduleWindow(
                tcp_[0]->eventq(), s,
                [this, &slot, delay, p = s.prob](bool on) {
                    openWindow(slot, p, on);
                    if (on && delay > 0.0)
                        netReorderDelayUs_ = delay;
                    applyNetWindows();
                },
                "fault-net-on", "fault-net-off");
            break;
          }
          case FaultKind::RdmaDrop: {
            if (!rdmaIni_)
                break;
            scheduleWindow(
                rdmaIni_->eventq(), s,
                [this, p = s.prob](bool on) {
                    openWindow(rdmaDropNow_, p, on);
                    applyRdmaWindows();
                },
                "fault-rdma-on", "fault-rdma-off");
            break;
          }
          case FaultKind::BmcRailGlitch: {
            if (!bmc_)
                break;
            const bool cpu = s.target % 2 == 0;
            const char *rail = cpu ? cpuRails[bmcRng_.below(4)]
                                   : fpgaRails[bmcRng_.below(4)];
            glitchRails_.emplace_back(rail);
            haveGlitch = true;
            bmcAt = std::max(bmcAt, s.at);
            break;
          }
        }
    }
    if (haveGlitch)
        scheduleBmcPowerUp(bmcAt);
}

void
FaultInjector::scheduleWindow(EventQueue &q, const FaultSpec &s,
                              std::function<void(bool)> apply,
                              const char *on_what, const char *off_what)
{
    // The window opens (and is counted) and closes on the queue of
    // the subsystem it changes.
    const std::size_t stage = stageOf(q);
    q.schedule(
        s.at,
        [this, apply, stage, kind = s.kind]() {
            count(kind, stage);
            apply(true);
        },
        on_what);
    if (s.until > s.at)
        q.schedule(s.until, [apply]() { apply(false); }, off_what);
}

void
FaultInjector::scheduleEciFault(const FaultSpec &s)
{
    auto &link = fabric_->link(s.target % fabric_->linkCount());
    const bool flap = s.kind == FaultKind::EciLinkFlap;
    const Tick down = units::us(std::max(s.param, 0.5));
    const auto n = static_cast<std::uint32_t>(s.param);
    // Both sides apply the fault at the same tick, each on its own
    // queue; the CPU side's half counts the injection.
    for (const auto side : {mem::NodeId::Cpu, mem::NodeId::Fpga}) {
        EventQueue &q = link.sideQueue(side);
        const std::size_t stage = stageOf(q);
        q.schedule(
            s.at,
            [this, &link, side, flap, down, n, stage, kind = s.kind]() {
                if (side == mem::NodeId::Cpu)
                    count(kind, stage);
                if (flap)
                    link.flap(side, down);
                else
                    link.failLanes(side, n);
            },
            flap ? "fault-link-flap" : "fault-lane-fail");
        if (!flap && s.until > s.at) {
            q.schedule(
                s.until,
                [&link, side, before = link.lanes(side)]() {
                    link.restoreLanes(side, before);
                },
                "fault-lane-restore");
        }
    }
}

void
FaultInjector::scheduleBmcPowerUp(Tick at)
{
    // Rail glitches need a powered board: sequence standby, then both
    // domains, then run the glitches strictly one after another so
    // power cycles of a domain never overlap.
    EventQueue &q = bmc_->eventq();
    q.schedule(
        std::max(at, bmc_->now() + units::us(1.0)),
        [this, &q]() {
            const Tick standby = bmc_->domainUp(bmc::Domain::Standby)
                                     ? bmc_->now()
                                     : bmc_->commonPowerUp();
            q.schedule(
                standby + units::us(1.0),
                [this, &q]() {
                    Tick ready = bmc_->now();
                    if (!bmc_->domainUp(bmc::Domain::Cpu))
                        ready = std::max(ready, bmc_->cpuPowerUp());
                    if (!bmc_->domainUp(bmc::Domain::Fpga))
                        ready = std::max(ready, bmc_->fpgaPowerUp());
                    q.schedule(
                        ready + units::us(1.0),
                        [this]() { runNextGlitch(0); },
                        "fault-bmc-glitches");
                },
                "fault-bmc-domains-up");
        },
        "fault-bmc-power-up");
}

void
FaultInjector::runNextGlitch(std::size_t i)
{
    if (i >= glitchRails_.size())
        return;
    EventQueue &q = bmc_->eventq();
    count(FaultKind::BmcRailGlitch, stageOf(q));
    const Tick settled = bmc_->injectRailGlitch(glitchRails_[i]);
    q.schedule(
        settled + units::us(10.0),
        [this, i]() { runNextGlitch(i + 1); }, "fault-bmc-next-glitch");
}

std::uint64_t
FaultInjector::injectedTotal() const
{
    std::uint64_t total = 0;
    for (const auto &c : injected_)
        total += c.value();
    return total;
}

std::string
FaultInjector::report() const
{
    std::ostringstream os;
    os << "fault plan seed " << plan_.seed << ", "
       << plan_.faults.size() << " spec(s)\n";
    for (std::size_t k = 0; k < faultKindCount; ++k) {
        if (injected_[k].value() == 0)
            continue;
        os << "  " << toString(static_cast<FaultKind>(k)) << ": "
           << injected_[k].value() << " injected\n";
    }
    if (fabric_) {
        std::uint64_t dropped = 0, corrupted = 0, retrains = 0,
                      lost = 0;
        for (std::uint32_t i = 0; i < fabric_->linkCount(); ++i) {
            auto &l = fabric_->link(i);
            dropped += l.messagesDropped();
            corrupted += l.messagesCorrupted();
            retrains += l.retrains();
            lost += l.creditsReconciled();
        }
        os << "  eci: " << dropped << " dropped, " << corrupted
           << " corrupted, " << retrains << " retrain(s), " << lost
           << " lost in flaps\n";
        os << "  eci recovery: "
           << remotes_[0]->retriesSent() + remotes_[1]->retriesSent()
           << " request retries, "
           << homes_[0]->responsesReplayed() +
                  homes_[1]->responsesReplayed()
           << " replays, "
           << homes_[0]->snoopRetries() + homes_[1]->snoopRetries()
           << " snoop retries\n";
    }
    if (drams_[0]) {
        std::uint64_t corr = 0, uncorr = 0;
        for (auto *d : drams_) {
            for (std::uint32_t i = 0; i < d->channelCount(); ++i) {
                corr += d->channel(i).eccCorrectable();
                uncorr += d->channel(i).eccUncorrectable();
            }
        }
        os << "  dram: " << corr << " correctable, " << uncorr
           << " uncorrectable (all scrubbed/retried)\n";
    }
    if (tcp_[0]) {
        os << "  tcp: "
           << tcp_[0]->segmentsDropped() + tcp_[1]->segmentsDropped()
           << " dropped, "
           << tcp_[0]->segmentsReordered() +
                  tcp_[1]->segmentsReordered()
           << " reordered, "
           << tcp_[0]->retransmits() + tcp_[1]->retransmits()
           << " retransmits\n";
    }
    if (rdmaIni_) {
        os << "  rdma: " << rdmaIni_->requestsDropped()
           << " requests dropped, " << rdmaTgt_->responsesDropped()
           << " responses dropped, " << rdmaIni_->retriesSent()
           << " retries\n";
    }
    if (bmc_) {
        os << "  bmc: " << bmc_->railGlitches() << " glitch(es), "
           << bmc_->railRecoveries() << " recovered\n";
    }
    return os.str();
}

} // namespace enzian::fault
