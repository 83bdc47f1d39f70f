/**
 * @file
 * CrossDomainChannel implementation.
 */

#include "sim/cross_domain_channel.hh"

#include "base/logging.hh"
#include "sim/channel_lane.hh"

namespace enzian::sim {

void
CrossDomainChannel::checkPush(Tick when) const
{
    // The conservative-lookahead invariant: delivery must be far
    // enough in the future that the destination domain cannot already
    // have simulated past it when the barrier drains this channel.
    ENZIAN_ASSERT(when >= srcq_.now() + lookahead_,
                  "cross-domain push violates lookahead: when=%llu "
                  "src now=%llu lookahead=%llu",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(srcq_.now()),
                  static_cast<unsigned long long>(lookahead_));
    // The epoch-growth invariant: if the source domain promised it
    // would stay send-quiescent until some tick, the scheduler may
    // have stretched the current epoch on the strength of that
    // promise, so sending earlier is unconditionally a bug.
    ENZIAN_ASSERT(srcPromise_ == nullptr ||
                      srcq_.now() >= *srcPromise_,
                  "cross-domain push violates no-send promise: "
                  "src now=%llu promised quiescent before %llu",
                  static_cast<unsigned long long>(srcq_.now()),
                  static_cast<unsigned long long>(
                      srcPromise_ ? *srcPromise_ : 0));
}

void
CrossDomainChannel::push(Tick when, EventFn fn)
{
    checkPush(when);
    entries_.push_back(Entry{
        when, kGenericLane, static_cast<std::uint32_t>(fns_.size())});
    fns_.push_back(std::move(fn));
}

std::uint32_t
CrossDomainChannel::addLane(ChannelLaneBase &lane)
{
    const auto id = static_cast<std::uint32_t>(lanes_.size());
    lanes_.push_back(&lane);
    return id;
}

void
CrossDomainChannel::pushLane(Tick when, std::uint32_t lane,
                             std::uint32_t idx)
{
    checkPush(when);
    entries_.push_back(Entry{when, lane, idx});
}

std::uint64_t
CrossDomainChannel::drain()
{
    // Slots the destination retired last epoch are free again: the
    // barrier handshake has already published those writes.
    for (ChannelLaneBase *lane : lanes_)
        lane->recycle();

    // Each delivery's same-tick key is (source id, running push
    // index): a property of the sender's timeline alone, so the
    // destination's tie order never depends on which barrier carried
    // the message (see EventQueue::scheduleKeyed).
    const auto n = static_cast<std::uint64_t>(entries_.size());
    ENZIAN_ASSERT(forwarded_ + n <= kIndexMask,
                  "channel %u->%u exhausted its delivery keys", srcId_,
                  dstId_);
    std::uint64_t key =
        (static_cast<std::uint64_t>(srcId_) << kIndexBits) | forwarded_;
    for (const Entry &e : entries_) {
        if (e.lane == kGenericLane)
            dstq_.scheduleKeyed(e.when, key++, std::move(fns_[e.idx]));
        else
            lanes_[e.lane]->forward(e.when, key++, e.idx);
    }
    entries_.clear();
    fns_.clear();
    forwarded_ += n;
    return n;
}

} // namespace enzian::sim
