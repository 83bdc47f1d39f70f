/**
 * @file
 * In-process "wire" payload ledger.
 *
 * Several models move metadata and payloads out of band: a frame on
 * the simulated wire carries only an opaque id in its tag, and the
 * actual request/response record travels through an id-keyed map on
 * the side. Historically those maps were file-scope globals, which
 * broke twice over: two service instances in one process collided ids
 * and leaked entries across tests, and under DomainScheduler the
 * producer (client domain) and consumer (server domain) raced on the
 * map in the same epoch.
 *
 * WireLedger fixes both. Each owning instance holds its own ledger
 * (no cross-instance collisions; entries die with the owner), and the
 * map is mutex-protected so concurrent domain threads are safe. The
 * epoch barrier's release/acquire handshake already orders "register
 * before send" against "take after receive"; the mutex only guards
 * the map structure itself. Ids are opaque — they never feed timing
 * or statistics — so thread-dependent id values cannot perturb the
 * bit-identical determinism guarantee.
 */

#ifndef ENZIAN_BASE_WIRE_LEDGER_HH
#define ENZIAN_BASE_WIRE_LEDGER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "base/logging.hh"

namespace enzian {

/** Thread-safe id → record ledger (see file comment). */
template <typename T>
class WireLedger
{
  public:
    /** Register @p record under a fresh nonzero id. */
    std::uint64_t put(T record)
    {
        const std::uint64_t id =
            next_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(mu_);
        map_.emplace(id, std::move(record));
        return id;
    }

    /** put() for an id that rides a 32-bit tag field; dies if the
     *  id no longer fits. */
    std::uint32_t put32(T record)
    {
        const std::uint64_t id = put(std::move(record));
        ENZIAN_ASSERT(id <= 0xffffffffull,
                      "wire id %llu overflows a 32-bit tag field",
                      static_cast<unsigned long long>(id));
        return static_cast<std::uint32_t>(id);
    }

    /** Register @p record under the caller-chosen @p id. */
    void putAt(std::uint64_t id, T record)
    {
        std::lock_guard<std::mutex> lk(mu_);
        map_.insert_or_assign(id, std::move(record));
    }

    /** Remove and return the record for @p id (nullopt if absent). */
    std::optional<T> take(std::uint64_t id)
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = map_.find(id);
        if (it == map_.end())
            return std::nullopt;
        T out = std::move(it->second);
        map_.erase(it);
        return out;
    }

    /** Copy the record for @p id without removing it. */
    std::optional<T> peek(std::uint64_t id) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = map_.find(id);
        if (it == map_.end())
            return std::nullopt;
        return it->second;
    }

    /** Drop the record for @p id, if present. */
    void erase(std::uint64_t id)
    {
        std::lock_guard<std::mutex> lk(mu_);
        map_.erase(id);
    }

    /** Entries currently registered (stopped-world only). */
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return map_.size();
    }

  private:
    std::atomic<std::uint64_t> next_{1};
    mutable std::mutex mu_;
    std::unordered_map<std::uint64_t, T> map_;
};

} // namespace enzian

#endif // ENZIAN_BASE_WIRE_LEDGER_HH
