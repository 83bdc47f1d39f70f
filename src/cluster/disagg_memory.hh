/**
 * @file
 * Smart disaggregated memory over the FPGA network (paper section 6).
 *
 * "We have recent work on smart disaggregated memory [Farview] where
 * the DRAM of the FPGA is made available as network attached memory
 * and accessible either through RDMA, or on Enzian by extending the
 * cache coherency protocol via a 'bridge' implemented on the FPGA.
 * This disaggregated memory can be used, for example, as a database
 * buffer cache with operator off-loading and push down directly to
 * the memory."
 *
 * DisaggMemoryServer exports a region of one Enzian's FPGA DRAM over
 * 100 GbE. Besides plain READ/WRITE it supports operator pushdown:
 * SCAN_FILTER executes a predicate over fixed-size rows *at the
 * memory* in the server FPGA, returning only matching rows - the
 * whole point of the design is that selection-heavy operators move
 * less data than an RDMA read of the table.
 *
 * Server and client each take the node whose switch port they own
 * and run on that node's FPGA timing domain, where the port's
 * endpoint side lives.
 */

#ifndef ENZIAN_CLUSTER_DISAGG_MEMORY_HH
#define ENZIAN_CLUSTER_DISAGG_MEMORY_HH

#include <functional>
#include <unordered_map>
#include <vector>

#include "base/wire_ledger.hh"
#include "net/switch.hh"
#include "platform/enzian_machine.hh"

namespace enzian::cluster {

/** Comparison operators a pushed-down predicate may use. */
enum class FilterOp : std::uint8_t {
    Eq = 0,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
};

/** A pushdown predicate over one 64-bit column of fixed-size rows. */
struct Predicate
{
    /** Byte offset of the column within a row. */
    std::uint32_t column_offset = 0;
    FilterOp op = FilterOp::Eq;
    std::uint64_t operand = 0;

    /**
     * Fatal unless the 8-byte column read fits inside a row of
     * @p row_bytes. Checked when a scan request is registered, so a
     * bad offset fails loudly instead of reading past the row buffer.
     */
    void validate(std::uint32_t row_bytes) const;

    /** Evaluate against one row (validate() must have passed). */
    bool matches(const std::uint8_t *row) const;
};

/** Network-attached FPGA memory with operator pushdown. */
class DisaggMemoryServer : public SimObject
{
  public:
    /** Server configuration. */
    struct Config
    {
        std::uint32_t port = 0;
        /** Region of FPGA DRAM exported (offset, bytes). */
        Addr region_base = 0;
        std::uint64_t region_size = 64ull << 20;
        /** Request parsing cost (ns). */
        double request_proc_ns = 250.0;
        /**
         * Scan engine throughput in rows per fabric cycle. The
         * engine consumes a 64-byte beat per cycle, so 16-byte rows
         * scan at 4 rows/cycle.
         */
        double rows_per_cycle = 4.0;
        /** Fabric clock (Hz). */
        double clock_hz = 250e6;
    };

    /** Export @p node's FPGA DRAM through its port cfg.port. */
    DisaggMemoryServer(std::string name, platform::EnzianMachine &node,
                       net::Switch &sw, const Config &cfg);

    std::uint64_t requestsServed() const { return served_.value(); }
    std::uint64_t rowsScanned() const { return scanned_.value(); }
    std::uint64_t bytesReturned() const { return returned_.value(); }

    const Config &config() const { return cfg_; }

    /**
     * @internal wire record shared with clients. The request and
     * response ledgers are owned by this server instance — several
     * servers in one process no longer collide ids or leak each
     * other's state, and the ledgers are thread-safe under
     * DomainScheduler.
     */
    struct WireRequest
    {
        enum class Kind : std::uint8_t { Read, Write, ScanFilter };
        Kind kind = Kind::Read;
        Addr off = 0;
        std::uint64_t len = 0;       // Read/Write
        std::uint32_t row_bytes = 0; // ScanFilter
        std::uint64_t row_count = 0; // ScanFilter
        Predicate pred;              // ScanFilter
        std::uint32_t srcPort = 0;
        std::vector<std::uint8_t> data; // Write payload
    };

    /**
     * Register a request; the returned id rides the frame tag.
     * ScanFilter predicates are bounds-checked here (fatal on a
     * column read that would run past the row).
     */
    std::uint64_t registerRequest(WireRequest req);
    /** Fetch (and drop) a response payload by id ({} if absent). */
    std::vector<std::uint8_t> takeResponse(std::uint64_t id);

    /** Requests currently in flight (test introspection). */
    std::size_t requestsInFlight() const { return requests_.size(); }

  private:
    void onFrame(Tick when, std::uint64_t payload, std::uint64_t user);
    void serve(std::uint64_t id);

    net::Switch &sw_;
    mem::MemoryController &mem_;
    Config cfg_;
    Counter served_;
    Counter scanned_;
    Counter returned_;
    WireLedger<WireRequest> requests_;
    WireLedger<std::vector<std::uint8_t>> responses_;
};

/** Client side: issue reads/writes/pushdown scans to a server. */
class DisaggMemoryClient : public SimObject
{
  public:
    using Done = std::function<void(Tick)>;
    /** Scan completion: (tick, matching rows, bytes on the wire). */
    using ScanDone = std::function<void(
        Tick, std::vector<std::uint8_t>, std::uint64_t)>;

    /**
     * @param node the node owning switch port @p port
     * @param server the serving instance; owns the wire ledgers and
     *        determines the destination port
     */
    DisaggMemoryClient(std::string name, platform::EnzianMachine &node,
                       net::Switch &sw, std::uint32_t port,
                       DisaggMemoryServer &server);

    /** Read @p len bytes at server offset @p off. */
    void read(Addr off, std::uint8_t *dst, std::uint64_t len,
              Done done);

    /** Write @p len bytes at server offset @p off. */
    void write(Addr off, const std::uint8_t *src, std::uint64_t len,
               Done done);

    /**
     * Push a filter down to the memory: scan @p row_count rows of
     * @p row_bytes starting at @p off, return only rows matching
     * @p pred.
     */
    void scanFilter(Addr off, std::uint32_t row_bytes,
                    std::uint64_t row_count, const Predicate &pred,
                    ScanDone done);

  private:
    void onFrame(Tick when, std::uint64_t payload, std::uint64_t user);

    struct Pending
    {
        std::uint8_t *dst = nullptr;
        Done done;
        ScanDone scan_done;
    };

    net::Switch &sw_;
    std::uint32_t port_;
    DisaggMemoryServer &server_;
    std::unordered_map<std::uint64_t, Pending> pending_;
};

} // namespace enzian::cluster

#endif // ENZIAN_CLUSTER_DISAGG_MEMORY_HH
