/**
 * @file
 * ecidump: command-line decoder for ECI trace captures.
 *
 * The interoperability story of paper section 4.1: traces written by
 * any tool in the ecosystem (the simulator, an FPGA ILA exporter, the
 * Wireshark plugin) share one serialization format; this utility
 * decodes, summarizes, and checks them.
 *
 * Run `ecidump --help` for the options.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "base/cli.hh"
#include "obs/span_tracer.hh"
#include "trace/checker.hh"
#include "trace/decoder.hh"
#include "trace/eci_pcap.hh"

using namespace enzian;

int
main(int argc, char **argv)
{
    bool summary = false, check = false, chrome = false;
    std::string path;
    cli::Tool("ecidump", "Decode, summarize or check an ECI trace "
                         "capture (.ecit).")
        .flag("--summary", summary, "per-opcode/VC summary")
        .flag("--check", check, "run the protocol checker")
        .flag("--chrome", chrome,
              "Chrome/Perfetto trace JSON to stdout")
        .operand("TRACE", path)
        .parse(argc, argv);

    trace::EciTrace tr;
    tr.load(path);

    if (check) {
        trace::ProtocolChecker checker;
        checker.check(tr);
        checker.finalize();
        if (checker.clean()) {
            std::printf("%s: %zu messages, protocol-clean\n",
                        path.c_str(), tr.size());
            return 0;
        }
        std::printf("%s: %zu violations\n", path.c_str(),
                    checker.violations().size());
        for (const auto &v : checker.violations())
            std::printf("  %s\n", v.c_str());
        return 1;
    }
    if (chrome) {
        obs::SpanTracer tracer;
        trace::toChromeTrace(tr, tracer);
        tracer.writeChromeJson(std::cout);
        return 0;
    }
    if (summary) {
        trace::dumpSummary(trace::summarize(tr), std::cout);
        return 0;
    }
    trace::dumpText(tr, std::cout);
    return 0;
}
