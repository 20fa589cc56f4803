/**
 * @file
 * Example: hunting coherence violations in relaxed protocols.
 *
 * Enables one of the Section 5.2 rule relaxations, exhaustively
 * explores the free-run model through a CheckSession, and prints the
 * shortest witness trace as a paper-style transition table —
 * the workflow a protocol designer would use to understand *why* a
 * restriction exists.
 *
 * Usage:
 *   violation_hunt [--mutation snoop_pushes_go|smad_guard|go_tailgate|
 *                              one_snoop] [--families swmr,...]
 *                  [--devices N]   (model size, default 2)
 *                  [--threads N]   (0 = all hardware threads)
 */

#include <cstdio>
#include <sstream>

#include "api/check.hh"
#include "api/options.hh"
#include "litmus/trace_table.hh"

using namespace cxl;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    std::string mutation = args.get("mutation", "snoop_pushes_go");

    ProtocolConfig config;
    if (mutation == "snoop_pushes_go")
        config.relaxSnoopPushesGo = true;
    else if (mutation == "smad_guard")
        config.relaxSmadSnoopGuard = true;
    else if (mutation == "go_tailgate")
        config.relaxGoTailgate = true;
    else if (mutation == "one_snoop")
        config.relaxOneSnoop = true;
    else {
        std::fprintf(stderr, "unknown mutation '%s'\n",
                     mutation.c_str());
        return 2;
    }

    api::StandardOptions opts = api::standardOptions(args);

    CheckRequest req;
    req.scenario = "free-run";
    req.devices = opts.devices;
    req.config = config;

    // Optionally narrow the hunt to specific conjunct families
    // (e.g. --families swmr reproduces the pure Table 3 violation).
    std::string families_arg = args.get("families", "");
    if (!families_arg.empty()) {
        std::vector<std::string> families;
        std::stringstream ss(families_arg);
        std::string item;
        while (std::getline(ss, item, ','))
            families.push_back(item);
        req.families = std::move(families);
    }

    CheckSession session(opts.engine);
    CheckResult res = session.run(req);

    std::printf("hunting with mutation '%s' over %zu rules, checking "
                "%zu conjuncts...\n",
                mutation.c_str(), res.numRules, res.numConjuncts);

    if (!res.violation) {
        std::printf("no violation found in %llu reachable states "
                    "(exploration %s)\n",
                    static_cast<unsigned long long>(res.states),
                    res.completed ? "complete" : "truncated");
        return 0;
    }

    std::printf("VIOLATION after %llu states: %s\n",
                static_cast<unsigned long long>(res.states),
                res.violation->describe().c_str());
    if (res.violation->trace.size() > 1) {
        std::printf("\nwitness trace (shortest):\n%s\n",
                    renderTraceTable(res.violation->trace,
                                     res.scenarioSpec,
                                     defaultTraceColumns(res.devices))
                        .c_str());
    }
    if (!res.violation->trace.empty()) {
        std::printf("bad state in full:\n%s",
                    res.violation->trace.back().state.dump().c_str());
    }
    return 1;
}
