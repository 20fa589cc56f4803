/**
 * @file
 * Example: exploring litmus scenarios from the command line.
 *
 * Define a scenario with per-device programs, exhaustively explore
 * every interleaving through a CheckSession, and print the terminal
 * states plus a paper-style transition table for one representative
 * path — the workflow of paper Section 5.1 ("scenario verification").
 * `--run NAME` runs one named suite test and, when it finds a
 * violation, prints the rebuilt witness trace in the same table.
 *
 * Usage:
 *   litmus_explorer --prog1 LSE --prog2 L [--init shared|invalid|dirty]
 *                   [--devices N] [--prog3 ...] [--prog4 ...]
 *                   [--list] [--run <name>]
 *
 * Program strings: L = Load, S = Store, E = Evict (empty = idle
 * device).
 */

#include <cstdio>
#include <cstring>

#include "api/check.hh"
#include "litmus/trace_table.hh"
#include "support/cli.hh"

using namespace cxl;

namespace
{

std::vector<Instr>
parseProgram(const std::string &txt)
{
    std::vector<Instr> prog;
    for (char c : txt) {
        switch (c) {
          case 'L': case 'l': prog.push_back(Instr::Load); break;
          case 'S': case 's': prog.push_back(Instr::Store); break;
          case 'E': case 'e': prog.push_back(Instr::Evict); break;
          default:
            std::fprintf(stderr, "unknown instruction '%c'\n", c);
            std::exit(2);
        }
    }
    return prog;
}

int
runNamed(CheckSession &session, const std::string &name)
{
    for (const auto &suite :
         {builtinLitmusSuite(), restrictionRelaxationSuite()}) {
        for (const LitmusTest &test : suite) {
            if (test.name != name)
                continue;
            std::printf("%s: %s\n", test.name.c_str(),
                        test.description.c_str());
            LitmusOutcome out = session.litmus(test);
            std::printf("result: %s (%llu states)\n",
                        out.passed ? "PASS" : "FAIL",
                        static_cast<unsigned long long>(
                            out.explore.numStates));
            if (!out.passed)
                std::printf("%s\n", out.message.c_str());
            if (out.explore.violation) {
                std::printf("\nviolation: %s\n%s\n",
                            out.explore.violation->describe().c_str(),
                            renderTraceTable(
                                out.explore.violation->trace,
                                test.scenario,
                                defaultTraceColumns(
                                    test.scenario.numDevices()))
                                .c_str());
            }
            return out.passed ? 0 : 1;
        }
    }
    std::fprintf(stderr, "no litmus test named '%s'\n", name.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    CheckSession session;

    if (args.has("list")) {
        for (const auto &suite :
             {builtinLitmusSuite(), restrictionRelaxationSuite()}) {
            for (const LitmusTest &test : suite)
                std::printf("%-26s %s\n", test.name.c_str(),
                            test.description.c_str());
        }
        return 0;
    }
    if (args.has("run")) {
        if (args.has("devices")) {
            std::fprintf(stderr, "--devices is ignored with --run: "
                                 "named tests fix their own device "
                                 "count\n");
        }
        return runNamed(session, args.get("run", ""));
    }

    const int devices = deviceCountOption(args, kMaxDevices);
    for (int d = devices; d < kMaxDevices; ++d) {
        const std::string flag = "prog" + std::to_string(d + 1);
        if (args.has(flag)) {
            std::fprintf(stderr,
                         "--%s given but only %d device(s) active; "
                         "raise --devices\n",
                         flag.c_str(), devices);
            return 2;
        }
    }

    Scenario sc;
    sc.name = "custom";
    std::string init = args.get("init", "invalid");
    if (init == "shared")
        sc.initial = initialBothShared(0, devices);
    else if (init == "dirty")
        sc.initial = initialOneModified(0, 1, 0, devices);
    else
        sc.initial = initialAllInvalid(0, devices);
    for (int d = 0; d < devices; ++d) {
        const std::string flag = "prog" + std::to_string(d + 1);
        const char *fallback = d == 0 ? "S" : d == 1 ? "L" : "";
        sc.program[d] = parseProgram(args.get(flag, fallback));
    }

    LitmusTest test;
    test.name = sc.name;
    test.scenario = sc;
    LitmusOutcome out = session.litmus(test);

    std::printf("explored %llu states / %llu transitions; %zu distinct "
                "terminal state(s); invariants %s\n\n",
                static_cast<unsigned long long>(out.explore.numStates),
                static_cast<unsigned long long>(
                    out.explore.numTransitions),
                out.finals.size(),
                out.passed ? "hold everywhere" : "VIOLATED");

    for (std::size_t k = 0; k < out.finals.size(); ++k)
        std::printf("terminal %zu: %s\n", k + 1,
                    out.finals[k].brief().c_str());

    if (out.explore.violation) {
        std::printf("\nviolation: %s\n%s\n",
                    out.explore.violation->describe().c_str(),
                    renderTraceTable(out.explore.violation->trace, sc,
                                     defaultTraceColumns(devices))
                        .c_str());
    }
    return out.passed ? 0 : 1;
}
