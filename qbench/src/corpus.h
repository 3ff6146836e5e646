/**
 * @file
 * Seeded input generator of the three qbench workloads.  Every input
 * is a pure function of the --seed argument; the library sees only
 * the generated grids, QASM texts and requests.  Why each workload
 * and size was chosen is recorded in qbench/WORKLOADS.md.
 */

#ifndef QBENCH_CORPUS_H
#define QBENCH_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

#include "engine/sweep.h"
#include "service/service.h"
#include "toolflow/toolflow.h"

namespace qbench::corpus {

/** @return a splitmix64 mix of @p a and @p b. */
uint64_t mix(uint64_t a, uint64_t b);

/** Code distance of the contended-sweep points. */
constexpr int kSweepDistance = 15;

/**
 * contended-sweep: one single-backend grid per mesh scheduler
 * (surgery, hybrid, braid), each holding IM-semi and SHA-1 instances
 * on several seeded layouts.
 */
std::vector<qsurf::engine::SweepGrid> contendedGrids(uint64_t seed);

/** One qasm-compile program: QASM text plus its toolflow config. */
struct QasmProgram
{
    std::string id;
    std::string source;
    qsurf::toolflow::Config config;
};

/** qasm-compile: the corpus, in a seeded order, compiled cold one by
 *  one. */
std::vector<QasmProgram> qasmCorpus(uint64_t seed);

/** service-mix: every unique request of the closed loop (each
 *  program clean and on a damaged fabric, clean twin first). */
std::vector<qsurf::service::CompileRequest> requestCatalog();

/** @return catalog index of the twin of request @p i that differs
 *  only in its fabric damage. */
inline size_t
twinOf(size_t i)
{
    return i ^ 1u;
}

/** @return the request order of connection @p conn in pass
 *  @p pass: a permutation of the catalog drawn from @p seed. */
std::vector<size_t> connectionSequence(uint64_t seed, size_t catalog,
                                       int conn, int pass);

} // namespace qbench::corpus

#endif // QBENCH_CORPUS_H
