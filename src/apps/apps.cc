#include "apps/apps.h"

#include <array>
#include <utility>

#include "common/logging.h"

namespace qsurf::apps {

// Implemented in the per-app translation units.
circuit::Circuit generateGse(const GenOptions &opts);
circuit::Circuit generateSq(const GenOptions &opts);
circuit::Circuit generateSha1(const GenOptions &opts);
circuit::Circuit generateIsing(const GenOptions &opts, bool full_inline);

const std::vector<AppKind> &
allApps()
{
    static const std::vector<AppKind> kinds{
        AppKind::GSE, AppKind::SQ, AppKind::SHA1,
        AppKind::IsingSemi, AppKind::IsingFull,
    };
    return kinds;
}

const AppSpec &
appSpec(AppKind kind)
{
    static const std::array<AppSpec, 5> specs{{
        {AppKind::GSE, "GSE",
         "Compute ground state energy for molecule of size m",
         1.2, false},
        {AppKind::SQ, "SQ",
         "Find square root of an n-bit number",
         1.5, false},
        {AppKind::SHA1, "SHA-1",
         "SHA-1 decryption of n-bit message",
         29.0, true},
        {AppKind::IsingSemi, "IM-semi",
         "Ground state for Ising model on n-qubit spin chain",
         66.0, true},
        {AppKind::IsingFull, "IM-full",
         "Ising model, maximal inlining",
         66.0, true},
    }};
    for (const auto &s : specs)
        if (s.kind == kind)
            return s;
    panic("unknown AppKind ", static_cast<int>(kind));
}

bool
parseAppArg(const std::string &name, AppKind &out)
{
    static const std::pair<const char *, AppKind> names[] = {
        {"gse", AppKind::GSE},           {"sq", AppKind::SQ},
        {"sha1", AppKind::SHA1},         {"im-semi", AppKind::IsingSemi},
        {"im-full", AppKind::IsingFull},
    };
    for (const auto &[arg, kind] : names) {
        if (name == arg) {
            out = kind;
            return true;
        }
    }
    return false;
}

circuit::Circuit
generate(AppKind kind, const GenOptions &opts)
{
    fatalIf(opts.problem_size < 2, "problem size must be >= 2, got ",
            opts.problem_size);
    switch (kind) {
      case AppKind::GSE:
        return generateGse(opts);
      case AppKind::SQ:
        return generateSq(opts);
      case AppKind::SHA1:
        return generateSha1(opts);
      case AppKind::IsingSemi:
        return generateIsing(opts, false);
      case AppKind::IsingFull:
        return generateIsing(opts, true);
    }
    panic("unknown AppKind ", static_cast<int>(kind));
}

GenOptions
defaultOptions(AppKind kind)
{
    GenOptions opts;
    switch (kind) {
      case AppKind::GSE:
        opts.problem_size = 24;
        break;
      case AppKind::SQ:
        opts.problem_size = 8;
        opts.max_iterations = 12;
        break;
      case AppKind::SHA1:
        opts.problem_size = 32; // word width of real SHA-1.
        opts.max_iterations = 16; // hash rounds to materialize.
        break;
      case AppKind::IsingSemi:
      case AppKind::IsingFull:
        opts.problem_size = 100;
        opts.max_iterations = 10;
        break;
    }
    return opts;
}

std::string
sampleHierarchicalQasm()
{
    return R"(# 4-bit majority-vote toy program with hierarchical modules
qbit q[4];
qbit anc[1];
cbit c[1];

module majority(a, b, c) {
    CNOT c, b;
    CNOT c, a;
    Toffoli a, b, c;
}

module round(a, b, c, out) {
    majority a, b, c;
    CNOT c, out;
    majority a, b, c;  # uncompute
}

H q[0];
H q[1];
H q[2];
round q[0], q[1], q[2], q[3];
T anc[0];
CNOT q[3], anc[0];
Rz(0.785398) anc[0];
MeasZ anc[0] -> c[0];
)";
}

} // namespace qsurf::apps
