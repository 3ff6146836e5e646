/**
 * @file
 * Test helper: every RunConfig field rendered as an exact
 * "name=value" string (doubles by bit pattern), via the one field
 * list engine::forEachField, so comparisons cover fields added
 * later without editing the tests that use it.
 */

#ifndef QSURF_TESTS_RUN_CONFIG_FIELDS_H
#define QSURF_TESTS_RUN_CONFIG_FIELDS_H

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/backend.h"

namespace qsurf::testing {

inline std::vector<std::string>
fieldValues(const engine::RunConfig &c)
{
    std::vector<std::string> out;
    engine::forEachField(c, [&out](const char *name, const auto &v) {
        std::ostringstream os;
        os << name << '=';
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                     double>) {
            uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof(bits));
            os << std::hex << bits;
        } else {
            os << v;
        }
        out.push_back(os.str());
    });
    return out;
}

} // namespace qsurf::testing

#endif // QSURF_TESTS_RUN_CONFIG_FIELDS_H
