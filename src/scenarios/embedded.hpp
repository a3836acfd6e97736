// The scenario files checked in under scenarios/, compiled into the library
// (src/scenarios/CMakeLists.txt).  They are the only definition of the
// registered paper cases (DDDL) and zoo presets (paramfile JSON).
#pragma once

#include <string_view>

namespace adpm::scenarios {

/// Bytes of scenarios/<path> as of the build, e.g. "receiver.dddl" or
/// "zoo/zoo-toy.json".  Throws InvalidArgumentError for a path that is not
/// embedded.
std::string_view embeddedFile(std::string_view path);

}  // namespace adpm::scenarios
