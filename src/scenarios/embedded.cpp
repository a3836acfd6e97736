#include "scenarios/embedded.hpp"

#include <string>

#include "util/error.hpp"

namespace adpm::scenarios {

namespace {

struct File {
  std::string_view path;
  std::string_view text;
};

constexpr File kFiles[] = {
#include "embedded_files.inc"
};

}  // namespace

std::string_view embeddedFile(std::string_view path) {
  for (const File& file : kFiles) {
    if (file.path == path) return file.text;
  }
  throw InvalidArgumentError("no embedded scenario file '" +
                             std::string(path) + "'");
}

}  // namespace adpm::scenarios
