#include "common/flags.h"

#include <algorithm>

namespace gpar {

Result<FlagMap> ParseFlagArgs(int argc, const char* const* argv, int first) {
  FlagMap flags;
  for (int i = first; i < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || key.size() == 2) {
      return Status::InvalidArgument("expected --flag, got '" + key + "'");
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag '" + key + "' is missing a value");
    }
    auto [it, inserted] = flags.emplace(key.substr(2), argv[i + 1]);
    (void)it;
    if (!inserted) {
      return Status::InvalidArgument("flag '" + key + "' given twice");
    }
  }
  return flags;
}

Status CheckKnownFlags(const FlagMap& flags,
                       std::initializer_list<std::string_view> known) {
  for (const auto& flag : flags) {
    if (std::find(known.begin(), known.end(), flag.first) == known.end()) {
      return Status::InvalidArgument("unknown flag '--" + flag.first + "'");
    }
  }
  return Status::OK();
}

}  // namespace gpar
