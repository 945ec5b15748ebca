#ifndef GPAR_COMMON_FLAGS_H_
#define GPAR_COMMON_FLAGS_H_

#include "common/require_cxx20.h"  // IWYU pragma: keep

#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

#include "common/result.h"

namespace gpar {

/// Parsed `--flag value` pairs, keyed by flag name without the `--` prefix.
using FlagMap = std::map<std::string, std::string>;

/// Parses a strict `--flag value` argument list: every token at an even
/// offset from `first` must start with `--` and be followed by a value
/// token. Returns InvalidArgument for a non-flag token, a trailing flag
/// with no value (previously dropped silently), or a repeated flag.
Result<FlagMap> ParseFlagArgs(int argc, const char* const* argv, int first);

/// Returns InvalidArgument ("unknown flag '--name'") for the first flag in
/// `flags` whose name is not in `known`, so a misspelled flag is refused
/// instead of silently falling back to the default it was meant to change.
Status CheckKnownFlags(const FlagMap& flags,
                       std::initializer_list<std::string_view> known);

}  // namespace gpar

#endif  // GPAR_COMMON_FLAGS_H_
