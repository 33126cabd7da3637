// The `campaign_sweep` command line as a library call, so its exit codes
// and usage errors are testable in-process.
#pragma once

namespace msa::cli {

/// Runs `campaign_sweep` on argv (argv[0] is the program name) and
/// returns its exit code: 0 success, 1 runtime failure, 2 usage error,
/// 3 sweep incomplete (cell budget reached), 4 regression gate tripped.
/// Never ends the process itself.
[[nodiscard]] int campaign_cli_main(int argc, char** argv);

}  // namespace msa::cli
