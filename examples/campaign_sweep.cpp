// Parallel campaign sweep CLI: the grid sweep, its crash-safe store and
// the merge/stats/diff/compact/metrics/progress/axes subcommands. Run it
// with an unknown flag to print the usage.
#include "cli/campaign_cli.h"

int main(int argc, char** argv) {
  return msa::cli::campaign_cli_main(argc, argv);
}
