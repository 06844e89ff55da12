// cmd_experiment — run a declarative experiment matrix from a JSON spec.
#include <iostream>

#include "cli/cli_common.h"
#include "cli/commands.h"
#include "experiment/experiment_runner.h"
#include "experiment/experiment_spec.h"

namespace cl::cli {

int cmd_experiment(const Args& args) {
  const auto spec_path = args.get("spec");
  if (!spec_path) {
    std::cerr << "experiment: missing spec path (cl experiment spec.json)"
              << "\n\n";
    return usage(2);
  }
  ExperimentRunConfig run_config;
  run_config.out_dir = args.get_or("out-dir", ".");
  run_config.threads = threads_from(args);
  const bool dry_run = args.has("dry-run");
  // A typo'd flag silently changing which cells run is worse than an
  // error — reject here instead of main.cpp's soft warning.
  for (const auto& flag : args.unused()) {
    throw ParseError("unknown flag --" + flag);
  }

  const ExperimentSpec spec = ExperimentSpec::parse_file(*spec_path);
  if (dry_run) {
    print_matrix(std::cout, spec);
    return 0;
  }

  std::cout << "experiment '" << spec.name() << "': running "
            << spec.cells().size() << " cells into " << run_config.out_dir
            << "\n";
  const ExperimentRunResult run =
      run_experiment(spec, run_config, &std::cout);
  std::cout << "wrote " << run.cells.size() << " cell files and manifest "
            << run.manifest_path << " (wall " << json_number(run.wall_seconds)
            << " s: traces " << json_number(run.trace_seconds)
            << " s, simulations " << json_number(run.simulate_seconds)
            << " s)\n";
  return 0;
}

}  // namespace cl::cli
