// layerbench: the repository's layered benchmark.
//
//   layerbench --workload <interactive_exact|served_mixed|ondisk_ingest>
//              --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//              [--git-sha <sha>]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) replay the workload once per layer entrance and print the
// per-layer table. The last stdout line is always the JSON result. Use
// run.py, which builds this program in Release and passes --workdir.
#include <sys/stat.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::cerr << "layerbench: " << why
            << "\nusage: layerbench --workload <interactive_exact|"
               "served_mixed|ondisk_ingest> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--git-sha <sha>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  layerbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--git-sha") {
      config.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (std::strcmp(LAYERBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "layerbench: refusing to report from a "
              << LAYERBENCH_BUILD_TYPE << " build; configure with "
              << "-DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  if (config.workdir.empty()) return Usage("--workdir is required");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");
  ::mkdir(config.workdir.c_str(), 0755);

  layerbench::RunResult result;
  if (config.workload == "interactive_exact") {
    result = layerbench::RunInteractiveExact(config);
  } else if (config.workload == "served_mixed") {
    result = layerbench::RunServedMixed(config);
  } else if (config.workload == "ondisk_ingest") {
    result = layerbench::RunOndiskIngest(config);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  if (result.attempted == 0) {
    for (const std::string& note : result.notes) std::cerr << note << "\n";
    std::cerr << "layerbench: no operation was attempted\n";
    return 1;
  }
  return layerbench::PrintResult(config, result);
}
