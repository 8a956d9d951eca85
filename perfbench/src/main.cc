// perfbench: the repository benchmark.
//
//   perfbench --workload <paper_sets|vehicle_mixed|served_ladder>
//             [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]
//
// Prints a table of every metric it measured (with sample counts) and, as
// its last line, "PERFBENCH_RESULT {json}". Exits 1 when any answer
// differs from the benchmark's reference, 2 on bad arguments or a build
// that is not an optimized Release build, and 3, with no result line, when
// the run is invalid because the load generator fell behind.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_sets|vehicle_mixed|"
               "served_ladder> [--seed N] [--seconds S] [--trace 0|1] "
               "[--work-dir DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage();
        return 2;
      }
      args.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage();
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      Usage();
      return 2;
    }
  }
  if (args.seconds <= 0) {
    Usage();
    return 2;
  }

  std::printf("host: %s\n", perfbench::HostStamp().c_str());
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to measure a build without NDEBUG "
               "(build type %s); build it as Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: build type %s is not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  perfbench::Report report;
  if (args.workload == "paper_sets") {
    std::printf("workload: paper_sets seed=%llu page_size=1024 "
                "pool_frames=256 clients=1 loop=closed\n",
                static_cast<unsigned long long>(args.seed));
    perfbench::RunPaperSets(args, &report);
  } else if (args.workload == "vehicle_mixed") {
    std::printf("workload: vehicle_mixed seed=%llu page_size=1024 "
                "backend=memory clients=4 loop=closed journal=group_commit\n",
                static_cast<unsigned long long>(args.seed));
    perfbench::RunVehicleMixed(args, &report);
  } else if (args.workload == "served_ladder") {
    std::printf("workload: served_ladder seed=%llu page_size=1024 "
                "backend=memory senders=4 loop=open journal=group_commit\n",
                static_cast<unsigned long long>(args.seed));
    perfbench::RunServedLadder(args, &report);
  } else {
    Usage();
    return 2;
  }
  // After the workload: the reference loop's buffer must not raise the
  // peak RSS the workload reported.
  report.Metric("harness.host_ref_ms", perfbench::HostReferenceMs(), "ms");
  std::fflush(stdout);
  report.Emit();
  if (!report.valid()) return 3;
  return report.correct() ? 0 : 1;
}
