// provbench: the repository benchmark's driver.
//
//   provbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--min-samples <n>] [--corrupt-check]
//   provbench --list-metrics
//
// Runs one workload against the public ProvenanceDb / ProvenanceService
// API on a modeled device, checks its outputs, and prints one
// `metric <name> <value> <unit>` line per metric followed, as the last
// line, by the JSON result object. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the traced variant and reports the per-layer
// metrics instead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "harness.hpp"

namespace {

int Usage(const char* problem) {
  std::fprintf(stderr,
               "provbench: %s\nusage: provbench --workload "
               "<ingest_replay|recall_search|recall_personalize|"
               "recall_time_context|recall_lineage|browse_and_recall|"
               "profile_churn> [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out FILE] [--min-samples N] [--corrupt-check]\n",
               problem);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace provbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--list-metrics") {
      for (const MetricSpec& m : EndToEndMetrics()) {
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      }
      for (const MetricSpec& m : PerLayerMetrics()) {
        std::printf("per_layer %s %s\n", m.name, m.unit);
      }
      return 0;
    } else if (flag == "--corrupt-check") {
      args.corrupt_check = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return Usage(("missing value for " + flag).c_str());
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(v);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-out") {
      args.trace_out = v;
    } else if (flag == "--min-samples") {
      args.min_samples = std::strtoull(v, nullptr, 10);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds < 1) return Usage("--seconds must be >= 1");

  std::function<void(const Args&, Report&)> run;
  auto recall = [](RecallFamily family) {
    return [family](const Args& a, Report& r) { RunRecallSmallPool(a, r, family); };
  };
  if (args.workload == "ingest_replay") {
    run = RunIngestReplay;
  } else if (args.workload == "recall_search") {
    run = recall(RecallFamily::kSearch);
  } else if (args.workload == "recall_personalize") {
    run = recall(RecallFamily::kPersonalize);
  } else if (args.workload == "recall_time_context") {
    run = recall(RecallFamily::kTimeContext);
  } else if (args.workload == "recall_lineage") {
    run = recall(RecallFamily::kLineage);
  } else if (args.workload == "browse_and_recall") {
    run = RunBrowseAndRecall;
  } else if (args.workload == "profile_churn") {
    run = RunProfileChurn;
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  std::printf("provbench workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("%s\n", DescribeSettings().c_str());
  Report report(args.trace);
  run(args, report);
  return report.Print();
}
