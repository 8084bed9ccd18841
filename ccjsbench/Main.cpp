//===- ccjsbench/Main.cpp - Host benchmark entry point --------------------===//
///
/// \file
/// Usage:
///   ccjsbench --workload sweep|service|churn --seed N --seconds S
///             --trace 0|1 --digests FILE [--spans FILE]
///   ccjsbench --write-digests FILE
///
/// Prints each metric as "name value unit", then, as the last line, one
/// JSON object {"correct", "attempted", "failed", "metrics"}. With
/// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
/// the per-layer ones of a separate traced phase. Exit 2 on bad usage or
/// unreadable inputs, without printing a result. See README.md.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

using namespace ccjs;
using namespace ccjsbench;

namespace {

int usage(const std::string &Why) {
  std::cerr << "ccjsbench: " << Why
            << "\nusage: ccjsbench --workload sweep|service|churn --seed N "
               "--seconds S --trace 0|1 --digests FILE [--spans FILE]"
               "\n       ccjsbench --write-digests FILE\n";
  return 2;
}

bool parseNumber(const std::string &S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S.c_str(), &End);
  return !S.empty() && End && *End == '\0' && std::isfinite(Out);
}

void printReport(const Report &R) {
  json::Value Metrics = json::Value::object();
  for (const Report::Metric &M : R.Metrics) {
    std::printf("%-36s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
    json::Value V = json::Value::object();
    V.set("value", std::isfinite(M.Value) ? M.Value : 0.0);
    V.set("unit", M.Unit);
    Metrics.set(M.Name, std::move(V));
  }
  std::printf("%-36s %16.6f ratio\n", "failed_frac",
              R.Attempted ? double(R.Failed) / double(R.Attempted) : 0.0);
  json::Value Out = json::Value::object();
  Out.set("correct", R.Correct && R.Failed == 0);
  Out.set("attempted", R.Attempted);
  Out.set("failed", R.Failed);
  Out.set("metrics", std::move(Metrics));
  std::printf("%s\n", Out.dump().c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string WriteDigests;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage("missing value for " + Flag);
    std::string V = Argv[++I];
    double N = 0;
    if (Flag == "--workload") {
      O.Workload = V;
    } else if (Flag == "--seed" && parseNumber(V, N) && N >= 0 &&
               N == std::floor(N)) {
      O.Seed = static_cast<uint64_t>(N);
      HaveSeed = true;
    } else if (Flag == "--seconds" && parseNumber(V, N) && N > 0 &&
               N <= 600) {
      O.Seconds = N;
      HaveSeconds = true;
    } else if (Flag == "--trace" && (V == "0" || V == "1")) {
      O.Trace = V == "1";
      HaveTrace = true;
    } else if (Flag == "--digests") {
      O.DigestsPath = V;
    } else if (Flag == "--spans") {
      O.SpansPath = V;
    } else if (Flag == "--write-digests") {
      WriteDigests = V;
    } else {
      return usage("bad flag or value: " + Flag + " " + V);
    }
  }
  if (!WriteDigests.empty())
    return writeSweepDigests(WriteDigests);
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds and --trace are required");
  if (O.Trace && O.SpansPath.empty())
    return usage("--trace 1 needs --spans");

  Report R;
  int Rc;
  if (O.Workload == "sweep")
    Rc = runSweep(O, R);
  else if (O.Workload == "service")
    Rc = runService(O, R);
  else if (O.Workload == "churn")
    Rc = runChurn(O, R);
  else
    return usage("unknown workload '" + O.Workload + "'");
  if (Rc != 0)
    return Rc;
  if (R.Attempted == 0)
    R.fail("no op completed");
  printReport(R);
  return 0;
}
