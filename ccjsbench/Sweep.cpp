//===- ccjsbench/Sweep.cpp - The paper's protocol over every backend ------===//
///
/// \file
/// `sweep`: every Selected workload under every check-removal backend, a
/// fresh Engine per (workload, backend) pair, top level once and ten
/// `run()` calls, the tenth measured (core/Runner.h). One op is one `run()`
/// call. Nearly all host time goes to execution and the hardware model,
/// almost none to the frontend, which is why this workload is the one
/// that shows executor and `memAccess` changes.
///
/// Every pair's tenth-call RunStats is hashed and compared with the
/// committed table (digests.txt), and every pair's output with a
/// baseline-tier reference, so a host-speed change cannot move a simulated
/// number or a program result unnoticed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Engine.h"
#include "gen/ProgramGen.h"
#include "workloads/Workloads.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

using namespace ccjs;
using namespace ccjsbench;

namespace {

constexpr int Calls = 10;

constexpr CheckRemovalBackend Backends[] = {
    CheckRemovalBackend::None, CheckRemovalBackend::ClassCache,
    CheckRemovalBackend::Bbv, CheckRemovalBackend::Both};

const char *backendName(CheckRemovalBackend B) {
  switch (B) {
  case CheckRemovalBackend::None:
    return "none";
  case CheckRemovalBackend::ClassCache:
    return "classcache";
  case CheckRemovalBackend::Bbv:
    return "bbv";
  case CheckRemovalBackend::Both:
    return "both";
  }
  return "?";
}

struct Pair {
  const Workload *W;
  CheckRemovalBackend B;
  std::string key() const {
    return std::string(W->Name) + " " + backendName(B);
  }
};

/// The reference: the same protocol on the baseline tier only, without
/// check removal — an execution path independent of every optimizing
/// backend under test.
Outcome referenceOf(const Workload &W) {
  Engine E(Engine::Options().withNoOpt());
  Outcome O;
  if (E.load(W.Source) && E.runTopLevel())
    for (int K = 0; K < Calls; ++K)
      E.callGlobal("run");
  O.Halted = E.halted();
  O.Output = E.output();
  O.Error = E.halted() ? E.lastError() : "";
  return O;
}

/// FNV-1a 64 over a fixed-precision rendering of every RunStats field.
std::string digestOf(const RunStats &S) {
  std::ostringstream Text;
  Text.precision(17);
  for (unsigned C = 0; C < NumInstrCategories; ++C)
    Text << S.Instrs.PerCategory[C] << ' ' << S.Instrs.ChecksAfterObjectLoad[C]
         << ' ';
  Text << S.CyclesTotal << ' ' << S.CyclesOptimized << ' ' << S.CyclesRest;
  for (const EnergyBreakdown *E : {&S.EnergyTotal, &S.EnergyOptimized})
    Text << ' ' << E->CorePJ << ' ' << E->L1PJ << ' ' << E->L2PJ << ' '
         << E->MemPJ << ' ' << E->ClassCachePJ << ' ' << E->LeakagePJ;
  const ObjectLoadCounters &L = S.Loads;
  Text << ' ' << L.MonomorphicProperty << ' ' << L.NonMonomorphicProperty
       << ' ' << L.MonomorphicElements << ' ' << L.NonMonomorphicElements
       << ' ' << L.FirstLineLoads << ' ' << L.TotalPropertyLoads;
  Text << ' ' << S.Dl1HitRate << ' ' << S.L2HitRate << ' ' << S.DtlbHitRate
       << ' ' << S.Dl1Accesses << ' ' << S.L2Accesses << ' ' << S.CcAccesses
       << ' ' << S.CcMisses << ' ' << S.CcExceptions << ' ' << S.CcHitRate
       << ' ' << S.NumHiddenClasses;
  const HeapStats &H = S.Heap;
  Text << ' ' << H.ObjectsAllocated << ' ' << H.MultiLineObjects << ' '
       << H.ObjectBytes << ' ' << H.ExtraHeaderBytes << ' '
       << H.HeapNumbersAllocated << ' ' << H.StringsAllocated << ' '
       << S.OptCompiles << ' ' << S.Deopts;
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (unsigned char C : Text.str()) {
    Hash ^= C;
    Hash *= 0x100000001b3ull;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, Hash);
  return Buf;
}

std::vector<Pair> allPairs() {
  std::vector<Pair> Pairs;
  size_t N = 0;
  const Workload *W = allWorkloads(&N);
  for (size_t I = 0; I < N; ++I)
    if (W[I].Selected)
      for (CheckRemovalBackend B : Backends)
        Pairs.push_back({&W[I], B});
  return Pairs;
}

/// Runs one pair under the protocol. Fills the phase's per-op latencies;
/// with a recorder, also spans and the per-layer totals.
struct PairRun {
  Outcome Got;
  std::string Digest;
  unsigned HaltedCalls = 0;
  double SetupSeconds = 0;
};

PairRun runPair(const Pair &P, uint64_t Id, Phase &Ph, SpanRecorder *Rec,
                LayerTotals *L) {
  PairRun Run;
  ScopedSpan Root(Rec, "sweep.pair", Id);
  if (Rec)
    probeFrontend(*Rec, *L, P.W->Source, Id);

  EventCounter Events;
  std::optional<Engine> E;
  double Setup0 = processCpuSeconds();
  {
    ScopedSpan S(Rec, "core.engine_new", Id);
    E.emplace(Engine::Options().withCheckRemoval(P.B));
  }
  if (L)
    E->addObserver(&Events);
  bool Ok;
  {
    ScopedSpan S(Rec, "core.load", Id);
    Ok = E->load(P.W->Source);
  }
  double X0 = threadCpuMs();
  if (Ok) {
    ScopedSpan S(Rec, "core.toplevel", Id);
    E->runTopLevel();
  }
  double ExecMs = threadCpuMs() - X0;
  Run.SetupSeconds = processCpuSeconds() - Setup0;

  RunStats Before;
  uint64_t DispatchesBefore = 0;
  for (int K = 0; K < Calls; ++K) {
    if (K == Calls - 1) {
      Before = E->stats();
      DispatchesBefore = E->hostDispatches();
      E->resetStats();
    }
    double Cpu0 = threadCpuMs();
    {
      ScopedSpan S(Rec, "core.call", Id);
      E->callGlobal("run");
    }
    double CallMs = threadCpuMs() - Cpu0;
    Ph.LatencyMs.push_back(CallMs);
    ExecMs += CallMs;
    ++Ph.Ops;
    Run.HaltedCalls += E->halted();
  }
  RunStats Steady = E->stats();
  Ph.SimInstr += double(Before.Instrs.total() + Steady.Instrs.total());
  Ph.ExecCpuSeconds += ExecMs / 1e3;
  if (L) {
    L->Ops += Calls;
    L->addPeriod(Before);
    L->addPeriod(Steady);
    L->Dispatches += double(DispatchesBefore + E->hostDispatches());
    L->addLife(LifetimeCounters::of(Steady));
    L->HiddenClasses += double(Steady.NumHiddenClasses) * Calls;
    L->ExecCpuSeconds += ExecMs / 1e3;
    L->Events.merge(Events);
    E->removeObserver(&Events);
  }
  Run.Got.Halted = E->halted();
  Run.Got.Output = E->output();
  Run.Got.Error = E->halted() ? E->lastError() : "";
  Run.Digest = digestOf(Steady);
  return Run;
}

bool readDigests(const std::string &Path,
                 std::map<std::string, std::string> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Sp = Line.rfind(' ');
    if (Sp == std::string::npos)
      return false;
    Out[Line.substr(0, Sp)] = Line.substr(Sp + 1);
  }
  return !Out.empty();
}

struct Sweep {
  std::vector<Pair> Pairs;
  std::map<std::string, Outcome> Refs;
  std::map<std::string, std::string> Digests;
  Report &R;

  /// Whole passes over the pairs, as many as come nearest to \p Budget
  /// seconds (at least one): another pass starts while it would end less
  /// than half a pass beyond the budget.
  Phase run(double Budget, std::vector<double> &Setups, SpanRecorder *Rec,
            LayerTotals *L) {
    Phase Ph;
    Clock::time_point T0 = Clock::now();
    double Cpu0 = processCpuSeconds();
    for (uint64_t Pass = 0;; ++Pass) {
      Clock::time_point P0 = Clock::now();
      double Setup = 0;
      for (size_t I = 0; I < Pairs.size(); ++I) {
        Clock::time_point U0 = Clock::now();
        PairRun Run = runPair(Pairs[I], Pass * Pairs.size() + I, Ph, Rec, L);
        Ph.Busy.push_back(secondsBetween(U0, Clock::now()));
        Setup += Run.SetupSeconds;
        check(Pairs[I], Run, Ph);
      }
      Setups.push_back(Setup);
      Clock::time_point Now = Clock::now();
      if (secondsBetween(T0, Now) + secondsBetween(P0, Now) / 2 > Budget)
        break;
    }
    Ph.WallSeconds = secondsBetween(T0, Clock::now());
    Ph.CpuSeconds = processCpuSeconds() - Cpu0;
    return Ph;
  }

  /// A call that halted unexpectedly fails; otherwise a wrong output or a
  /// moved simulated digest fails the measured (tenth) call.
  void check(const Pair &P, const PairRun &Run, Phase &Ph) {
    const Outcome &Ref = Refs.at(P.W->Name);
    unsigned Failed = Ref.Halted ? 0 : Run.HaltedCalls;
    if (!(Run.Got == Ref)) {
      R.fail(P.key() + ": output differs from the baseline-tier reference");
      Failed = std::max(Failed, 1u);
    }
    auto It = Digests.find(P.key());
    if (It == Digests.end() || It->second != Run.Digest) {
      R.fail(P.key() + ": simulated-statistics digest " + Run.Digest +
             " does not match the committed " +
             (It == Digests.end() ? std::string("(missing)") : It->second));
      Failed = std::max(Failed, 1u);
    }
    Ph.Failed += Failed;
  }
};

} // namespace

int ccjsbench::runSweep(const Options &O, Report &R) {
  Sweep S{allPairs(), {}, {}, R};
  if (!readDigests(O.DigestsPath, S.Digests)) {
    std::cerr << "ccjsbench: cannot read digests from '" << O.DigestsPath
              << "'\n";
    return 2;
  }
  // The order of the pairs is the seed's; each pair starts a fresh engine,
  // so the order changes no simulated number.
  gen::SplitMix64 Rng(subSeed(O.Seed, 1, 0));
  for (size_t I = S.Pairs.size(); I > 1; --I)
    std::swap(S.Pairs[I - 1], S.Pairs[Rng.range(static_cast<uint32_t>(I))]);
  for (const Pair &P : S.Pairs)
    if (!S.Refs.count(P.W->Name))
      S.Refs.emplace(P.W->Name, referenceOf(*P.W));

  return measure(O, R, std::bind_front(&Sweep::run, &S));
}

int ccjsbench::writeSweepDigests(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out) {
    std::cerr << "ccjsbench: cannot write '" << Path << "'\n";
    return 2;
  }
  Out << "# FNV-1a 64 of the tenth run() call's RunStats, per sweep "
         "(workload, backend) pair.\n"
         "# Regenerate only when a change moves simulated statistics on "
         "purpose:\n"
         "#   <build>/ccjsbench --write-digests ccjsbench/digests.txt\n";
  Phase Ph;
  for (const Pair &P : allPairs())
    Out << P.key() << ' ' << runPair(P, 0, Ph, nullptr, nullptr).Digest
        << '\n';
  return Out ? 0 : 2;
}
