//===- ccjsbench/Measure.cpp - Spans, accumulators, metric emission -------===//

#include "Bench.h"

#include "bytecode/Compiler.h"
#include "frontend/Parser.h"
#include "gen/ProgramGen.h"
#include "support/Json.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>

using namespace ccjs;
using namespace ccjsbench;

void Report::fail(const std::string &What) {
  // The first few say what broke; a systematic failure would flood.
  if (Correct || ++Reported <= 20)
    std::cerr << "ccjsbench: FAIL " << What << "\n";
  Correct = false;
}

//===----------------------------------------------------------------------===//
// SpanRecorder
//===----------------------------------------------------------------------===//

uint32_t SpanRecorder::begin(const char *Name, uint64_t Op) {
  uint32_t Parent = Open.empty() ? NoParent : Open.back();
  Clock::time_point Now = Clock::now();
  Spans.push_back({Name, Now, Now, Parent, Op});
  Open.push_back(static_cast<uint32_t>(Spans.size() - 1));
  return Open.back();
}

void SpanRecorder::end(uint32_t Id) {
  Spans[Id].End = Clock::now();
  // Scoped spans close in LIFO order.
  Open.pop_back();
}

void SpanRecorder::record(const char *Name, uint64_t Op,
                          Clock::time_point Start, Clock::time_point End,
                          uint32_t Parent) {
  Spans.push_back({Name, Start, End, Parent, Op});
}

std::vector<double> SpanRecorder::selfSeconds() const {
  std::vector<std::vector<uint32_t>> Children(Spans.size());
  for (uint32_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent != NoParent)
      Children[Spans[I].Parent].push_back(I);

  std::vector<double> Self(Spans.size());
  std::vector<std::pair<Clock::time_point, Clock::time_point>> Iv;
  for (uint32_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Iv.clear();
    for (uint32_t C : Children[I]) {
      Clock::time_point A = std::max(Spans[C].Start, S.Start);
      Clock::time_point B = std::min(Spans[C].End, S.End);
      if (A < B)
        Iv.emplace_back(A, B);
    }
    std::sort(Iv.begin(), Iv.end());
    double Covered = 0;
    Clock::time_point CurA, CurB;
    bool Have = false;
    for (const auto &[A, B] : Iv) {
      if (Have && A <= CurB) {
        CurB = std::max(CurB, B);
        continue;
      }
      if (Have)
        Covered += secondsBetween(CurA, CurB);
      CurA = A;
      CurB = B;
      Have = true;
    }
    if (Have)
      Covered += secondsBetween(CurA, CurB);
    Self[I] = std::max(0.0, secondsBetween(S.Start, S.End) - Covered);
  }
  return Self;
}

double SpanRecorder::totalSeconds(const char *Name, uint64_t *Count) const {
  double T = 0;
  uint64_t N = 0;
  for (const Span &S : Spans)
    if (std::strcmp(S.Name, Name) == 0) {
      T += secondsBetween(S.Start, S.End);
      ++N;
    }
  if (Count)
    *Count = N;
  return T;
}

double SpanRecorder::selfTotalSeconds(const char *Name) const {
  std::vector<double> Self = selfSeconds();
  double T = 0;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (std::strcmp(Spans[I].Name, Name) == 0)
      T += Self[I];
  return T;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  std::vector<double> Self = selfSeconds();
  auto Us = [&](Clock::time_point T) {
    return std::chrono::duration<double, std::micro>(T - Origin).count();
  };
  json::Value List = json::Value::array();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    json::Value V = json::Value::object();
    V.set("id", I);
    V.set("name", S.Name);
    V.set("op", S.Op);
    V.set("parent", S.Parent == NoParent ? json::Value(-1)
                                         : json::Value(S.Parent));
    V.set("start_us", Us(S.Start));
    V.set("end_us", Us(S.End));
    V.set("self_us", Self[I] * 1e6);
    List.push(std::move(V));
  }
  json::Value Doc = json::Value::object();
  Doc.set("spans", std::move(List));
  Out << Doc.dump() << "\n";
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Accumulators
//===----------------------------------------------------------------------===//

void EventCounter::onTierUp(VMState &, const TierUpEvent &E) {
  if (!E.Succeeded) {
    ++TierUpsFailed;
    return;
  }
  ++TierUpsOk;
  ElidedClassic += E.ChecksElidedClassic;
  ElidedClassCache += E.ChecksElidedClassCache;
}

void EventCounter::onBbvSpecialize(VMState &, const BbvSpecializeEvent &E) {
  ++(E.Generic ? BbvGeneric : BbvVersions);
}

void EventCounter::merge(const EventCounter &O) {
  TierUpsOk += O.TierUpsOk;
  TierUpsFailed += O.TierUpsFailed;
  ElidedClassic += O.ElidedClassic;
  ElidedClassCache += O.ElidedClassCache;
  BbvVersions += O.BbvVersions;
  BbvGeneric += O.BbvGeneric;
  Deopts += O.Deopts;
  Invalidations += O.Invalidations;
}

LifetimeCounters LifetimeCounters::of(const RunStats &S) {
  LifetimeCounters L;
  L.OptCompiles = S.OptCompiles;
  L.HeapBytes = S.Heap.ObjectBytes + S.Heap.ExtraHeaderBytes;
  L.Objects = S.Heap.ObjectsAllocated;
  L.HeapNumbers = S.Heap.HeapNumbersAllocated;
  return L;
}

LifetimeCounters LifetimeCounters::since(const LifetimeCounters &B) const {
  auto D = [](uint64_t Now, uint64_t Was) {
    return Now >= Was ? Now - Was : Now;
  };
  return {D(OptCompiles, B.OptCompiles), D(HeapBytes, B.HeapBytes),
          D(Objects, B.Objects), D(HeapNumbers, B.HeapNumbers)};
}

void LayerTotals::addPeriod(const RunStats &S) {
  InterpInstr += double(
      S.Instrs.PerCategory[static_cast<unsigned>(InstrCategory::RestOfCode)]);
  JitInstr += double(S.Instrs.optimizedTotal());
  ChecksExecuted += double(
      S.Instrs.PerCategory[static_cast<unsigned>(InstrCategory::Checks)]);
  Cycles += S.CyclesTotal;
  Dl1 += double(S.Dl1Accesses);
  Dl1Hits += S.Dl1HitRate * double(S.Dl1Accesses);
  L2 += double(S.L2Accesses);
  CcAccesses += double(S.CcAccesses);
  CcMisses += double(S.CcMisses);
  CcExceptions += double(S.CcExceptions);
}

void LayerTotals::addLife(const LifetimeCounters &D) {
  Life.OptCompiles += D.OptCompiles;
  Life.HeapBytes += D.HeapBytes;
  Life.Objects += D.Objects;
  Life.HeapNumbers += D.HeapNumbers;
}

void LayerTotals::merge(const LayerTotals &O) {
  Ops += O.Ops;
  SourceBytes += O.SourceBytes;
  Functions += O.Functions;
  Compiles += O.Compiles;
  InterpInstr += O.InterpInstr;
  JitInstr += O.JitInstr;
  Cycles += O.Cycles;
  Dl1 += O.Dl1;
  Dl1Hits += O.Dl1Hits;
  L2 += O.L2;
  CcAccesses += O.CcAccesses;
  CcMisses += O.CcMisses;
  CcExceptions += O.CcExceptions;
  ChecksExecuted += O.ChecksExecuted;
  Dispatches += O.Dispatches;
  HiddenClasses += O.HiddenClasses;
  addLife(O.Life);
  Events.merge(O.Events);
  ExecCpuSeconds += O.ExecCpuSeconds;
}

void ccjsbench::probeFrontend(SpanRecorder &Rec, LayerTotals &L,
                              const std::string &Src, uint64_t Op) {
  ParseResult P;
  {
    ScopedSpan S(&Rec, "frontend.parse", Op);
    P = parseProgram(Src);
  }
  if (!P.Ok)
    return; // The engine reports the same syntax error through load().
  StringInterner Names;
  {
    ScopedSpan S(&Rec, "bytecode.compile", Op);
    CompileResult C = compileProgram(P.Prog, Names);
    L.Functions += C.Module.Functions.size();
  }
  L.SourceBytes += Src.size();
  ++L.Compiles;
}

//===----------------------------------------------------------------------===//
// Emission
//===----------------------------------------------------------------------===//

namespace {

double meanMs(const SpanRecorder &Rec, const char *Name) {
  uint64_t N = 0;
  double T = Rec.totalSeconds(Name, &N);
  return N ? T * 1e3 / double(N) : 0;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

} // namespace

void ccjsbench::emitLayerMetrics(Report &R, const LayerTotals &L,
                                 const SpanRecorder &Rec) {
  const double Ops = double(std::max<uint64_t>(L.Ops, 1));
  auto PerOp = [&](const char *Name, double V) {
    R.add(Name, V / Ops, "count/op");
  };

  const double ParseMs = meanMs(Rec, "frontend.parse");
  const double CompileMs = meanMs(Rec, "bytecode.compile");
  R.add("frontend.parse_ms", ParseMs, "ms");
  R.add("frontend.source_kb", ratio(double(L.SourceBytes) / 1024,
                                    double(L.Compiles)),
        "KB");
  R.add("frontend.parse_mb_per_s",
        ratio(double(L.SourceBytes) / 1e6,
              Rec.totalSeconds("frontend.parse")),
        "MB/s");
  R.add("bytecode.compile_ms", CompileMs, "ms");
  R.add("bytecode.functions", ratio(double(L.Functions), double(L.Compiles)),
        "count");

  const double LoadMs = meanMs(Rec, "core.load");
  R.add("core.engine_new_ms", meanMs(Rec, "core.engine_new"), "ms");
  R.add("core.load_ms", LoadMs, "ms");
  R.add("core.load_other_ms", LoadMs > 0 ? LoadMs - ParseMs - CompileMs : 0,
        "ms");
  R.add("core.toplevel_ms", meanMs(Rec, "core.toplevel"), "ms");
  R.add("core.call_ms", meanMs(Rec, "core.call"), "ms");
  R.add("core.call_ns_per_sim_instr",
        ratio(L.ExecCpuSeconds * 1e9, L.InterpInstr + L.JitInstr), "ns");

  // Serve time not covered by any request's admit-to-done interval.
  uint64_t Serves = 0;
  Rec.totalSeconds("core.pool.serve", &Serves);
  R.add("core.pool.serve_ms", meanMs(Rec, "core.pool.serve"), "ms");
  R.add("core.pool.admit_to_done_ms", meanMs(Rec, "core.pool.request"),
        "ms");
  R.add("core.pool.overhead_ms",
        ratio(Rec.selfTotalSeconds("core.pool.serve") * 1e3, double(Serves)),
        "ms");
  PerOp("core.pool.recycles", L.Recycles);
  PerOp("core.pool.warm_starts", L.WarmStarts);
  PerOp("core.pool.warm_start_rejected", L.WarmRejected);
  R.add("core.pool.warm_start_reject_ratio",
        ratio(L.WarmRejected, L.WarmStarts), "ratio");
  PerOp("core.pool.shed", L.Shed);
  PerOp("core.pool.degraded", L.Degraded);
  PerOp("core.pool.quarantines", L.Quarantines);

  R.add("core.snapshot.capture_ms",
        ratio(L.CaptureSeconds * 1e3, double(L.Captures)), "ms");
  R.add("core.snapshot.restore_ms",
        ratio(L.RestoreSeconds * 1e3, double(L.Restores)), "ms");
  R.add("core.snapshot.kb", ratio(L.SnapshotBytes / 1024, double(L.Captures)),
        "KB");
  R.add("core.snapshot.restore_ok_frac",
        ratio(double(L.RestoresOk), double(L.Restores)), "ratio");

  PerOp("interp.sim_instr", L.InterpInstr);
  PerOp("jit.sim_instr", L.JitInstr);
  PerOp("jit.opt_compiles", double(L.Life.OptCompiles));
  const EventCounter &E = L.Events;
  PerOp("jit.deopts", double(E.Deopts));
  PerOp("jit.tier_ups_ok", double(E.TierUpsOk));
  PerOp("jit.tier_ups_failed", double(E.TierUpsFailed));
  R.add("jit.tier_up_ok_frac",
        ratio(double(E.TierUpsOk), double(E.TierUpsOk + E.TierUpsFailed)),
        "ratio");
  PerOp("jit.checks_elided_classic", double(E.ElidedClassic));
  PerOp("jit.checks_elided_classcache", double(E.ElidedClassCache));
  PerOp("jit.checks_executed", L.ChecksExecuted);
  PerOp("jit.executor_dispatches", L.Dispatches);
  PerOp("jit.bbv.versions", double(E.BbvVersions));
  PerOp("jit.bbv.generic_fallbacks", double(E.BbvGeneric));

  PerOp("hw.sim_cycles", L.Cycles);
  PerOp("hw.dl1_accesses", L.Dl1);
  PerOp("hw.l2_accesses", L.L2);
  R.add("hw.dl1_hit_rate", ratio(L.Dl1Hits, L.Dl1), "ratio");
  PerOp("hw.cc_accesses", L.CcAccesses);
  PerOp("hw.cc_misses", L.CcMisses);
  PerOp("hw.cc_exceptions", L.CcExceptions);

  R.add("runtime.heap_kb_per_op", double(L.Life.HeapBytes) / 1024 / Ops,
        "KB");
  PerOp("runtime.objects_allocated", double(L.Life.Objects));
  PerOp("runtime.heap_numbers_allocated", double(L.Life.HeapNumbers));
  R.add("runtime.hidden_classes", L.HiddenClasses / Ops, "count");
  PerOp("runtime.invalidations", double(E.Invalidations));

  R.add("harness.late_ms_p99", L.LateP99Ms, "ms");
  R.add("harness.wall_ms_p99", L.WallP99Ms, "ms");
  R.add("trace.overhead_pct", L.TraceOverhead * 100, "%");
}

void ccjsbench::emitEndToEnd(Report &R,
                             const std::vector<double> &SetupSeconds,
                             const Phase &P) {
  const double Ops = double(std::max<uint64_t>(P.Ops, 1));
  R.add("setup_s", median(SetupSeconds), "s");
  R.add("ops_per_s", ratio(double(P.Ops), P.WallSeconds), "ops/s");
  R.add("cpu_ms_per_op", P.CpuSeconds * 1e3 / Ops, "ms");
  R.add("op_ms_p50", percentile(P.LatencyMs, 50), "ms");
  R.add("op_ms_p95", percentile(P.LatencyMs, 95), "ms");
  R.add("sim_mips", ratio(P.SimInstr / 1e6, P.ExecCpuSeconds), "Minstr/s");
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  R.add("peak_rss_mb", double(U.ru_maxrss) / 1024, "MB");
}

int ccjsbench::measure(const Options &O, Report &R, const PhaseFn &Run) {
  std::vector<double> Setups;
  if (!O.Trace) {
    Phase P = Run(O.Seconds, Setups, nullptr, nullptr);
    emitEndToEnd(R, Setups, P);
    R.Attempted = P.Ops + P.Dropped;
    R.Failed = P.Failed + P.Dropped;
    return 0;
  }
  Phase U = Run(O.Seconds / 2, Setups, nullptr, nullptr);
  SpanRecorder Rec;
  LayerTotals L;
  Phase T = Run(O.Seconds / 2, Setups, &Rec, &L);
  L.TraceOverhead = traceOverhead(U, T);
  L.LateP99Ms = percentile(U.LateMs, 99);
  L.WallP99Ms = percentile(U.WallLatencyMs, 99);
  emitLayerMetrics(R, L, Rec);
  R.Attempted = U.Ops + U.Dropped + T.Ops + T.Dropped;
  R.Failed = U.Failed + U.Dropped + T.Failed + T.Dropped;
  if (!Rec.write(O.SpansPath)) {
    std::cerr << "ccjsbench: cannot write spans to '" << O.SpansPath << "'\n";
    return 2;
  }
  return 0;
}

double ccjsbench::traceOverhead(const Phase &Untraced, const Phase &Traced) {
  size_t N = std::min(Untraced.Busy.size(), Traced.Busy.size());
  double A = 0, B = 0;
  for (size_t I = 0; I < N; ++I) {
    A += Untraced.Busy[I];
    B += Traced.Busy[I];
  }
  return A > 0 ? B / A - 1 : 0;
}

double ccjsbench::threadCpuMs() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return double(T.tv_sec) * 1e3 + double(T.tv_nsec) / 1e6;
}

double ccjsbench::processCpuSeconds() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  auto S = [](const timeval &T) { return double(T.tv_sec) + T.tv_usec / 1e6; };
  return S(U.ru_utime) + S(U.ru_stime);
}

double ccjsbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  // Nearest rank.
  size_t Rank = static_cast<size_t>(std::ceil(P / 100 * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double ccjsbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

uint64_t ccjsbench::subSeed(uint64_t Seed, uint64_t A, uint64_t B) {
  gen::SplitMix64 R(Seed * 0x100000001B3ull ^ (A << 32) ^ B);
  R.next();
  return R.next();
}
