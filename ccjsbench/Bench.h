//===- ccjsbench/Bench.h - Host benchmark shared declarations ---*- C++ -*-===//
///
/// \file
/// Pieces shared by the three benchmark workloads (sweep, service, churn):
/// command-line options, the metric report, the span recorder of the traced
/// run, and the per-op accumulators the per-layer metrics are derived from.
/// The benchmark drives the library through its public API only.
///
//===----------------------------------------------------------------------===//

#ifndef CCJSBENCH_BENCH_H
#define CCJSBENCH_BENCH_H

#include "core/Stats.h"
#include "vm/EngineObserver.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ccjsbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Committed simulated-statistics digests of the sweep pairs.
  std::string DigestsPath;
  /// Where the traced run writes its spans.
  std::string SpansPath;
};

/// How a program run ended: what it printed and, if it halted, why.
struct Outcome {
  bool Halted = false;
  std::string Output, Error;
  bool operator==(const Outcome &O) const {
    return Halted == O.Halted && Output == O.Output &&
           (!Halted || Error == O.Error);
  }
};

/// One run's result: the JSON object printed as the last stdout line.
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Records a failed correctness check; \p What goes to stderr.
  void fail(const std::string &What);

private:
  unsigned Reported = 0;
};

//===----------------------------------------------------------------------===//
// Spans of the traced run.
//===----------------------------------------------------------------------===//

/// Spans kept in memory while the traced phase runs and written out when
/// it ends. A span's parent is the span open on the recording thread when
/// it began (or an explicit parent for intervals reconstructed from pool
/// observer timestamps); spans of one op share its op id.
class SpanRecorder {
public:
  static constexpr uint32_t NoParent = ~0u;

  struct Span {
    const char *Name;
    Clock::time_point Start, End;
    uint32_t Parent;
    uint64_t Op;
  };

  uint32_t begin(const char *Name, uint64_t Op);
  void end(uint32_t Id);
  /// Adds a closed interval measured elsewhere (e.g. on a pool worker).
  void record(const char *Name, uint64_t Op, Clock::time_point Start,
              Clock::time_point End, uint32_t Parent);

  /// Duration minus the union of the children's intervals, clipped to
  /// the span, so it is never negative.
  std::vector<double> selfSeconds() const;
  /// Total duration and count of the spans named \p Name.
  double totalSeconds(const char *Name, uint64_t *Count = nullptr) const;
  /// Summed self time of the spans named \p Name.
  double selfTotalSeconds(const char *Name) const;
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
  Clock::time_point Origin = Clock::now();
};

/// Opens a span for the enclosing scope; does nothing without a recorder,
/// which is how the untraced phases run.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *R, const char *Name, uint64_t Op)
      : R(R), Id(R ? R->begin(Name, Op) : 0) {}
  ~ScopedSpan() {
    if (R)
      R->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder *R;
  uint32_t Id;
};

//===----------------------------------------------------------------------===//
// Per-layer accumulators.
//===----------------------------------------------------------------------===//

/// Counts the engine boundary events the per-layer metrics need. One
/// instance is only ever notified from one thread at a time.
struct EventCounter final : public ccjs::EngineObserver {
  uint64_t TierUpsOk = 0, TierUpsFailed = 0;
  uint64_t ElidedClassic = 0, ElidedClassCache = 0;
  uint64_t BbvVersions = 0, BbvGeneric = 0;
  uint64_t Deopts = 0, Invalidations = 0;

  void onDeopt(ccjs::VMState &, const ccjs::DeoptEvent &) override {
    ++Deopts;
  }
  void onTierUp(ccjs::VMState &, const ccjs::TierUpEvent &E) override;
  void onInvalidation(ccjs::VMState &,
                      const ccjs::InvalidationEvent &) override {
    ++Invalidations;
  }
  void onBbvSpecialize(ccjs::VMState &,
                       const ccjs::BbvSpecializeEvent &E) override;
  void merge(const EventCounter &O);
};

/// RunStats counters that survive resetStats() and beginServiceRequest()
/// for the engine's whole lifetime; per-op values are deltas of these.
/// (RunStats::Deopts is per loaded module, so deopts are counted from
/// EngineObserver events instead.)
struct LifetimeCounters {
  uint64_t OptCompiles = 0;
  uint64_t HeapBytes = 0, Objects = 0, HeapNumbers = 0;

  static LifetimeCounters of(const ccjs::RunStats &S);
  /// Delta since \p Before; a counter that went down belongs to a fresh
  /// engine and counts from zero.
  LifetimeCounters since(const LifetimeCounters &Before) const;
};

/// Sums over the ops of the traced phase.
struct LayerTotals {
  uint64_t Ops = 0;
  // Pre-call probes of the frontend and bytecode layers.
  uint64_t SourceBytes = 0, Functions = 0, Compiles = 0;
  // Simulated work (RunStats) and host dispatches.
  double InterpInstr = 0, JitInstr = 0, Cycles = 0;
  double Dl1 = 0, Dl1Hits = 0, L2 = 0;
  double CcAccesses = 0, CcMisses = 0, CcExceptions = 0;
  double ChecksExecuted = 0, Dispatches = 0, HiddenClasses = 0;
  LifetimeCounters Life;
  EventCounter Events;
  // Process CPU time of the execution calls the instructions above ran
  // in, for ns/instruction.
  double ExecCpuSeconds = 0;
  // Pool counters (EnginePool::metrics()) and snapshot probes.
  double Recycles = 0, WarmStarts = 0, WarmRejected = 0, Shed = 0,
         Degraded = 0, Quarantines = 0;
  double CaptureSeconds = 0, SnapshotBytes = 0, RestoreSeconds = 0;
  uint64_t Captures = 0, Restores = 0, RestoresOk = 0;
  // Open-loop generator lateness and wall-clock latency of the untraced
  // phase (service only).
  double LateP99Ms = 0, WallP99Ms = 0;
  // Traced busy time over untraced busy time on the same ops, minus one.
  double TraceOverhead = 0;

  /// Adds the simulated work of one RunStats period (counters that reset
  /// with resetStats()).
  void addPeriod(const ccjs::RunStats &S);
  void addLife(const LifetimeCounters &D);
  /// Adds the per-op sums (not the pool, snapshot or harness figures,
  /// which are recorded once per phase).
  void merge(const LayerTotals &O);
};

/// Times a parseProgram + compileProgram pre-call on \p Source under
/// "frontend.parse" / "bytecode.compile" spans and counts its size.
void probeFrontend(SpanRecorder &Rec, LayerTotals &L, const std::string &Src,
                   uint64_t Op);

/// Emits every per-layer metric of BENCHMARK.json. Layers a workload does
/// not exercise read zero.
void emitLayerMetrics(Report &R, const LayerTotals &L,
                      const SpanRecorder &Rec);

/// The end-to-end measurements of one untraced phase.
struct Phase {
  double WallSeconds = 0;
  double CpuSeconds = 0;
  uint64_t Ops = 0, Failed = 0;
  /// Open-loop requests that fell due but were never issued (failed).
  uint64_t Dropped = 0;
  std::vector<double> LatencyMs;
  /// Open loop only: how late each request was issued, and its latency
  /// from the due time on the wall clock.
  std::vector<double> LateMs, WallLatencyMs;
  /// Simulated instructions and the process CPU time of the execution
  /// calls that ran them (all threads, so parallel workers count in full).
  double SimInstr = 0, ExecCpuSeconds = 0;
  /// Busy time per unit of work (pair, request or batch), in order; the
  /// traced phase's prefix is compared against it for trace overhead.
  std::vector<double> Busy;
};

void emitEndToEnd(Report &R, const std::vector<double> &SetupSeconds,
                  const Phase &P);

/// Runs one measured phase of a workload for \p Budget seconds, appending
/// each set-up's seconds to \p Setups. Untraced without a recorder and
/// totals; traced with both.
using PhaseFn = std::function<Phase(double Budget, std::vector<double> &Setups,
                                    SpanRecorder *Rec, LayerTotals *L)>;

/// With --trace 0, one untraced phase of --seconds, reported as the
/// end-to-end metrics. With --trace 1, an untraced then a traced phase of
/// half the seconds each (same seed, fresh engines), reported as the
/// per-layer metrics, and the traced phase's spans written out. Returns 2
/// if the spans cannot be written.
int measure(const Options &O, Report &R, const PhaseFn &Run);

/// Traced busy time over untraced busy time on their common prefix, - 1.
double traceOverhead(const Phase &Untraced, const Phase &Traced);

/// User + system CPU time of the whole process, all threads. Set-up is
/// timed on this clock (see README.md).
double processCpuSeconds();
/// CPU time of the calling thread. Op latencies are taken on this clock:
/// on a shared host, preemption by other tenants adds multi-millisecond
/// stalls to wall-clock latencies regardless of the code under test.
double threadCpuMs();
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);
/// SplitMix64-derived independent sub-seed.
uint64_t subSeed(uint64_t Seed, uint64_t A, uint64_t B);

int runSweep(const Options &O, Report &R);
int runService(const Options &O, Report &R);
int runChurn(const Options &O, Report &R);
/// Runs every sweep pair once and writes the digest table.
int writeSweepDigests(const std::string &Path);

} // namespace ccjsbench

#endif // CCJSBENCH_BENCH_H
