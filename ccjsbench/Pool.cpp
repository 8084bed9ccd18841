//===- ccjsbench/Pool.cpp - Pooled service and tenant-churn workloads -----===//
///
/// \file
/// `service`: one EnginePool, 4 tenants on 4 engines, Jobs=1, fed by an
/// open loop at a fixed offered rate, one request per serve(). Each request
/// loads a small generated script on a long-lived engine, so the frontend,
/// bytecode and Engine::load dominate, and the never-reclaimed simulated
/// heap shows up in memory.
///
/// `churn`: one EnginePool, 16 tenants on 4 engines, Jobs=min(2,nproc),
/// warm-started from a trainer's snapshot. Tenants arrive in blocks of 4,
/// so every block change recycles all four slots: the outgoing tenants'
/// profiles are parked as snapshots and returning tenants resume from
/// theirs. A closed loop submits batches of 8 requests naming at most 4
/// tenants, so no request can be shed for want of an engine. This is the
/// only workload that loads snapshot capture and restore, engine
/// construction and the parallel execution stage.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/EnginePool.h"
#include "gen/ProgramGen.h"

#include <sched.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>

using namespace ccjs;
using namespace ccjsbench;

namespace {

/// Simulated-heap budget of a reference run. Now and then a generated
/// program grows without bound (a value that turned into a string and is
/// then doubled in a loop) and would take all the host's memory; its
/// reference run trips this budget and the script is drawn again. A run
/// that stays within it is identical to an unbudgeted one.
constexpr uint64_t ReferenceHeapBudget = 64u << 20;

/// Expected result of one script, from a baseline-tier engine without
/// check removal; nothing if the script outgrew the heap budget.
std::optional<Outcome> referenceOf(const std::string &Src) {
  Engine E(Engine::Options().withNoOpt().withHeapBudget(ReferenceHeapBudget));
  Outcome X;
  X.Halted = !(E.load(Src) && E.runTopLevel());
  if (E.budgetExceeded())
    return std::nullopt;
  X.Output = E.output();
  X.Error = X.Halted ? E.lastError() : "";
  return X;
}

bool matches(const ServiceResult &Got, const Outcome &X) {
  if (Got.Status != (X.Halted ? RequestStatus::Error : RequestStatus::Ok))
    return false;
  return Got.Output == X.Output && (!X.Halted || Got.Error == X.Error);
}

struct Script {
  ServiceRequest Request;
  Outcome Ref;
};

/// Generates a script and its reference, drawing again (same knobs, next
/// program seed) while the program outgrows the reference heap budget.
Script makeScript(std::string Tenant, gen::GenConfig C) {
  Script S;
  S.Request.Tenant = std::move(Tenant);
  for (uint64_t Draw = 1;; ++Draw) {
    S.Request.Source = gen::generateProgram(C);
    if (std::optional<Outcome> Ref = referenceOf(S.Request.Source)) {
      S.Ref = std::move(*Ref);
      return S;
    }
    C.Seed = subSeed(C.Seed, 9, Draw);
  }
}

/// Generator settings of script \p Slot of a workload's script stream. The
/// knobs (size, polymorphism, call-graph shape...) are fixed per slot, so
/// every seed serves the same mix of program shapes and the spread between
/// seeds measures the engine rather than the draw; the seed picks the
/// programs themselves. Set-up scripts (warm-up requests, the trainer)
/// use seed 0, so set-up does the same work on every run.
gen::GenConfig scriptConfig(uint64_t Seed, uint64_t Stream, uint64_t Slot) {
  gen::GenConfig C = gen::GenConfig::fromSeed(subSeed(0, Stream, Slot));
  C.Seed = subSeed(Seed, Stream, Slot);
  return C;
}

EngineConfig poolEngineConfig() {
  return Engine::Options()
      .withCheckRemoval(CheckRemovalBackend::ClassCache)
      .build();
}

/// Sum of the pool counters whose name starts with \p Prefix.
double poolCounter(const EnginePool &P, std::string_view Prefix) {
  double Sum = 0;
  for (const auto &[Name, V] : P.metrics().counters())
    if (Name.rfind(Prefix, 0) == 0)
      Sum += double(V);
  return Sum;
}

struct PoolCounters {
  double Recycles, WarmStarts, WarmRejected, Shed, Degraded, Quarantines;
  static PoolCounters of(const EnginePool &P) {
    return {poolCounter(P, "host.pool.recycles"),
            poolCounter(P, "host.pool.warm_starts"),
            poolCounter(P, "host.pool.warm_start_rejected"),
            poolCounter(P, "host.pool.shed."),
            poolCounter(P, "host.pool.degraded"),
            poolCounter(P, "host.pool.quarantines")};
  }
  void addDeltaTo(LayerTotals &L, const PoolCounters &Before) const {
    L.Recycles += Recycles - Before.Recycles;
    L.WarmStarts += WarmStarts - Before.WarmStarts;
    L.WarmRejected += WarmRejected - Before.WarmRejected;
    L.Shed += Shed - Before.Shed;
    L.Degraded += Degraded - Before.Degraded;
    L.Quarantines += Quarantines - Before.Quarantines;
  }
};

/// Watches one pool: when each request was admitted and completed, and
/// the RunStats of every request, read on the slot's worker right after
/// the request finished (before the slot's next request resets them).
/// State is per slot, so workers never share it.
class PoolProbe final : public PoolObserver {
public:
  PoolProbe(EnginePool &Pool, unsigned Slots, bool Detailed)
      : Pool(Pool), Detailed(Detailed), PerSlot(Slots) {}
  /// The pool must still be alive: each slot's current engine holds an
  /// event counter of ours.
  ~PoolProbe() override {
    for (SlotState &S : PerSlot)
      if (Detailed && S.E)
        S.E->removeObserver(&S.L.Events);
  }
  PoolProbe(const PoolProbe &) = delete;
  PoolProbe &operator=(const PoolProbe &) = delete;

  std::vector<Clock::time_point> Admit, Done;
  /// CPU-clock latency of each request from serve(): the serving thread's
  /// CPU time through admission, plus the CPU time the request's worker
  /// spent up to its completion, as if every worker had a CPU of its own.
  std::vector<double> CpuLatencyMs;

  /// Call on the serving thread right before serve().
  void begin(const std::vector<ServiceRequest> &Batch) {
    Requests = &Batch;
    Admit.assign(Batch.size(), Clock::time_point());
    Done.assign(Batch.size(), Clock::time_point());
    CpuLatencyMs.assign(Batch.size(), 0);
    Server = std::this_thread::get_id();
    ServeCpu0 = AdmittedCpu = threadCpuMs();
  }

  void onAdmit(size_t I, unsigned Slot, bool) override {
    Admit[I] = Clock::now();
    AdmittedCpu = threadCpuMs();
    // A recycle warms a fresh engine into the admitted request's slot.
    SlotState &S = PerSlot[Slot];
    Engine *E = Pool.tenantEngine((*Requests)[I].Tenant);
    double Recycles = poolCounter(Pool, "host.pool.recycles");
    if (E != S.E || Recycles != LastRecycles) {
      S.E = E;
      if (Detailed) {
        S.Base = LifetimeCounters::of(E->stats());
        E->addObserver(&S.L.Events);
      }
    }
    LastRecycles = Recycles;
  }

  void onComplete(size_t I, const ServiceResult &R) override {
    Done[I] = Clock::now();
    // Pool workers are fresh threads, whose CPU clocks start at zero.
    CpuLatencyMs[I] = std::this_thread::get_id() == Server
                          ? threadCpuMs() - ServeCpu0
                          : AdmittedCpu - ServeCpu0 + threadCpuMs();
    SlotState &S = PerSlot[static_cast<size_t>(R.Slot)];
    RunStats St = S.E->stats();
    S.SimInstr += double(St.Instrs.total());
    if (!Detailed)
      return;
    ++S.L.Ops;
    S.L.addPeriod(St);
    S.L.Dispatches += double(S.E->hostDispatches());
    S.L.HiddenClasses += double(St.NumHiddenClasses);
    LifetimeCounters Now = LifetimeCounters::of(St);
    S.L.addLife(Now.since(S.Base));
    S.Base = Now;
  }

  double simInstr() const {
    double Sum = 0;
    for (const SlotState &S : PerSlot)
      Sum += S.SimInstr;
    return Sum;
  }
  void mergeInto(LayerTotals &L) const {
    for (const SlotState &S : PerSlot)
      L.merge(S.L);
  }

private:
  struct SlotState {
    Engine *E = nullptr;
    LifetimeCounters Base;
    LayerTotals L;
    double SimInstr = 0;
  };
  EnginePool &Pool;
  bool Detailed;
  std::vector<SlotState> PerSlot;
  const std::vector<ServiceRequest> *Requests = nullptr;
  double LastRecycles = 0;
  std::thread::id Server;
  double ServeCpu0 = 0, AdmittedCpu = 0;
};

void checkResult(Report &R, Phase &Ph, const ServiceResult &Got,
                 const Script &S, uint64_t Op) {
  if (matches(Got, S.Ref))
    return;
  ++Ph.Failed;
  R.fail("request " + std::to_string(Op) + " (" + S.Request.Tenant +
         "): status " + requestStatusName(Got.Status) +
         ", output or error differs from the baseline-tier reference");
}

unsigned usableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Set-up samples per phase. The phase's own pool is the first; the rest
/// are throwaway pools built at even intervals through the measured work.
/// One set-up takes milliseconds and the host's speed drifts over seconds,
/// so samples taken back to back would all land on one fast or slow
/// stretch; spread over the whole phase, their median is as steady as the
/// phase's other figures.
constexpr uint64_t SetupSamples = 20;

/// Units of work (requests or batches) between two set-up samples.
uint64_t setUpInterval(uint64_t Units) {
  return std::max<uint64_t>(1, Units / SetupSamples);
}

/// Builds and drops one pool with \p SetUp (which reports its set-up CPU
/// seconds) between two units of measured work, and moves the phase's wall
/// and CPU origins forward by the pause, so it stays off the phase's clocks.
template <typename SetUpFn>
void sampleSetUp(std::vector<double> &Setups, SetUpFn SetUp,
                 Clock::time_point &T0, double &Cpu0) {
  Clock::time_point P0 = Clock::now();
  double C0 = processCpuSeconds();
  double S = 0;
  SetUp(S).reset();
  Setups.push_back(S);
  T0 += Clock::now() - P0;
  Cpu0 += processCpuSeconds() - C0;
}

//===----------------------------------------------------------------------===//
// service
//===----------------------------------------------------------------------===//

constexpr unsigned ServiceTenants = 4, ServiceScripts = 256;
/// Offered rate of the open loop, requests/second: about a sixth of the
/// closed-loop capacity on the gate seed, and low enough that in a 30 s run
/// each engine's simulated heap stays mid-way between two of its doubling
/// steps, which keeps peak memory steady (see README.md). Frozen, so that
/// every run offers the same load.
constexpr double ServiceRate = 130;

/// Latency from each request's due time on the fixed schedule, computed
/// on the serving thread's CPU clock: a request starts when it falls due
/// or when the previous one finishes, whichever is later, and takes its
/// measured CPU service time (Lindley's recursion). Host preemption by
/// other tenants of the machine, which adds multi-millisecond stalls to
/// wall-clock latencies regardless of the code under test, stays out.
std::vector<double> queueLatenciesMs(const std::vector<double> &ServiceMs) {
  std::vector<double> Lat;
  Lat.reserve(ServiceMs.size());
  double Done = 0;
  for (size_t K = 0; K < ServiceMs.size(); ++K) {
    double Due = 1e3 * double(K) / ServiceRate;
    Done = std::max(Done, Due) + ServiceMs[K];
    Lat.push_back(Done - Due);
  }
  return Lat;
}

struct Service {
  std::vector<Script> Scripts; // Tenant-major.
  std::vector<Script> WarmUps; // One per tenant.
  PoolConfig Cfg;
  uint64_t Seed;
  Report &R;

  /// Constructs the pool and binds each tenant's engine with one warm-up
  /// request.
  std::unique_ptr<EnginePool> setUp(double &Seconds) {
    double Cpu0 = processCpuSeconds();
    auto Pool = std::make_unique<EnginePool>(Cfg);
    for (unsigned T = 0; T < ServiceTenants; ++T) {
      const Script &S = WarmUps[T];
      if (!matches(Pool->serve({S.Request}, 1)[0], S.Ref))
        R.fail("warm-up request of " + S.Request.Tenant);
    }
    Seconds = processCpuSeconds() - Cpu0;
    return Pool;
  }

  Phase run(double Budget, std::vector<double> &Setups, SpanRecorder *Rec,
            LayerTotals *L) {
    auto SetUp = [&](double &S) { return setUp(S); };
    double Setup = 0;
    std::unique_ptr<EnginePool> Pool = SetUp(Setup);
    Setups.push_back(Setup);
    PoolProbe Probe(*Pool, Cfg.Engines, L != nullptr);
    Pool->addObserver(&Probe);
    PoolCounters Before = PoolCounters::of(*Pool);

    gen::SplitMix64 Rng(subSeed(Seed, 3, 0));
    const uint64_t Due = static_cast<uint64_t>(Budget * ServiceRate);
    const uint64_t SetUpEvery = setUpInterval(Due);
    Phase Ph;
    Clock::time_point T0 = Clock::now();
    double ProcCpu0 = processCpuSeconds();
    std::vector<ServiceRequest> One(1);
    std::vector<double> ServiceMs;
    uint64_t K = 0;
    for (; K < Due; ++K) {
      if (K && K % SetUpEvery == 0)
        sampleSetUp(Setups, SetUp, T0, ProcCpu0);
      const Script &S = Scripts[Rng.range(ServiceTenants) * ServiceScripts +
                                Rng.range(ServiceScripts)];
      Clock::time_point DueAt =
          T0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(double(K) / ServiceRate));
      Clock::time_point Start = Clock::now();
      // Hopelessly behind: stop issuing; the rest count as failed.
      if (secondsBetween(T0, Start) > 3 * Budget)
        break;
      if (Start < DueAt) {
        std::this_thread::sleep_until(DueAt);
        Start = Clock::now();
      }
      Ph.LateMs.push_back(secondsBetween(DueAt, Start) * 1e3);

      ScopedSpan Root(Rec, "service.request", K);
      if (Rec)
        probeFrontend(*Rec, *L, S.Request.Source, K);
      One[0] = S.Request;
      Probe.begin(One);
      uint32_t ServeSpan = Rec ? Rec->begin("core.pool.serve", K) : 0;
      double ExecCpu0 = processCpuSeconds();
      ServiceResult Got = std::move(Pool->serve(One, 1)[0]);
      Ph.ExecCpuSeconds += processCpuSeconds() - ExecCpu0;
      ServiceMs.push_back(Probe.CpuLatencyMs[0]);
      Clock::time_point S1 = Clock::now();
      if (Rec) {
        Rec->end(ServeSpan);
        Rec->record("core.pool.request", K, Probe.Admit[0], Probe.Done[0],
                    ServeSpan);
      }
      Ph.Busy.push_back(secondsBetween(Start, S1));
      Ph.WallLatencyMs.push_back(secondsBetween(DueAt, S1) * 1e3);
      ++Ph.Ops;
      checkResult(R, Ph, Got, S, K);
    }
    Ph.WallSeconds = secondsBetween(T0, Clock::now());
    Ph.CpuSeconds = processCpuSeconds() - ProcCpu0;
    Ph.Dropped = Due - K;
    Ph.LatencyMs = queueLatenciesMs(ServiceMs);
    Ph.SimInstr = Probe.simInstr();
    Pool->removeObserver(&Probe);
    if (L) {
      Probe.mergeInto(*L);
      PoolCounters::of(*Pool).addDeltaTo(*L, Before);
      L->ExecCpuSeconds += Ph.ExecCpuSeconds;
    }
    return Ph;
  }
};

//===----------------------------------------------------------------------===//
// churn
//===----------------------------------------------------------------------===//

constexpr unsigned ChurnTenants = 16, ChurnBlock = 4, ChurnScripts = 64;
constexpr unsigned ChurnBatch = 8, BatchesPerVisit = 4;
/// Churn runs a fixed number of batches per --seconds (they take 85-100%
/// of it on a 4-CPU host with two workers), not until a deadline: the simulated
/// heaps, and with them the parked snapshots and peak memory, grow with
/// every request served, so a deadline would make those depend on speed.
constexpr double ChurnBatchesPerSecond = 12;
/// Workers of churn's execution stage. Two rather than one per engine:
/// with a worker on every CPU, whatever else runs on the machine preempts
/// one of them and the whole batch waits for that straggler.
constexpr unsigned ChurnJobs = 2;

struct Churn {
  std::vector<Script> Scripts; // Tenant-major.
  std::vector<Script> Trainees;
  PoolConfig Cfg;
  unsigned Jobs;
  uint64_t Seed;
  Report &R;

  /// Trains one engine, captures its snapshot as the pool-wide warm start
  /// and constructs the pool. With \p L, also times a warm construction
  /// from the snapshot against a cold one (spans and snapshot metrics).
  std::unique_ptr<EnginePool> setUp(double &Seconds, SpanRecorder *Rec,
                                    LayerTotals *L) {
    double Cpu0 = processCpuSeconds();
    EngineConfig TrainCfg = Cfg.Base;
    TrainCfg.ProfilePersistence = true; // As every warm-started pool engine.
    std::optional<Engine> Trainer(std::in_place, TrainCfg);
    for (const Script &S : Trainees) {
      bool Halted =
          !(Trainer->load(S.Request.Source) && Trainer->runTopLevel());
      if (Halted != S.Ref.Halted || Trainer->output() != S.Ref.Output)
        R.fail("trainer script differs from the baseline-tier reference");
    }
    Clock::time_point C0 = Clock::now();
    auto Snap = std::make_shared<const std::vector<uint8_t>>(
        Trainer->snapshotProfile());
    Clock::time_point C1 = Clock::now();
    Trainer.reset();
    PoolConfig PC = Cfg;
    PC.WarmStartSnapshot = Snap;
    auto Pool = std::make_unique<EnginePool>(PC);
    Seconds = processCpuSeconds() - Cpu0;
    if (!L)
      return Pool;

    L->CaptureSeconds += secondsBetween(C0, C1);
    L->SnapshotBytes += double(Snap->size());
    ++L->Captures;
    std::optional<Engine> E;
    Clock::time_point W0 = Clock::now();
    {
      ScopedSpan S(Rec, "core.engine_new", 0);
      E.emplace(Cfg.Base);
    }
    Clock::time_point W1 = Clock::now();
    E.reset();
    EngineConfig WarmCfg = TrainCfg;
    WarmCfg.ProfileSnapshot = Snap;
    Clock::time_point W2 = Clock::now();
    {
      ScopedSpan S(Rec, "core.snapshot.restore", 0);
      E.emplace(WarmCfg);
    }
    Clock::time_point W3 = Clock::now();
    L->RestoreSeconds += secondsBetween(W2, W3) - secondsBetween(W0, W1);
    ++L->Restores;
    L->RestoresOk += E->snapshotRestoreError().empty();
    return Pool;
  }

  Phase run(double Budget, std::vector<double> &Setups, SpanRecorder *Rec,
            LayerTotals *L) {
    auto SetUp = [&](double &S) { return setUp(S, Rec, L); };
    double Setup = 0;
    std::unique_ptr<EnginePool> Pool = SetUp(Setup);
    Setups.push_back(Setup);
    PoolProbe Probe(*Pool, Cfg.Engines, L != nullptr);
    Pool->addObserver(&Probe);
    PoolCounters Before = PoolCounters::of(*Pool);

    gen::SplitMix64 Rng(subSeed(Seed, 6, 0));
    unsigned Order[ChurnTenants / ChurnBlock] = {0, 1, 2, 3};
    for (unsigned I = ChurnTenants / ChurnBlock; I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.range(I)]);

    Phase Ph;
    Clock::time_point T0 = Clock::now();
    double Cpu0 = processCpuSeconds();
    std::vector<ServiceRequest> Batch(ChurnBatch);
    std::vector<const Script *> Picked(ChurnBatch);
    const uint64_t Batches = std::max<uint64_t>(
        1, static_cast<uint64_t>(Budget * ChurnBatchesPerSecond));
    const uint64_t SetUpEvery = setUpInterval(Batches);
    for (uint64_t B = 0; B < Batches; ++B) {
      if (B && B % SetUpEvery == 0)
        sampleSetUp(Setups, SetUp, T0, Cpu0);
      unsigned Block = Order[(B / BatchesPerVisit) % std::size(Order)];
      // Every tenant of the block gets the same share of the batch, in a
      // seeded order, so batches differ in scripts but not in balance.
      for (unsigned I = 0; I < ChurnBatch; ++I) {
        unsigned Tenant = Block * ChurnBlock + I % ChurnBlock;
        Picked[I] = &Scripts[Tenant * ChurnScripts + Rng.range(ChurnScripts)];
      }
      for (unsigned I = ChurnBatch; I > 1; --I)
        std::swap(Picked[I - 1], Picked[Rng.range(I)]);
      for (unsigned I = 0; I < ChurnBatch; ++I)
        Batch[I] = Picked[I]->Request;
      const uint64_t Op0 = B * ChurnBatch;
      Clock::time_point B0 = Clock::now();
      ScopedSpan Root(Rec, "churn.batch", B);
      if (Rec)
        for (unsigned I = 0; I < ChurnBatch; ++I)
          probeFrontend(*Rec, *L, Batch[I].Source, Op0 + I);
      Probe.begin(Batch);
      double ExecCpu0 = processCpuSeconds();
      uint32_t ServeSpan = Rec ? Rec->begin("core.pool.serve", B) : 0;
      std::vector<ServiceResult> Got = Pool->serve(Batch, Jobs);
      Clock::time_point S1 = Clock::now();
      Ph.ExecCpuSeconds += processCpuSeconds() - ExecCpu0;
      if (Rec)
        Rec->end(ServeSpan);
      for (unsigned I = 0; I < ChurnBatch; ++I) {
        // A shed request never completes; it waited for the whole batch.
        Clock::time_point Done =
            Probe.Done[I] == Clock::time_point() ? S1 : Probe.Done[I];
        if (Rec && Probe.Admit[I] != Clock::time_point())
          Rec->record("core.pool.request", Op0 + I, Probe.Admit[I], Done,
                      ServeSpan);
        Ph.LatencyMs.push_back(Probe.CpuLatencyMs[I]);
        ++Ph.Ops;
        checkResult(R, Ph, Got[I], *Picked[I], Op0 + I);
      }
      Ph.Busy.push_back(secondsBetween(B0, S1));
    }
    Ph.WallSeconds = secondsBetween(T0, Clock::now());
    Ph.CpuSeconds = processCpuSeconds() - Cpu0;
    Ph.SimInstr = Probe.simInstr();
    Pool->removeObserver(&Probe);
    if (L) {
      Probe.mergeInto(*L);
      PoolCounters::of(*Pool).addDeltaTo(*L, Before);
      L->ExecCpuSeconds += Ph.ExecCpuSeconds;
    }
    return Ph;
  }
};

} // namespace

int ccjsbench::runService(const Options &O, Report &R) {
  Service S{{}, {}, {}, O.Seed, R};
  S.Cfg.Engines = ServiceTenants;
  S.Cfg.Base = poolEngineConfig();
  auto Small = [](gen::GenConfig C) {
    C.LoopIterations = std::min(C.LoopIterations, 20u);
    C.TopLevelRepeats = std::min(C.TopLevelRepeats, 3u);
    return C;
  };
  for (unsigned T = 0; T < ServiceTenants; ++T) {
    std::string Tenant = "tenant-" + std::to_string(T);
    for (unsigned I = 0; I < ServiceScripts; ++I)
      S.Scripts.push_back(makeScript(
          Tenant, Small(scriptConfig(O.Seed, 2, T * ServiceScripts + I))));
    S.WarmUps.push_back(makeScript(Tenant, Small(scriptConfig(0, 7, T))));
  }
  return measure(O, R, std::bind_front(&Service::run, &S));
}

int ccjsbench::runChurn(const Options &O, Report &R) {
  Churn C{{}, {}, {}, std::min(ChurnJobs, usableCpus()), O.Seed, R};
  C.Cfg.Engines = ChurnBlock;
  C.Cfg.Base = poolEngineConfig();
  for (unsigned T = 0; T < ChurnTenants; ++T)
    for (unsigned I = 0; I < ChurnScripts; ++I)
      C.Scripts.push_back(makeScript(
          "tenant-" + std::to_string(T),
          scriptConfig(O.Seed, 4, T * ChurnScripts + I)));
  for (unsigned T = 0; T < ChurnBlock; ++T)
    C.Trainees.push_back(makeScript("trainer", scriptConfig(0, 8, T)));
  return measure(O, R, std::bind_front(&Churn::run, &C));
}
