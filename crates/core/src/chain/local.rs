//! The chain driver for [`LocalRunner`]: runs a [`ChainSpec`] for real
//! on the shared worker pool.
//!
//! Under [`HandoffMode::Barrier`] each stage runs to completion and its
//! materialized output is adapted into the next stage's input splits —
//! the run-jobs-sequentially Hadoop baseline, byte-for-byte.
//!
//! Under [`HandoffMode::Streaming`] every record an upstream reduce task
//! emits is adapted and pushed into a bounded batched channel (one per
//! upstream partition — the same transport shape the shuffle uses), and
//! a downstream *map intake* task per channel runs the next stage's map
//! function on records as they arrive. All stages' task state machines
//! are spawned onto **one** `Pool` and driven by a fixed number of OS
//! threads (the max of the stages' `pool_workers` knobs), so a K-stage
//! chain no longer costs K stages' worth of threads. Back-pressure is
//! preserved end to end without holding a thread anywhere: a slow
//! downstream reducer stalls its intake, which fills the handoff
//! channel, which *parks* the upstream reduce task until the channel
//! drains.
//!
//! # Determinism
//!
//! The chained output is byte-identical to the sequential baseline for
//! any final stage whose reduce output is a pure function of its input
//! *multiset* — every keyed-state application (aggregation, selection,
//! sorting) qualifies, because the partial store drains in key order at
//! finalize regardless of arrival order. Applications that emit during
//! `absorb` in arrival order (Identity, cross-key windows) keep exactly
//! the determinism they had under the single-job barrier-less engine:
//! the multiset of output records is identical, their order within a
//! partition follows the stream interleaving.

use crate::chain::{ChainOutput, ChainableApplication, StageStats};
use crate::config::{ChainSpec, HandoffMode};
use crate::counters::{names, Counters};
use crate::error::{MrError, MrResult};
use crate::local::cache::SharedCache;
use crate::local::pool::{Ctx, Pool, PoolReceiver, PoolSender, TrySend};
use crate::local::{
    build_stage, collect_stage, InputSplit, LocalRunner, ReduceSink, StageInput, StageState,
    BATCH_CHANNEL_DEPTH,
};
use crate::output::JobOutput;
use crate::partition::Partitioner;
use crate::size::SizeEstimate;
use crate::traits::{Application, Emit};
use mr_cache::StableHash;
use mr_trace::{Scope, TraceEvent, TraceInstant, TraceLog};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// A handed-off record batch: already adapted to the downstream input
/// types.
type Handoff<B> = Vec<(<B as Application>::InKey, <B as Application>::InValue)>;

/// A materialized output partition of stage `X`.
type StageOut<X> = Vec<(<X as Application>::OutKey, <X as Application>::OutValue)>;

/// The sink a middle stage of a homogeneous chain reduces into: a
/// handoff to another stage of the same application type.
type MidSink<'a, A> = HandoffSink<'a, A, <A as Application>::OutKey, <A as Application>::OutValue>;

/// Per-boundary handoff bookkeeping, merged from every upstream sink.
#[derive(Debug, Default)]
struct HandoffStats {
    records: u64,
    batches: u64,
    bytes: u64,
    first_secs: Option<f64>,
}

impl HandoffStats {
    fn charge(&self, counters: &mut Counters) {
        counters.add(names::CHAIN_HANDOFF_RECORDS, self.records);
        counters.add(names::CHAIN_HANDOFF_BATCHES, self.batches);
        counters.add(names::CHAIN_HANDOFF_BYTES, self.bytes);
    }
}

/// The streaming reduce-output sink: adapts each upstream output record
/// to the downstream input type and ships byte-budgeted batches into the
/// downstream map intake channel. One sink per upstream reduce task.
///
/// Sends never block the worker thread: a full channel moves the staged
/// batch to a local pending queue that the owning reduce task drains via
/// [`pump`](ReduceSink::pump), parking until the intake makes room.
/// Batch accounting happens at staging time — a pure function of the
/// emission stream — so handoff counters are schedule-independent.
/// Dropping the sender on [`close`](ReduceSink::close) is the
/// per-partition EOF.
struct HandoffSink<'a, B, UK, UV>
where
    B: ChainableApplication<UK, UV>,
{
    downstream: &'a B,
    tx: Option<PoolSender<Handoff<B>>>,
    pending: VecDeque<Handoff<B>>,
    buf: Handoff<B>,
    buf_bytes: usize,
    batch_bytes: usize,
    emitted: u64,
    batches: u64,
    bytes: u64,
    started: Instant,
    first_secs: Option<f64>,
    stats: &'a Mutex<HandoffStats>,
    _upstream: std::marker::PhantomData<fn(UK, UV)>,
}

impl<'a, B, UK, UV> HandoffSink<'a, B, UK, UV>
where
    B: ChainableApplication<UK, UV>,
{
    /// Cuts the current buffer into a staged batch and tries an
    /// opportunistic non-blocking send; a full channel queues the batch
    /// for [`pump_pending`]. A disconnected channel means the downstream
    /// stage died (the job is failing): stop shipping.
    fn stage(&mut self) {
        self.buf_bytes = 0;
        if self.buf.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.buf);
        self.batches += 1;
        if !self.pending.is_empty() {
            self.pending.push_back(batch);
            return;
        }
        if let Some(tx) = &self.tx {
            match tx.try_send_now(batch) {
                Ok(()) => {}
                Err(TrySend::Full(batch)) => self.pending.push_back(batch),
                Err(TrySend::Disconnected(_)) => {
                    self.tx = None;
                    self.pending.clear();
                }
            }
        }
    }

    /// Drains queued batches toward the intake; `false` means the
    /// channel is full and the owning task should park.
    fn pump_pending(&mut self, cx: &Ctx) -> bool {
        let Some(tx) = &self.tx else {
            self.pending.clear();
            return true;
        };
        while let Some(batch) = self.pending.pop_front() {
            match tx.try_send(cx, batch) {
                Ok(()) => {}
                Err(TrySend::Full(batch)) => {
                    self.pending.push_front(batch);
                    return false;
                }
                Err(TrySend::Disconnected(_)) => {
                    self.tx = None;
                    self.pending.clear();
                    return true;
                }
            }
        }
        true
    }
}

impl<B, UK, UV> Emit<UK, UV> for HandoffSink<'_, B, UK, UV>
where
    B: ChainableApplication<UK, UV>,
{
    fn emit(&mut self, key: UK, value: UV) {
        if self.first_secs.is_none() {
            self.first_secs = Some(self.started.elapsed().as_secs_f64());
        }
        self.emitted += 1;
        let rec_bytes = self.downstream.handoff_bytes(&key, &value);
        self.buf_bytes += rec_bytes;
        self.bytes += rec_bytes as u64;
        self.buf.push(self.downstream.adapt_input(key, value));
        if self.buf_bytes >= self.batch_bytes {
            self.stage();
        }
    }
}

impl<A, B, UK, UV> ReduceSink<A> for HandoffSink<'_, B, UK, UV>
where
    A: Application<OutKey = UK, OutValue = UV>,
    B: ChainableApplication<UK, UV>,
    UK: Send,
    UV: Send,
{
    fn emitted(&self) -> u64 {
        self.emitted
    }

    fn pump(&mut self, cx: &Ctx) -> bool {
        self.pump_pending(cx)
    }

    fn seal(&mut self) {
        self.stage();
    }

    fn close(&mut self) {
        self.tx = None; // EOF for this upstream partition
        let mut stats = self.stats.lock().unwrap();
        stats.records += self.emitted;
        stats.batches += self.batches;
        stats.bytes += self.bytes;
        stats.first_secs = match (stats.first_secs, self.first_secs) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }

    fn into_partition(self) -> Vec<(A::OutKey, A::OutValue)> {
        Vec::new() // the records are downstream already
    }
}

/// Everything one finished stage contributes to the chain result.
struct StageParts {
    /// The run's direct counter totals (they stand in for the log when
    /// tracing is off).
    counters: Counters,
    reports: Vec<crate::engine::DriverReport>,
    /// The boundary this stage fed; `None` for the final stage.
    handoff: Option<HandoffStats>,
    finished_secs: f64,
    /// The stage run's own log, still scoped to job 0.
    trace: TraceLog,
}

/// Appends `counters` to the chain log as stage `job`'s counter totals
/// (zeros included: the derived view must keep every touched key).
fn push_counters(log: &mut TraceLog, job: u32, counters: &Counters) {
    for (name, value) in counters.iter() {
        log.push(
            Scope::job(job),
            TraceEvent::Counter {
                label: name.to_string().into(),
                delta: value,
            },
        );
    }
}

/// Appends stage `job`'s chain-boundary events to the chain log: the
/// charged `chain.handoff.*` counter totals (zeros included, mirroring
/// the legacy charge), a handoff mark at the boundary's first-record
/// instant, and the stage-done mark.
fn push_stage_marks(log: &mut TraceLog, job: u32, handoff: Option<&HandoffStats>, finished: f64) {
    let scope = Scope::job(job);
    if let Some(h) = handoff {
        let mut charged = Counters::new();
        h.charge(&mut charged);
        push_counters(log, job, &charged);
        if let Some(at) = h.first_secs {
            log.push(
                scope,
                TraceEvent::HandoffMark {
                    at: TraceInstant::Wall { secs: at },
                    downstream_map: 0,
                    records: h.records,
                    bytes: h.bytes,
                },
            );
        }
    }
    log.push(
        scope,
        TraceEvent::StageDone {
            at: TraceInstant::Wall { secs: finished },
        },
    );
}

/// Whether the whole chain records traces: every stage must opt in — the
/// chain log merges the stage logs, so one disabled stage would leave a
/// hole the derived [`StageStats`] views can't paper over.
fn chain_tracing(spec: &ChainSpec) -> bool {
    spec.stages.iter().all(|c| c.trace.is_enabled())
}

/// Assembles the chain result from the finished stages: the stage logs
/// merge into one chain log (stage `j`'s events re-scoped to job `j`,
/// boundary marks appended) and every [`StageStats`] is *derived back
/// out of that log*. With tracing off a stage has no log, so its direct
/// counter totals stand in for one, and the chain log is dropped once
/// the stats are derived.
fn assemble_chain<B: Application>(
    trace_on: bool,
    parts: Vec<StageParts>,
    mut output: JobOutput<B>,
) -> ChainOutput<B> {
    let mut trace = TraceLog::new();
    let mut reports = Vec::with_capacity(parts.len());
    for (j, p) in parts.into_iter().enumerate() {
        let job = j as u32;
        if trace_on {
            for mut e in p.trace.entries {
                e.scope.job = job;
                trace.push(e.scope, e.event);
            }
        } else {
            push_counters(&mut trace, job, &p.counters);
        }
        push_stage_marks(&mut trace, job, p.handoff.as_ref(), p.finished_secs);
        reports.push(p.reports);
    }
    let stages = reports
        .into_iter()
        .enumerate()
        .map(|(j, reports)| StageStats::from_log(&trace, j as u32, reports))
        .collect();
    // The final stage's log now lives (re-scoped) in the chain log.
    output.trace = TraceLog::new();
    ChainOutput {
        output,
        stages,
        trace: if trace_on { trace } else { TraceLog::new() },
    }
}

/// One upstream stage of a barrier-handoff chain, run to completion:
/// stamps its finish *before* the boundary copy (the stage's last task
/// is done; the copy belongs to the boundary), then adapts its
/// partitions into the downstream input `into` — split `i` extends with
/// partition `i`, created on demand — charging the handoff stats as it
/// goes. Intermediate output is moved, never cloned.
fn barrier_stage<X, Y>(
    started: Instant,
    out: JobOutput<X>,
    next: &Y,
    into: &mut Vec<Vec<(Y::InKey, Y::InValue)>>,
) -> StageParts
where
    X: Application,
    Y: ChainableApplication<X::OutKey, X::OutValue>,
{
    let finished_secs = started.elapsed().as_secs_f64();
    let mut stats = HandoffStats::default();
    if into.len() < out.partitions.len() {
        into.resize_with(out.partitions.len(), Vec::new);
    }
    for (i, partition) in out.partitions.into_iter().enumerate() {
        if !partition.is_empty() {
            stats.batches += 1;
        }
        for (k, v) in partition {
            stats.records += 1;
            stats.bytes += next.handoff_bytes(&k, &v) as u64;
            into[i].push(next.adapt_input(k, v));
        }
    }
    StageParts {
        counters: out.counters,
        reports: out.reports,
        handoff: Some(stats),
        finished_secs,
        trace: out.trace,
    }
}

/// The final stage's [`StageParts`]: it hands nothing off, and its
/// output survives as the chain output (its log moves into the parts).
fn final_stage<B: Application>(out: &mut JobOutput<B>, finished_secs: f64) -> StageParts {
    StageParts {
        counters: out.counters.clone(),
        reports: out.reports.clone(),
        handoff: None,
        finished_secs,
        trace: std::mem::take(&mut out.trace),
    }
}

/// The barrier-handoff chain: every upstream branch runs to completion
/// through `run_up` and is adapted into the downstream input in branch
/// order (intake `i` is the concatenation of every branch's partition
/// `i`), then the downstream stage runs through `run_down`. The stage
/// runners are closures so the plain and the cached drivers share the
/// fold.
fn barrier_fold<A, B>(
    second: &B,
    branch_splits: Vec<Vec<InputSplit<A>>>,
    mut run_up: impl FnMut(usize, Vec<InputSplit<A>>) -> MrResult<JobOutput<A>>,
    run_down: impl FnOnce(Vec<InputSplit<B>>) -> MrResult<JobOutput<B>>,
    trace_on: bool,
) -> MrResult<ChainOutput<B>>
where
    A: Application,
    B: ChainableApplication<A::OutKey, A::OutValue>,
{
    let started = Instant::now();
    let mut parts = Vec::with_capacity(branch_splits.len() + 1);
    let mut splits2 = Vec::new();
    for (b, splits) in branch_splits.into_iter().enumerate() {
        parts.push(barrier_stage(
            started,
            run_up(b, splits)?,
            second,
            &mut splits2,
        ));
    }
    let mut out = run_down(splits2)?;
    parts.push(final_stage(&mut out, started.elapsed().as_secs_f64()));
    Ok(assemble_chain(trace_on, parts, out))
}

/// One streaming boundary's transport: a bounded batch channel per
/// upstream reducer, each feeding one downstream map intake.
#[allow(clippy::type_complexity)]
fn boundary<X: Application>(
    pool: &mut Pool<'_>,
    upstream_reducers: usize,
) -> (Vec<PoolSender<Handoff<X>>>, Vec<PoolReceiver<Handoff<X>>>) {
    (0..upstream_reducers)
        .map(|_| pool.channel::<Handoff<X>>(BATCH_CHANNEL_DEPTH))
        .unzip()
}

/// The reduce-output sink factory of one upstream stage: reducer `r`
/// ships adapted batches into `txs[r]`, charging `stats`. The factory
/// owns the senders it was given, so once `build_stage` drops it the
/// sinks hold the only senders and each intake sees EOF exactly when
/// its last upstream sink closes.
fn handoff_sinks<'a, B, UK, UV>(
    downstream: &'a B,
    txs: Vec<PoolSender<Handoff<B>>>,
    batch_bytes: usize,
    stats: &'a Mutex<HandoffStats>,
    started: Instant,
) -> impl Fn(usize) -> HandoffSink<'a, B, UK, UV> + 'a
where
    B: ChainableApplication<UK, UV>,
    UK: 'a,
    UV: 'a,
{
    move |r| HandoffSink {
        downstream,
        tx: Some(txs[r].clone()),
        pending: VecDeque::new(),
        buf: Vec::new(),
        buf_bytes: 0,
        batch_bytes,
        emitted: 0,
        batches: 0,
        bytes: 0,
        started,
        first_secs: None,
        stats,
        _upstream: std::marker::PhantomData,
    }
}

/// Collects a streamed upstream stage after the pool finished: its run
/// (the sinks, and with them their borrows of `stats`, are dropped) plus
/// the boundary stats every one of its sinks merged.
fn upstream_parts<X, S>(
    state: StageState<X, S>,
    stats: &Mutex<HandoffStats>,
) -> MrResult<StageParts>
where
    X: Application,
    S: ReduceSink<X>,
{
    let run = collect_stage(state)?;
    Ok(StageParts {
        counters: run.counters,
        reports: run.reports,
        handoff: Some(std::mem::take(&mut *stats.lock().unwrap())),
        finished_secs: run.finished_secs,
        trace: run.trace,
    })
}

/// Collects a streamed chain's final stage: its parts and its output.
fn final_parts<B: Application>(
    state: StageState<B, StageOut<B>>,
) -> MrResult<(StageParts, JobOutput<B>)> {
    let run = collect_stage(state)?;
    let finished_secs = run.finished_secs;
    let mut out = run.into_job_output();
    Ok((final_stage(&mut out, finished_secs), out))
}

/// The worker count of a one-pool chain: the widest stage's knob.
fn pool_width(spec: &ChainSpec) -> usize {
    spec.stages
        .iter()
        .map(|c| c.pool_workers)
        .max()
        .unwrap_or(1)
}

impl LocalRunner {
    /// Runs a two-job chain: `first`'s reduce output, adapted through
    /// [`ChainableApplication::adapt_input`], becomes `second`'s map
    /// input. `spec` must hold exactly two stage configs.
    ///
    /// This is the one-branch case of
    /// [`run_chain_fanin2`](LocalRunner::run_chain_fanin2): under the
    /// barrier handoff it is literally the sequential baseline (run job
    /// 1, materialize, run job 2); under the streaming handoff both
    /// stages' task graphs share one worker pool and job 2's map intake
    /// overlaps job 1's reduce stage.
    pub fn run_chain2<A, B, PA, PB>(
        &self,
        first: &A,
        second: &B,
        splits: Vec<Vec<(A::InKey, A::InValue)>>,
        spec: &ChainSpec,
        pa: &PA,
        pb: &PB,
    ) -> MrResult<ChainOutput<B>>
    where
        A: Application,
        B: ChainableApplication<A::OutKey, A::OutValue>,
        PA: Partitioner<A::MapKey> + Sync,
        PB: Partitioner<B::MapKey> + Sync,
    {
        check_two_stages("run_chain2", spec)?;
        self.run_chain_fanin2(&[first], second, vec![splits], spec, pa, pb)
    }

    /// Runs a two-job chain through the shared result cache: each stage
    /// whose `JobConfig::cache` is enabled consults `cache` exactly like
    /// [`LocalRunner::run_cached`] does, so a re-run of the chain over
    /// unchanged input hits stage 1's sealed job artifact, feeds the
    /// cached partitions across the handoff, and then hits stage 2's —
    /// and a *partially* changed input still reuses every unchanged
    /// split's map artifact within each stage.
    ///
    /// Only the [`HandoffMode::Barrier`] handoff consults the cache:
    /// streamed intakes have no stable per-split identity to key on (the
    /// batch boundaries depend on runtime interleaving), so a
    /// [`HandoffMode::Streaming`] spec runs exactly as
    /// [`LocalRunner::run_chain2`] would, uncached.
    #[allow(clippy::too_many_arguments)]
    pub fn run_chain2_cached<A, B, PA, PB>(
        &self,
        first: &A,
        second: &B,
        splits: Vec<Vec<(A::InKey, A::InValue)>>,
        spec: &ChainSpec,
        pa: &PA,
        pb: &PB,
        cache: &SharedCache,
    ) -> MrResult<ChainOutput<B>>
    where
        A: Application,
        B: ChainableApplication<A::OutKey, A::OutValue>,
        PA: Partitioner<A::MapKey> + Sync,
        PB: Partitioner<B::MapKey> + Sync,
        A::InKey: StableHash,
        A::InValue: StableHash,
        A::MapKey: Sync,
        A::MapValue: Sync,
        A::OutKey: Sync + SizeEstimate,
        A::OutValue: Sync + SizeEstimate,
        B::InKey: StableHash,
        B::InValue: StableHash,
        B::MapKey: Sync,
        B::MapValue: Sync,
        B::OutKey: Sync + SizeEstimate,
        B::OutValue: Sync + SizeEstimate,
    {
        check_two_stages("run_chain2_cached", spec)?;
        if spec.chain.handoff == HandoffMode::Streaming {
            return self.run_chain2(first, second, splits, spec, pa, pb);
        }
        spec.validate()?;
        barrier_fold(
            second,
            vec![splits],
            |_, s| self.run_cached(first, s, &spec.stages[0], pa, cache),
            |s| self.run_cached(second, s, &spec.stages[1], pb, cache),
            chain_tracing(spec),
        )
    }

    /// Runs a simple fan-in chain: several upstream jobs of the same
    /// application type feed one downstream job. `spec` holds one stage
    /// config per branch followed by the downstream stage config; every
    /// branch must use the same partition count (upstream partition `i`
    /// of every branch feeds downstream map intake `i`).
    ///
    /// Under the streaming handoff every branch's task graph and the
    /// downstream stage share one worker pool, and branch emissions
    /// interleave into the shared intake channels; under the barrier
    /// handoff the branches run sequentially and intake `i` is the
    /// branch-ordered concatenation of every branch's partition `i`
    /// output.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    pub fn run_chain_fanin2<A, B, PA, PB>(
        &self,
        firsts: &[&A],
        second: &B,
        branch_splits: Vec<Vec<Vec<(A::InKey, A::InValue)>>>,
        spec: &ChainSpec,
        pa: &PA,
        pb: &PB,
    ) -> MrResult<ChainOutput<B>>
    where
        A: Application,
        B: ChainableApplication<A::OutKey, A::OutValue>,
        PA: Partitioner<A::MapKey> + Sync,
        PB: Partitioner<B::MapKey> + Sync,
    {
        spec.validate_fan_in(firsts.len())?;
        if branch_splits.len() != firsts.len() {
            return Err(MrError::InvalidConfig(format!(
                "fan-in: {} apps but {} split sets",
                firsts.len(),
                branch_splits.len()
            )));
        }
        let branches = firsts.len();
        let cfg2 = &spec.stages[branches];
        if spec.chain.handoff == HandoffMode::Barrier {
            return barrier_fold(
                second,
                branch_splits,
                |b, s| self.run_with_partitioner(firsts[b], s, &spec.stages[b], pa),
                |s| self.run_with_partitioner(second, s, cfg2, pb),
                chain_tracing(spec),
            );
        }

        // Streaming fan-in: every branch's reducer i ships into the
        // shared intake channel i; EOF when the last branch's sink
        // closes.
        let started = Instant::now();
        let r1 = spec.stages[0].reducers;
        let batch_bytes = spec.chain.handoff_batch_bytes;
        let branch_stats: Vec<Mutex<HandoffStats>> = (0..branches)
            .map(|_| Mutex::new(HandoffStats::default()))
            .collect();
        let branch_states: Vec<StageState<A, HandoffSink<'_, B, A::OutKey, A::OutValue>>> =
            branch_splits
                .iter()
                .enumerate()
                .map(|(b, splits)| StageState::new(&spec.stages[b], splits.len()))
                .collect();
        let state2: StageState<B, StageOut<B>> = StageState::new(cfg2, r1);
        let mut pool = Pool::new();
        let (txs, rxs) = boundary::<B>(&mut pool, r1);
        build_stage(
            &mut pool,
            &state2,
            second,
            cfg2,
            pb,
            StageInput::Intakes(rxs),
            self.map_threads,
            None,
            |_| Vec::new(),
        )?;
        for (b, (app, splits)) in firsts.iter().zip(&branch_splits).enumerate() {
            build_stage(
                &mut pool,
                &branch_states[b],
                *app,
                &spec.stages[b],
                pa,
                StageInput::Splits(splits),
                self.map_threads,
                None,
                handoff_sinks(second, txs.clone(), batch_bytes, &branch_stats[b], started),
            )?;
        }
        drop(txs);
        pool.run(pool_width(spec))?;

        let mut parts = Vec::with_capacity(branches + 1);
        for (state, stats) in branch_states.into_iter().zip(&branch_stats) {
            parts.push(upstream_parts(state, stats)?);
        }
        let (last, out) = final_parts(state2)?;
        parts.push(last);
        Ok(assemble_chain(chain_tracing(spec), parts, out))
    }

    /// Runs a homogeneous K-stage chain: the same application `app` runs
    /// `spec.len()` times, each stage consuming the previous stage's
    /// reduce output through its own
    /// [`adapt_input`](ChainableApplication::adapt_input) — the
    /// iterative-job driver (e.g. one genetic-algorithm generation per
    /// stage).
    ///
    /// Under the streaming handoff all K stages are live at once on one
    /// worker pool: stage `j + 1`'s map intake absorbs stage `j`'s
    /// reducer emissions as they happen, so an entire iterative pipeline
    /// runs with no inter-job barrier anywhere — and no per-stage thread
    /// tree either.
    pub fn run_chain_iter<A, P>(
        &self,
        app: &A,
        splits: Vec<Vec<(A::InKey, A::InValue)>>,
        spec: &ChainSpec,
        partitioner: &P,
    ) -> MrResult<ChainOutput<A>>
    where
        A: ChainableApplication<<A as Application>::OutKey, <A as Application>::OutValue>,
        P: Partitioner<A::MapKey> + Sync,
    {
        spec.validate()?;
        let k = spec.len();
        let started = Instant::now();
        let mut parts = Vec::with_capacity(k);
        if k == 1 || spec.chain.handoff == HandoffMode::Barrier {
            // Sequential fold: run each stage, adapt, feed the next.
            let mut current = splits;
            for cfg in &spec.stages[..k - 1] {
                let out =
                    self.run_with_partitioner(app, std::mem::take(&mut current), cfg, partitioner)?;
                parts.push(barrier_stage(started, out, app, &mut current));
            }
            let mut out =
                self.run_with_partitioner(app, current, &spec.stages[k - 1], partitioner)?;
            parts.push(final_stage(&mut out, started.elapsed().as_secs_f64()));
            return Ok(assemble_chain(chain_tracing(spec), parts, out));
        }

        // Streaming: all K stages live on one pool, connected by K-1
        // channel boundaries (boundary j carries stage j's output into
        // stage j+1's intake; its channel count is stage j's reducer
        // count).
        let batch_bytes = spec.chain.handoff_batch_bytes;
        // Declared before the states: the middle stages' sinks borrow it.
        let stats: Vec<Mutex<HandoffStats>> = (0..k - 1)
            .map(|_| Mutex::new(HandoffStats::default()))
            .collect();
        let mid_states: Vec<StageState<A, MidSink<'_, A>>> = (0..k - 1)
            .map(|j| {
                let n_map_slots = if j == 0 {
                    splits.len()
                } else {
                    spec.stages[j - 1].reducers
                };
                StageState::new(&spec.stages[j], n_map_slots)
            })
            .collect();
        let last_state: StageState<A, StageOut<A>> =
            StageState::new(&spec.stages[k - 1], spec.stages[k - 2].reducers);
        let mut pool = Pool::new();
        let (mut txs, mut rxs): (Vec<_>, Vec<_>) = spec.stages[..k - 1]
            .iter()
            .map(|c| {
                let (tx, rx) = boundary::<A>(&mut pool, c.reducers);
                (Some(tx), Some(rx))
            })
            .unzip();
        build_stage(
            &mut pool,
            &last_state,
            app,
            &spec.stages[k - 1],
            partitioner,
            StageInput::Intakes(rxs[k - 2].take().expect("one taker")),
            self.map_threads,
            None,
            |_| Vec::new(),
        )?;
        for j in 1..k - 1 {
            build_stage(
                &mut pool,
                &mid_states[j],
                app,
                &spec.stages[j],
                partitioner,
                StageInput::Intakes(rxs[j - 1].take().expect("one taker")),
                self.map_threads,
                None,
                handoff_sinks(
                    app,
                    txs[j].take().expect("one taker"),
                    batch_bytes,
                    &stats[j],
                    started,
                ),
            )?;
        }
        build_stage(
            &mut pool,
            &mid_states[0],
            app,
            &spec.stages[0],
            partitioner,
            StageInput::Splits(&splits),
            self.map_threads,
            None,
            handoff_sinks(
                app,
                txs[0].take().expect("one taker"),
                batch_bytes,
                &stats[0],
                started,
            ),
        )?;
        pool.run(pool_width(spec))?;

        for (state, stats) in mid_states.into_iter().zip(&stats) {
            parts.push(upstream_parts(state, stats)?);
        }
        let (last, out) = final_parts(last_state)?;
        parts.push(last);
        Ok(assemble_chain(chain_tracing(spec), parts, out))
    }
}

/// The two-stage drivers' spec check, before anything is spawned.
fn check_two_stages(driver: &str, spec: &ChainSpec) -> MrResult<()> {
    if spec.len() != 2 {
        return Err(MrError::InvalidConfig(format!(
            "{driver} needs exactly 2 stages, spec has {}",
            spec.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::InputAdapter;
    use crate::config::{ChainConfig, Engine, JobConfig, MemoryPolicy, StoreIndex};
    use crate::partition::HashPartitioner;
    use crate::testutil::{scratch_dir, WordCountApp};

    /// WordCount chained into a count histogram: stage 2 counts how many
    /// distinct words occurred with each count value. Deterministic,
    /// order-free, and exercises a real type adaptation at the boundary.
    fn histogram() -> InputAdapter<WordCountApp, impl Fn(String, u64) -> (u64, String)> {
        InputAdapter::new(WordCountApp, |_word: String, count: u64| {
            (0u64, format!("c{count}"))
        })
    }

    fn text_splits(n_splits: usize, lines: usize) -> Vec<Vec<(u64, String)>> {
        let vocab = [
            "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
        ];
        let mut id = 0u64;
        (0..n_splits)
            .map(|s| {
                (0..lines)
                    .map(|l| {
                        let a = vocab[(s * 3 + l) % vocab.len()];
                        let b = vocab[(s + l * 5) % vocab.len()];
                        let c = vocab[(s * 7 + l * 2) % vocab.len()];
                        id += 1;
                        (id, format!("{a} {b} {c}"))
                    })
                    .collect()
            })
            .collect()
    }

    /// The ground truth: run the two jobs sequentially by hand.
    fn sequential_reference(
        splits: Vec<Vec<(u64, String)>>,
        cfg1: &JobConfig,
        cfg2: &JobConfig,
    ) -> Vec<Vec<(String, u64)>> {
        let runner = LocalRunner::new(4);
        let second = histogram();
        let out1 = runner.run(&WordCountApp, splits, cfg1).unwrap();
        let splits2: Vec<Vec<(u64, String)>> = out1
            .partitions
            .into_iter()
            .map(|p| {
                p.into_iter()
                    .map(|(k, v)| second.adapt_input(k, v))
                    .collect()
            })
            .collect();
        runner.run(&second, splits2, cfg2).unwrap().partitions
    }

    fn spec2(cfg1: JobConfig, cfg2: JobConfig, handoff: HandoffMode) -> ChainSpec {
        ChainSpec::new(vec![cfg1, cfg2]).handoff(handoff)
    }

    #[test]
    fn streaming_chain_matches_sequential_baseline_across_engines() {
        let splits = text_splits(6, 30);
        let engines = [
            Engine::Barrier,
            Engine::barrierless(),
            Engine::BarrierLess {
                memory: MemoryPolicy::SpillMerge {
                    threshold_bytes: 256,
                },
            },
        ];
        for e1 in &engines {
            for e2 in &engines {
                let cfg1 = JobConfig::new(3)
                    .engine(e1.clone())
                    .scratch_dir(scratch_dir("chain-eq1"));
                let cfg2 = JobConfig::new(2)
                    .engine(e2.clone())
                    .scratch_dir(scratch_dir("chain-eq2"));
                let expect = sequential_reference(splits.clone(), &cfg1, &cfg2);
                for handoff in [HandoffMode::Barrier, HandoffMode::Streaming] {
                    let out = LocalRunner::new(4)
                        .run_chain2(
                            &WordCountApp,
                            &histogram(),
                            splits.clone(),
                            &spec2(cfg1.clone(), cfg2.clone(), handoff),
                            &HashPartitioner,
                            &HashPartitioner,
                        )
                        .unwrap();
                    assert_eq!(
                        out.output.partitions, expect,
                        "chain {handoff:?} diverged under {e1:?} -> {e2:?}"
                    );
                    assert_eq!(out.stages.len(), 2);
                    assert!(out.stages[0].handoff_records > 0);
                    assert_eq!(out.handoff_records(), out.stages[0].handoff_records);
                    assert_eq!(
                        out.stages[0].counters.get(names::CHAIN_HANDOFF_RECORDS),
                        out.stages[0].handoff_records
                    );
                    if handoff == HandoffMode::Streaming {
                        assert!(out.stages[0].first_handoff_secs.is_some());
                        assert!(out.stages[0].handoff_batches > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn streaming_chain_respects_index_and_combiner_knobs() {
        let splits = text_splits(5, 24);
        let cfg1 = JobConfig::new(2).engine(Engine::barrierless());
        let cfg2 = JobConfig::new(2).engine(Engine::barrierless());
        let expect = sequential_reference(splits.clone(), &cfg1, &cfg2);
        for index in [StoreIndex::Ordered, StoreIndex::Hashed] {
            for combine in [
                crate::config::CombinerPolicy::Disabled,
                crate::config::CombinerPolicy::enabled(),
            ] {
                let cfg1 = cfg1.clone().store_index(index).combiner(combine);
                let cfg2 = cfg2.clone().store_index(index).combiner(combine);
                let out = LocalRunner::new(4)
                    .run_chain2(
                        &WordCountApp,
                        &histogram(),
                        splits.clone(),
                        &spec2(cfg1, cfg2, HandoffMode::Streaming),
                        &HashPartitioner,
                        &HashPartitioner,
                    )
                    .unwrap();
                assert_eq!(
                    out.output.partitions, expect,
                    "index {index:?} combiner {combine:?} changed chained output"
                );
            }
        }
    }

    #[test]
    fn tiny_handoff_batches_still_deliver_everything() {
        let splits = text_splits(4, 20);
        let cfg1 = JobConfig::new(3).engine(Engine::barrierless());
        let cfg2 = JobConfig::new(2).engine(Engine::barrierless());
        let expect = sequential_reference(splits.clone(), &cfg1, &cfg2);
        let spec =
            ChainSpec::new(vec![cfg1, cfg2]).chain(ChainConfig::streaming().handoff_batch_bytes(1));
        let out = LocalRunner::new(2)
            .run_chain2(
                &WordCountApp,
                &histogram(),
                splits,
                &spec,
                &HashPartitioner,
                &HashPartitioner,
            )
            .unwrap();
        assert_eq!(out.output.partitions, expect);
        // One-byte batches: every handed-off record rode its own batch.
        assert_eq!(out.stages[0].handoff_batches, out.stages[0].handoff_records);
    }

    #[test]
    fn empty_input_chains_cleanly() {
        for handoff in [HandoffMode::Barrier, HandoffMode::Streaming] {
            let spec = spec2(
                JobConfig::new(2).engine(Engine::barrierless()),
                JobConfig::new(2).engine(Engine::barrierless()),
                handoff,
            );
            let out = LocalRunner::new(2)
                .run_chain2(
                    &WordCountApp,
                    &histogram(),
                    Vec::new(),
                    &spec,
                    &HashPartitioner,
                    &HashPartitioner,
                )
                .unwrap();
            assert_eq!(out.output.record_count(), 0);
            assert_eq!(out.handoff_records(), 0);
        }
    }

    #[test]
    fn chain_spec_errors_are_reported_not_hung() {
        let splits = text_splits(2, 5);
        // Wrong stage count.
        let spec = ChainSpec::new(vec![JobConfig::new(1)]);
        assert!(matches!(
            LocalRunner::new(2).run_chain2(
                &WordCountApp,
                &histogram(),
                splits.clone(),
                &spec,
                &HashPartitioner,
                &HashPartitioner,
            ),
            Err(MrError::InvalidConfig(_))
        ));
        // A bad stage knob.
        let mut bad = JobConfig::new(2);
        bad.shuffle_batch_bytes = 0;
        let spec = spec2(JobConfig::new(2), bad, HandoffMode::Streaming);
        assert!(matches!(
            LocalRunner::new(2).run_chain2(
                &WordCountApp,
                &histogram(),
                splits,
                &spec,
                &HashPartitioner,
                &HashPartitioner,
            ),
            Err(MrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn downstream_oom_fails_the_chain_without_hanging() {
        // Swept across pool widths: a dead downstream intake must
        // unblock parked upstream senders whether they share one
        // worker thread or spread over several.
        for workers in [1usize, 2, 4] {
            let splits = text_splits(6, 40);
            let cfg1 = JobConfig::new(2)
                .engine(Engine::barrierless())
                .pool_workers(workers);
            let mut cfg2 = JobConfig::new(1)
                .engine(Engine::barrierless())
                .pool_workers(workers);
            cfg2.heap_cap_bytes = Some(16); // dies on the first few records
            let err = LocalRunner::new(4).run_chain2(
                &WordCountApp,
                &histogram(),
                splits,
                &spec2(cfg1, cfg2, HandoffMode::Streaming),
                &HashPartitioner,
                &HashPartitioner,
            );
            assert!(
                matches!(err, Err(MrError::OutOfMemory { .. })),
                "{workers}w: expected downstream OOM, got {:?}",
                err.err().map(|e| e.to_string())
            );
        }
    }

    #[test]
    fn upstream_oom_fails_the_chain_without_hanging() {
        for workers in [1usize, 2, 4] {
            let splits = text_splits(6, 40);
            let mut cfg1 = JobConfig::new(2)
                .engine(Engine::barrierless())
                .pool_workers(workers);
            cfg1.heap_cap_bytes = Some(16);
            let cfg2 = JobConfig::new(2)
                .engine(Engine::barrierless())
                .pool_workers(workers);
            let err = LocalRunner::new(4).run_chain2(
                &WordCountApp,
                &histogram(),
                splits,
                &spec2(cfg1, cfg2, HandoffMode::Streaming),
                &HashPartitioner,
                &HashPartitioner,
            );
            assert!(
                matches!(err, Err(MrError::OutOfMemory { .. })),
                "{workers}w: expected upstream OOM, got {:?}",
                err.err().map(|e| e.to_string())
            );
        }
    }

    #[test]
    fn fanin_streaming_matches_fanin_barrier() {
        let splits_a = text_splits(3, 20);
        let splits_b = text_splits(4, 15);
        let mk_spec = |handoff| {
            ChainSpec::new(vec![
                JobConfig::new(2).engine(Engine::barrierless()),
                JobConfig::new(2).engine(Engine::barrierless()),
                JobConfig::new(2).engine(Engine::barrierless()),
            ])
            .handoff(handoff)
        };
        let run = |handoff| {
            LocalRunner::new(4)
                .run_chain_fanin2(
                    &[&WordCountApp, &WordCountApp],
                    &histogram(),
                    vec![splits_a.clone(), splits_b.clone()],
                    &mk_spec(handoff),
                    &HashPartitioner,
                    &HashPartitioner,
                )
                .unwrap()
        };
        let barrier = run(HandoffMode::Barrier);
        let streaming = run(HandoffMode::Streaming);
        assert_eq!(barrier.output.partitions, streaming.output.partitions);
        assert_eq!(barrier.stages.len(), 3);
        assert_eq!(streaming.stages.len(), 3);
        assert!(streaming.stages[0].handoff_records > 0);
        assert!(streaming.stages[1].handoff_records > 0);
        assert_eq!(streaming.stages[2].handoff_records, 0);
        assert_eq!(
            barrier.handoff_records(),
            streaming.handoff_records(),
            "fan-in handoff volume must not depend on the mode"
        );
    }

    #[test]
    fn fanin_rejects_mismatched_branch_partitions() {
        let spec = ChainSpec::new(vec![
            JobConfig::new(2),
            JobConfig::new(3),
            JobConfig::new(2),
        ])
        .handoff(HandoffMode::Streaming);
        let err = LocalRunner::new(2).run_chain_fanin2(
            &[&WordCountApp, &WordCountApp],
            &histogram(),
            vec![text_splits(1, 4), text_splits(1, 4)],
            &spec,
            &HashPartitioner,
            &HashPartitioner,
        );
        assert!(matches!(err, Err(MrError::InvalidConfig(_))));
    }

    /// A homogeneous chainable app for the iterative driver: wordcount
    /// whose output words feed the next generation's text.
    fn iter_app() -> InputAdapter<WordCountApp, impl Fn(String, u64) -> (u64, String)> {
        InputAdapter::new(WordCountApp, |word: String, count: u64| {
            (count, format!("{word} x{count}"))
        })
    }

    #[test]
    fn iterative_streaming_chain_matches_sequential_fold() {
        let splits = text_splits(4, 25);
        let app = iter_app();
        let k = 4;
        let mk_spec = |handoff| {
            ChainSpec::new(
                (0..k)
                    .map(|_| JobConfig::new(3).engine(Engine::barrierless()))
                    .collect(),
            )
            .handoff(handoff)
        };
        // Ground truth: fold by hand through K generations.
        let mut current = splits.clone();
        let mut expect = Vec::new();
        for _ in 0..k {
            let run = LocalRunner::new(4)
                .run(
                    &app,
                    current,
                    &JobConfig::new(3).engine(Engine::barrierless()),
                )
                .unwrap();
            expect = run.partitions.clone();
            current = run
                .partitions
                .into_iter()
                .map(|p| p.into_iter().map(|(w, c)| app.adapt_input(w, c)).collect())
                .collect();
        }
        for handoff in [HandoffMode::Barrier, HandoffMode::Streaming] {
            let out = LocalRunner::new(4)
                .run_chain_iter(&app, splits.clone(), &mk_spec(handoff), &HashPartitioner)
                .unwrap();
            assert_eq!(
                out.output.partitions, expect,
                "iterative chain {handoff:?} diverged from the sequential fold"
            );
            assert_eq!(out.stages.len(), k);
            for stage in &out.stages[..k - 1] {
                assert!(stage.handoff_records > 0, "a generation handed nothing off");
            }
            assert_eq!(out.stages[k - 1].handoff_records, 0);
        }
    }

    #[test]
    fn single_stage_iter_chain_is_just_the_job() {
        let splits = text_splits(3, 10);
        let app = iter_app();
        let cfg = JobConfig::new(2).engine(Engine::barrierless());
        let plain = LocalRunner::new(2).run(&app, splits.clone(), &cfg).unwrap();
        let out = LocalRunner::new(2)
            .run_chain_iter(
                &app,
                splits,
                &ChainSpec::new(vec![cfg]).handoff(HandoffMode::Streaming),
                &HashPartitioner,
            )
            .unwrap();
        assert_eq!(out.output.partitions, plain.partitions);
        assert_eq!(out.stages.len(), 1);
        assert_eq!(out.handoff_records(), 0);
    }
}
