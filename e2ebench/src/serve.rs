//! The service probe: `MappingService` under an open-loop arrival
//! stream, run in the second half of `direct`'s traced run.
//!
//! One service worker on a 20-node Hopper allocation (16 nodes of work
//! plus four of headroom for churn) holds a resident stencil job, with
//! durability on. The generator (this thread) replays a seeded
//! `load_sequence` stream: about 80 % map requests for ring+chord graphs
//! of 64–128 tasks and 20 % node churn, which the service repairs,
//! journals and snapshots. The generator sleeps until each arrival is
//! due, so a stall delays later arrivals' submission but not their due
//! times, and every reply is timed from its due time. Churn is applied
//! in order by a repairer thread, so at most two threads are busy: the
//! worker, or the repairer holding the state lock against it, and the
//! generator.
//!
//! The probe's numbers are per-layer metrics, not end-to-end ones: on a
//! 2-vCPU VM its reply latencies moved by 1.5× between runs of the same
//! code, with the host's load (README.md).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use umpa_core::greedy::weighted_hops;
use umpa_core::{map_tasks_with, validate_mapping, MapperScratch};
use umpa_graph::TaskGraph;
use umpa_matgen::{load_sequence, stencil3d_tasks, ChurnSpec, LoadEvent, LoadSpec};
use umpa_service::journal::Durability;
use umpa_service::{
    DurabilityConfig, LadderRung, MapJob, MapReply, MapTicket, MappingService, RepairReport,
    ServiceConfig, ServiceError, Submit,
};
use umpa_topology::{Allocation, ChurnEvent, Machine};

use crate::fixtures::{self, mix, Size};
use crate::report::Report;
use crate::stats::{mean, median, quantile};

/// Arrival rates, arrivals per second (map requests and churn events
/// together). Fixed numbers, not derived from a measured round trip:
/// a derived rate would hand a faster program a heavier load and
/// tighter deadlines, and two runs of the same code would not see the
/// same stream. One worker completes ≈1,300 requests of this mix per
/// second of its time on a 2-CPU box (churn repairs included), so it
/// saturates near 1,600 arrivals/s: `low` is ≈20 % of that, `high`
/// ≈55 %.
const LOW_RPS: f64 = 320.0;
const HIGH_RPS: f64 = 900.0;

/// Request deadlines, cycled in arrival order: the service's 50 ms
/// default, a comfortable 5 ms and a tight 1.5 ms, which a full-rung
/// map fits only when the ladder's learned cost estimate (times its
/// safety factor of 2) says it will. Fixed for the same reason as the
/// rates.
const DEADLINES_NS: [u64; 3] = [50_000_000, 5_000_000, 1_500_000];

/// Reply and repair tail percentile.
const TAIL_Q: f64 = 0.99;

/// Allocated nodes: 16 of work plus 4 of headroom, so the churn
/// generator's 25 % removal cap never leaves the resident job without
/// room.
const NODES: usize = 20;

/// Admission queue bound. A drift check can hold the state lock for
/// 100 ms; the default 64 would shed requests at `high` behind such a
/// stall, and a shed request counts as failed.
const QUEUE_CAPACITY: usize = 1024;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    Warm,
    Low,
    High,
}

/// One admitted request, awaiting its reply.
struct Sent {
    ticket: MapTicket,
    /// How late the generator submitted it.
    submit_delay_ns: u64,
    phase: Phase,
    deadline_ns: u64,
    tasks: Arc<TaskGraph>,
    /// Churn events applied before submission: the oldest state the
    /// request can have been served on.
    churn_at_submit: usize,
}

/// One finished request.
struct Done {
    reply: Result<MapReply, ServiceError>,
    latency_ms: f64,
    phase: Phase,
    deadline_ns: u64,
    tasks: Arc<TaskGraph>,
    churn_at_submit: usize,
    /// Churn events applied when its phase ended: the newest state it
    /// can have been served on.
    churn_at_receipt: usize,
}

/// What the generator hands the repairer: a churn event, or a barrier
/// it acknowledges once every event sent before it is applied.
enum Msg {
    Churn(ChurnEvent),
    Barrier(mpsc::Sender<()>),
}

/// The repairer's record of the churn it applied.
#[derive(Default)]
struct Churn {
    /// `history[k]`: the allocation after `k` churn events.
    history: Vec<Allocation>,
    /// `apply_churn` latency per event, as its caller sees it.
    repair_us: Vec<f64>,
    reports: Vec<RepairReport>,
    events: Vec<ChurnEvent>,
}

/// Ring + chords with skewed weights, `n` tasks: the request graphs.
/// The shape depends on `n` and `seed mod 5` only, so the generator
/// builds each distinct graph once, before the clock starts.
fn ring_with_chords(n: u32, seed: u64) -> TaskGraph {
    let n = n.max(4);
    let msgs = (0..n).flat_map(move |i| {
        let w = 1.0 + ((u64::from(i) + seed) % 5) as f64;
        [
            (i, (i + 1) % n, 2.0 * w),
            (i, (i + n / 3).max(i + 1) % n, w),
        ]
    });
    TaskGraph::from_messages(n as usize, msgs, None)
}

/// A directory for durability files under the working directory: the
/// benchmark writes nothing outside its checkout.
fn scratch_dir(tag: &str) -> PathBuf {
    Path::new(".e2ebench-tmp").join(format!("{tag}-{}", std::process::id()))
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        // Succeeds only once no other run's directory is left.
        let _ = std::fs::remove_dir(parent);
    }
}

/// Runs the probe for `seconds` (warm-up at `low` 10 %, `low` 45 %,
/// `high` 45 %) and records the service, remap, supervisor, journal and
/// generator metrics.
pub fn probe(size: Size, seed: u64, seconds: f64, rep: &mut Report) {
    let (machine, _) = fixtures::warm_machine("torus", size);
    let nodes = match size {
        Size::Full => NODES,
        Size::Tiny => 10,
    };
    let alloc = fixtures::sparse_alloc(&machine, nodes, mix(seed, 20));
    let (x, y, z) = match size {
        Size::Full => (8, 8, 4),
        Size::Tiny => (4, 4, 2),
    };
    let resident = Arc::new(stencil3d_tasks(
        x,
        y,
        z,
        8.0,
        2.0,
        0.5 * nodes as f64 * f64::from(machine.procs_per_node()),
    ));
    let plan = [
        (Phase::Warm, LOW_RPS, 0.1 * seconds),
        (Phase::Low, LOW_RPS, 0.45 * seconds),
        (Phase::High, HIGH_RPS, 0.45 * seconds),
    ];
    // One seeded stream with unit-mean gaps, scaled to each phase's rate.
    let arrivals: f64 = plan.iter().map(|&(_, r, s)| r * s).sum();
    let spec = LoadSpec {
        events: (arrivals * 1.2) as usize + 64,
        mean_gap_ns: 1_000_000_000,
        churn_fraction: 0.2,
        tasks: match size {
            Size::Full => (64, 128),
            Size::Tiny => (8, 16),
        },
        churn: ChurnSpec::nodes_only(0, 0),
        ..LoadSpec::new(0, mix(seed, 21))
    };
    let stream = load_sequence(&machine, &alloc, &spec);
    let mut graphs: HashMap<(u32, u64), Arc<TaskGraph>> = HashMap::new();
    for ev in &stream {
        if let LoadEvent::Request { tasks, seed, .. } = *ev {
            graphs
                .entry((tasks, seed % 5))
                .or_insert_with(|| Arc::new(ring_with_chords(tasks, seed)));
        }
    }

    let dir = scratch_dir("serve");
    let svc = MappingService::new(
        machine.clone(),
        alloc.clone(),
        ServiceConfig {
            workers: 1,
            queue_capacity: QUEUE_CAPACITY,
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServiceConfig::default()
        },
    );
    svc.install_job(Arc::clone(&resident));

    let churn_applied = AtomicUsize::new(0);
    let mut shed: Vec<Phase> = Vec::new();
    let mut sent: HashMap<Phase, usize> = HashMap::new();
    let mut late_ms: Vec<f64> = Vec::new();
    let mut done: Vec<Done> = Vec::new();

    let churn = std::thread::scope(|s| {
        let (svc, churn_applied) = (&svc, &churn_applied);
        let (churn_tx, churn_rx) = mpsc::channel::<Msg>();
        let repairer = s.spawn(move || {
            let mut churn = Churn {
                history: vec![alloc.clone()],
                ..Churn::default()
            };
            for msg in churn_rx {
                match msg {
                    Msg::Churn(event) => {
                        let t = Instant::now();
                        let report = svc.apply_churn(std::slice::from_ref(&event));
                        churn.repair_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                        churn.history.push(svc.with_state(|_, a| a.clone()));
                        churn_applied.fetch_add(1, Ordering::SeqCst);
                        churn.events.push(event);
                        churn.reports.push(report);
                    }
                    Msg::Barrier(ack) => {
                        let _ = ack.send(());
                    }
                }
            }
            churn
        });

        let mut next = stream.iter().peekable();
        let mut requests = 0usize;
        let mut pending: Vec<Sent> = Vec::new();
        for &(phase, rate, secs) in &plan {
            let start = Instant::now() + Duration::from_millis(1);
            let end = start + Duration::from_secs_f64(secs);
            let mut due = start;
            while let Some(ev) = next.peek() {
                let at = due + Duration::from_secs_f64(ev.gap_ns() as f64 / 1e9 / rate);
                if at > end {
                    break;
                }
                due = at;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if phase != Phase::Warm {
                    let late = Instant::now().saturating_duration_since(due);
                    late_ms.push(late.as_nanos() as f64 / 1e6);
                }
                match next.next().expect("peeked") {
                    LoadEvent::Churn { event, .. } => churn_tx
                        .send(Msg::Churn(event.clone()))
                        .expect("repairer outlives the generator"),
                    LoadEvent::Request { tasks, seed, .. } => {
                        let tasks = Arc::clone(&graphs[&(*tasks, seed % 5)]);
                        let deadline_ns = DEADLINES_NS[requests % DEADLINES_NS.len()];
                        requests += 1;
                        *sent.entry(phase).or_default() += 1;
                        let churn_at_submit = churn_applied.load(Ordering::SeqCst);
                        let job = MapJob::new(Arc::clone(&tasks)).with_deadline_ns(deadline_ns);
                        let submitted = Instant::now();
                        match svc.submit_map(job) {
                            Submit::Accepted(ticket) => pending.push(Sent {
                                ticket,
                                submit_delay_ns: submitted.saturating_duration_since(due).as_nanos()
                                    as u64,
                                phase,
                                deadline_ns,
                                tasks,
                                churn_at_submit,
                            }),
                            Submit::Rejected { .. } => shed.push(phase),
                        }
                    }
                }
            }
            // Every repair and reply of this phase is in before the next
            // phase begins. A reply is timed from its due time to the
            // moment the worker sent it (`MapReply::total_ns` runs from
            // admission).
            let (ack_tx, ack_rx) = mpsc::channel();
            churn_tx
                .send(Msg::Barrier(ack_tx))
                .expect("repairer is running");
            ack_rx.recv().expect("repairer acknowledges barriers");
            let churn_at_receipt = churn_applied.load(Ordering::SeqCst);
            done.extend(pending.drain(..).map(|p| {
                let reply = p.ticket.wait();
                let total_ns = reply.as_ref().map_or(f64::INFINITY, |r| r.total_ns as f64);
                Done {
                    reply,
                    latency_ms: (p.submit_delay_ns as f64 + total_ns) / 1e6,
                    phase: p.phase,
                    deadline_ns: p.deadline_ns,
                    tasks: p.tasks,
                    churn_at_submit: p.churn_at_submit,
                    churn_at_receipt,
                }
            }));
        }
        drop(churn_tx);
        repairer.join().expect("repairer thread panicked")
    });

    // Correctness: every repair succeeded, nothing was shed, and every
    // reply is a valid mapping for a machine state it can have been
    // served on. A failed or shed request counts as missing its
    // deadline and as an infinite latency.
    for r in &churn.reports {
        rep.check(r.error.is_none(), || {
            format!("churn repair failed: {:?}", r.error)
        });
    }
    let mut lat: HashMap<Phase, Vec<f64>> = HashMap::new();
    for &phase in &shed {
        rep.check(false, || format!("request shed at {phase:?}"));
        lat.entry(phase).or_default().push(f64::INFINITY);
    }
    let (mut met, mut full_high) = (0usize, 0usize);
    let (mut queue_ms, mut busy_ms) = (Vec::new(), Vec::new());
    for d in &done {
        let last = (d.churn_at_receipt + 1).min(churn.history.len() - 1);
        let served = d.reply.as_ref().ok().filter(|r| {
            (d.churn_at_submit..=last)
                .any(|k| validate_mapping(&d.tasks, &churn.history[k], &r.mapping).is_ok())
        });
        rep.check(served.is_some(), || match &d.reply {
            Ok(_) => format!("invalid mapping at {:?}", d.phase),
            Err(e) => format!("request failed at {:?}: {e}", d.phase),
        });
        let latency = if served.is_some() {
            d.latency_ms
        } else {
            f64::INFINITY
        };
        lat.entry(d.phase).or_default().push(latency);
        let Some(reply) = served else { continue };
        if d.phase != Phase::Warm {
            met += usize::from(latency <= d.deadline_ns as f64 / 1e6);
        }
        if d.phase == Phase::High {
            full_high += usize::from(reply.rung == LadderRung::Full);
            queue_ms.push(reply.queue_ns as f64 / 1e6);
            busy_ms.push(reply.service_ns as f64 / 1e6);
        }
    }
    let n_sent = |p: Phase| sent.get(&p).copied().unwrap_or(0).max(1) as f64;
    let phase_lat = |p: Phase| lat.get(&p).map_or(&[][..], Vec::as_slice);

    // The resident job survived the churn: settle any pending repair and
    // check the live mapping against the final state.
    svc.retry_now();
    let final_alloc = svc.with_state(|_, a| a.clone());
    let live = svc.live_mapping().unwrap_or_default();
    let live_ok = validate_mapping(&resident, &final_alloc, &live);
    rep.check(live_ok.is_ok(), || {
        format!("live resident mapping: {live_ok:?}")
    });
    let live_wh = svc.live_wh().unwrap_or(f64::NAN);
    let snap = svc.shutdown();
    rep.check(snap.panics == 0 && snap.journal_errors == 0, || {
        format!(
            "{} panics, {} journal errors",
            snap.panics, snap.journal_errors
        )
    });
    remove_dir(&dir);

    rep.set("service.reply_p50_ms", median(phase_lat(Phase::Low)));
    rep.set(
        "service.low_tail_ms",
        quantile(phase_lat(Phase::Low), TAIL_Q),
    );
    rep.set(
        "service.high_tail_ms",
        quantile(phase_lat(Phase::High), TAIL_Q),
    );
    rep.set(
        "service.deadline_met_frac",
        met as f64 / (n_sent(Phase::Low) + n_sent(Phase::High)),
    );
    rep.set(
        "service.full_rung_frac",
        full_high as f64 / n_sent(Phase::High),
    );
    rep.set("service.queue_ms", mean(&queue_ms));
    rep.set("service.busy_ms", mean(&busy_ms));
    rep.set("service.max_queue_depth", snap.max_queue_depth as f64);
    for (name, rung) in [
        ("service.rung.full", LadderRung::Full),
        ("service.rung.refined", LadderRung::Refined),
        ("service.rung.greedy", LadderRung::GreedyOnly),
        ("service.rung.projection", LadderRung::Projection),
    ] {
        rep.set(name, snap.served_by_rung[rung.index()] as f64);
    }
    rep.set("service.shed", snap.rejected as f64);
    rep.set("service.deadline_misses", snap.deadline_misses as f64);
    rep.set("remap.repair_tail_us", quantile(&churn.repair_us, TAIL_Q));
    let displaced: Vec<f64> = churn.reports.iter().map(|r| r.displaced as f64).collect();
    rep.set("remap.displaced_mean", mean(&displaced));
    rep.set(
        "remap.unplaced",
        churn.reports.iter().map(|r| r.unplaced as f64).sum(),
    );
    rep.set("supervisor.drift_checks", snap.drift_checks as f64);
    rep.set("supervisor.polishes", snap.polishes as f64);
    rep.set("supervisor.adoptions", snap.baseline_adoptions as f64);
    rep.set(
        "supervisor.live_wh_vs_fresh",
        live_wh / fresh_wh(&resident, &machine, &final_alloc),
    );
    rep.set("journal.appends", snap.journal_appends as f64);
    rep.set("journal.bytes", snap.journal_bytes as f64);
    rep.set("journal.snapshots", snap.snapshots_written as f64);
    let append_us = journal_append_us(rep, &churn.events);
    rep.set("journal.append_us", append_us);
    rep.set("gen.late_ms", quantile(&late_ms, TAIL_Q));
    eprintln!(
        "service probe: {} requests, {} churn events; low p50 {:.3} ms, p99 {:.3} ms; \
         high p99 {:.3} ms, {:.1} % on the full rung; repair p99 {:.0} us",
        sent.values().sum::<usize>(),
        churn.events.len(),
        median(phase_lat(Phase::Low)),
        quantile(phase_lat(Phase::Low), TAIL_Q),
        quantile(phase_lat(Phase::High), TAIL_Q),
        100.0 * full_high as f64 / n_sent(Phase::High),
        quantile(&churn.repair_us, TAIL_Q),
    );
}

/// WH of a from-scratch map of the resident job, with the service's
/// top-rung mapper, on the final machine state.
fn fresh_wh(tasks: &TaskGraph, machine: &Machine, alloc: &Allocation) -> f64 {
    let cfg = ServiceConfig::default();
    let mut scratch = MapperScratch::new();
    let mapping = map_tasks_with(
        tasks,
        machine,
        alloc,
        cfg.mapper,
        &cfg.pipeline,
        &mut scratch,
    );
    weighted_hops(tasks, machine, &mapping.fine_mapping)
}

/// Median microseconds of one `Durability::append_churn` frame, over the
/// probe's churn events appended to a journal of its own.
fn journal_append_us(rep: &mut Report, events: &[ChurnEvent]) -> f64 {
    let dir = scratch_dir("journal");
    let mut us = Vec::with_capacity(events.len());
    match Durability::create(&DurabilityConfig::new(&dir)) {
        Ok(mut journal) => {
            for ev in events {
                let t = Instant::now();
                let ok = journal.append_churn(std::slice::from_ref(ev)).is_ok();
                us.push(t.elapsed().as_nanos() as f64 / 1e3);
                rep.check(ok, || "journal append failed".into());
            }
        }
        Err(e) => rep.check(false, || format!("journal create failed: {e}")),
    }
    remove_dir(&dir);
    median(&us)
}
