//! The closed-loop workloads, `direct` and `hybrid`, and the
//! multilevel probe of `hybrid`'s traced run.
//!
//! One thread maps a fixed set of cells — backend × job × mapper — round
//! after round with one warm `MapperScratch`, each map starting when the
//! previous one returned. A warm-up round records each cell's reference
//! mapping; every timed map is validated against its allocation and
//! must equal the reference bit for bit (the engines are deterministic).
//!
//! A run maps several jobs drawn from its seed, not one: the engines'
//! work swings severalfold between jobs that differ only in message
//! volumes (congestion refinement's move count above all), so one job
//! per run would make every timing a draw of the seed.

use std::time::Instant;

use umpa_core::{
    evaluate, map_multilevel_with, map_tasks_with, multilevel_map_into, validate_mapping,
    MapperKind, MapperScratch, PipelineConfig,
};
use umpa_graph::TaskGraph;
use umpa_netsim::{analytic_comm_time, DesConfig};
use umpa_topology::{Allocation, Machine};

use crate::fixtures::{self, mix, Size, BACKENDS};
use crate::report::Report;
use crate::stats::{geomean, mean, median};
use crate::trace::{traced_map, LayerTimes};

/// Which closed loop to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Closed {
    /// The paper's two-phase pipeline on machine-sized graphs.
    Direct,
    /// One rank per node: phase 1 is trivial, phase 2 is the work.
    Hybrid,
    /// Graphs far larger than the allocation, through the multilevel
    /// engine. Not a workload: `hybrid`'s traced run probes it.
    Multilevel,
}

/// The deadline a map must beat to count in `deadline_met_frac`: the
/// service's default request deadline (`ServiceConfig::default`).
const DEADLINE_MS: f64 = 50.0;

impl Closed {
    fn kinds(self) -> &'static [MapperKind] {
        match self {
            Closed::Multilevel => &[MapperKind::GreedyWh, MapperKind::GreedyMc],
            _ => &[
                MapperKind::Greedy,
                MapperKind::GreedyWh,
                MapperKind::GreedyMc,
                MapperKind::GreedyMmc,
            ],
        }
    }

    /// Jobs per backend in one run: enough that the run-to-run spread of
    /// the timings comes down to the box's own noise (≈10 % on a 2-vCPU
    /// VM). `hybrid`'s congestion refinement varies most between jobs. A
    /// multilevel UMC map costs 0.1–0.3 s and the probe reports only
    /// per-layer numbers, so it gets fewest.
    fn jobs(self, size: Size) -> usize {
        match (size, self) {
            (Size::Tiny, _) => 2,
            (Size::Full, Closed::Direct) => 24,
            (Size::Full, Closed::Hybrid) => 40,
            (Size::Full, Closed::Multilevel) => 4,
        }
    }

    fn nodes(self, backend: &str, size: Size) -> usize {
        match self {
            Closed::Hybrid => {
                let (x, y, z) = fixtures::hybrid_dims(backend, size);
                x * y * z
            }
            _ => fixtures::job_nodes(size),
        }
    }

    /// Job `j` of `n` in the run with `seed`, for `backend`. The
    /// `multilevel` jobs are stratified: job `j` draws its diagonal
    /// volume from the `j`-th of `n` equal slices of the range, so every
    /// run spans the range (a multilevel UMC map's cost grows with it).
    fn job(
        self,
        (backend, machine, alloc): (&str, &Machine, &Allocation),
        size: Size,
        seed: u64,
        (j, n): (usize, usize),
    ) -> TaskGraph {
        let seed = mix(seed, j as u64);
        match self {
            Closed::Direct => fixtures::spmv_graph(size, seed),
            Closed::Hybrid => fixtures::jitter(
                &fixtures::hybrid_graph(
                    fixtures::hybrid_dims(backend, size),
                    machine.procs_per_node(),
                ),
                seed,
            ),
            Closed::Multilevel => fixtures::multilevel_graph(
                alloc,
                size,
                (j as f64 + fixtures::unit(seed)) / n as f64,
            ),
        }
    }
}

#[derive(Clone, Copy)]
struct Cell {
    backend: usize,
    job: usize,
    kind: MapperKind,
}

struct Fixture {
    machines: Vec<Machine>,
    allocs: Vec<Allocation>,
    /// `jobs[backend][j]`.
    jobs: Vec<Vec<TaskGraph>>,
    multilevel: bool,
    cfg: PipelineConfig,
}

impl Fixture {
    fn parts(&self, cell: &Cell) -> (&TaskGraph, &Machine, &Allocation) {
        let b = cell.backend;
        (&self.jobs[b][cell.job], &self.machines[b], &self.allocs[b])
    }

    fn map(&self, cell: &Cell, scratch: &mut MapperScratch) -> Vec<u32> {
        let (tg, m, a) = self.parts(cell);
        let run = if self.multilevel {
            map_multilevel_with
        } else {
            map_tasks_with
        };
        run(tg, m, a, cell.kind, &self.cfg, scratch).fine_mapping
    }

    /// Validates `mapping` for `cell` and compares it with `reference`.
    fn check(&self, rep: &mut Report, cell: &Cell, mapping: &[u32], reference: Option<&[u32]>) {
        let (tg, _, a) = self.parts(cell);
        let valid = validate_mapping(tg, a, mapping);
        let same = reference.is_none_or(|r| r == mapping);
        rep.check(valid.is_ok() && same, || {
            format!(
                "{} on {} job {}: {}",
                cell.kind.name(),
                BACKENDS[cell.backend],
                cell.job,
                match valid {
                    Err(e) => e.to_string(),
                    Ok(()) => "mapping differs from the cell's reference".to_string(),
                }
            )
        });
    }

    /// Geometric means over cells of WH, MC and analytic communication
    /// time, each against the DEF mapping of the same job and allocation.
    fn quality(&self, rep: &mut Report, cells: &[Cell], mappings: &[Vec<u32>]) -> [f64; 3] {
        let des = DesConfig::default();
        let mut ratios: [Vec<f64>; 3] = Default::default();
        let mut scratch = MapperScratch::new();
        for (cell, mapping) in cells.iter().zip(mappings) {
            let (tg, m, a) = self.parts(cell);
            let def =
                map_tasks_with(tg, m, a, MapperKind::Def, &self.cfg, &mut scratch).fine_mapping;
            let def_cell = Cell {
                kind: MapperKind::Def,
                ..*cell
            };
            self.check(rep, &def_cell, &def, None);
            let (q, d) = (evaluate(tg, m, mapping), evaluate(tg, m, &def));
            ratios[0].push(q.wh / d.wh);
            ratios[1].push(q.mc / d.mc);
            ratios[2].push(
                analytic_comm_time(m, tg, mapping, &des) / analytic_comm_time(m, tg, &def, &des),
            );
        }
        ratios.map(|r| geomean(&r))
    }
}

/// A workload's fixture and cells, with each cell's reference mapping
/// and the warm scratch that made it.
struct Prepared {
    fx: Fixture,
    cells: Vec<Cell>,
    reference: Vec<Vec<u32>>,
    scratch: MapperScratch,
}

/// Builds `wl`'s machines (timed: set-up seconds and oracle-build
/// milliseconds, both medians, are returned beside the result), draws
/// its jobs from `seed`, and runs the warm-up round.
fn prepare(wl: Closed, size: Size, seed: u64, rep: &mut Report) -> (Prepared, f64, f64) {
    let ((machines, allocs), setup_s, oracle_ms) = fixtures::timed_setup(|| {
        let mut oracle_ns = 0.0;
        let (mut machines, mut allocs) = (Vec::new(), Vec::new());
        for (b, backend) in BACKENDS.iter().enumerate() {
            let (m, ns) = fixtures::warm_machine(backend, size);
            oracle_ns += ns;
            allocs.push(fixtures::sparse_alloc(
                &m,
                wl.nodes(backend, size),
                mix(fixtures::ALLOC_SEED, b as u64),
            ));
            machines.push(m);
        }
        ((machines, allocs), oracle_ns)
    });
    let n_jobs = wl.jobs(size);
    let per_backend = |b: usize| -> Vec<TaskGraph> {
        (0..n_jobs)
            .map(|j| {
                let on = (BACKENDS[b], &machines[b], &allocs[b]);
                wl.job(on, size, seed, (j, n_jobs))
            })
            .collect()
    };
    let jobs: Vec<Vec<TaskGraph>> = match wl {
        // An SpMV job does not depend on the machine: partition once.
        Closed::Direct => vec![per_backend(0); BACKENDS.len()],
        _ => (0..BACKENDS.len()).map(per_backend).collect(),
    };
    let fx = Fixture {
        machines,
        allocs,
        jobs,
        multilevel: wl == Closed::Multilevel,
        cfg: PipelineConfig::default(),
    };
    let cells: Vec<Cell> = (0..BACKENDS.len())
        .flat_map(|backend| {
            (0..n_jobs).flat_map(move |job| {
                wl.kinds()
                    .iter()
                    .map(move |&kind| Cell { backend, job, kind })
            })
        })
        .collect();

    // Warm-up round: fills the scratch and the route memo rows, and
    // fixes each cell's reference mapping.
    let mut scratch = MapperScratch::new();
    let reference: Vec<Vec<u32>> = cells
        .iter()
        .map(|cell| {
            let m = fx.map(cell, &mut scratch);
            fx.check(rep, cell, &m, None);
            m
        })
        .collect();
    let prepared = Prepared {
        fx,
        cells,
        reference,
        scratch,
    };
    (prepared, setup_s, oracle_ms)
}

/// Runs one closed-loop workload for `seconds` and reports its
/// end-to-end metrics, or with `trace` its per-layer metrics.
pub fn run(wl: Closed, size: Size, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();
    let (prepared, setup_s, oracle_ms) = prepare(wl, size, seed, &mut rep);
    rep.set("setup_s", setup_s);
    rep.set("topology.oracle_build_ms", oracle_ms);
    let Prepared {
        fx,
        cells,
        reference,
        mut scratch,
    } = prepared;

    if trace {
        // A traced run gives half its time to a probe of the layers its
        // own maps never reach: `direct`'s to the service, whose
        // requests go through the same direct pipeline, and `hybrid`'s
        // to the multilevel engine.
        let probe_seconds = seconds / 2.0;
        traced_loop(
            &fx,
            &cells,
            &reference,
            seconds - probe_seconds,
            &mut scratch,
            &mut rep,
        );
        match wl {
            Closed::Direct => crate::serve::probe(size, seed, probe_seconds, &mut rep),
            Closed::Hybrid => multilevel_probe(size, seed, probe_seconds, &mut rep),
            Closed::Multilevel => unreachable!("multilevel is a probe, not a workload"),
        }
        return rep;
    }

    let mut samples: Vec<Vec<f64>> = cells.iter().map(|_| Vec::new()).collect();
    let elapsed = rounds(cells.len(), seconds, |i| {
        let t = Instant::now();
        let m = std::hint::black_box(fx.map(&cells[i], &mut scratch));
        samples[i].push(t.elapsed().as_nanos() as f64 / 1e6);
        fx.check(&mut rep, &cells[i], &m, Some(&reference[i]));
    });

    let p50: Vec<f64> = samples.iter().map(|s| median(s)).collect();
    let maps: usize = samples.iter().map(Vec::len).sum();
    let met = samples
        .iter()
        .flatten()
        .filter(|&&ms| ms <= DEADLINE_MS)
        .count();
    rep.set("p50_ms", geomean(&p50));
    rep.set("throughput_per_s", maps as f64 / elapsed);
    rep.set("deadline_met_frac", met as f64 / maps as f64);
    let [wh, mc, comm] = fx.quality(&mut rep, &cells, &reference);
    rep.set("wh_vs_def", wh);
    rep.set("mc_vs_def", mc);
    rep.set("comm_time_vs_def", comm);

    eprintln!(
        "{wl:?}: {maps} maps of {} cells in {elapsed:.1} s ({} full rounds)",
        cells.len(),
        samples.iter().map(Vec::len).min().unwrap_or(0),
    );
    for (b, backend) in BACKENDS.iter().enumerate() {
        for &kind in wl.kinds() {
            let kind_p50: Vec<f64> = cells
                .iter()
                .zip(&p50)
                .filter(|(c, _)| c.backend == b && c.kind == kind)
                .map(|(_, &p)| p)
                .collect();
            eprintln!(
                "  {backend:9} {:4}  p50 {:8.3} ms (geomean over {} jobs)",
                kind.name(),
                geomean(&kind_p50),
                kind_p50.len()
            );
        }
    }
    rep
}

/// The multilevel probe: 2,048-task stencils on 16 nodes per backend
/// through the multilevel engine, traced for `seconds` after their own
/// warm-up round. It adds the `multilevel.*` layer metrics and its
/// checks to `rep`; its set-up is not the workload's and is not reported.
fn multilevel_probe(size: Size, seed: u64, seconds: f64, rep: &mut Report) {
    let (mut p, _, _) = prepare(Closed::Multilevel, size, seed, rep);
    traced_loop(&p.fx, &p.cells, &p.reference, seconds, &mut p.scratch, rep);
}

/// Calls `visit` on cells `0..n` round after round until `seconds` have
/// passed, stopping mid-round so a run overshoots by one map at most,
/// but never before one full round. Returns the seconds elapsed.
fn rounds(n: usize, seconds: f64, mut visit: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for round in 0.. {
        for i in 0..n {
            if round > 0 && start.elapsed().as_secs_f64() >= seconds {
                return start.elapsed().as_secs_f64();
            }
            visit(i);
        }
    }
    unreachable!("the round loop only ends by returning")
}

/// The traced loop: each round maps every cell untraced and then traced,
/// and checks that the two agree bit for bit.
fn traced_loop(
    fx: &Fixture,
    cells: &[Cell],
    reference: &[Vec<u32>],
    seconds: f64,
    scratch: &mut MapperScratch,
    rep: &mut Report,
) {
    let mut lt = LayerTimes::default();
    let mut coarse = Vec::new();
    let mut ml: [Vec<f64>; 2] = Default::default();
    let (mut levels, mut coarsest) = (Vec::new(), Vec::new());
    let mut traced_mappings = vec![Vec::new(); cells.len()];
    rounds(cells.len(), seconds, |i| {
        let cell = &cells[i];
        let t = Instant::now();
        let untraced = std::hint::black_box(fx.map(cell, scratch));
        let untraced_ns = t.elapsed().as_nanos() as f64;
        fx.check(rep, cell, &untraced, Some(&reference[i]));
        let (tg, m, a) = fx.parts(cell);
        let traced = if fx.multilevel {
            let mut out = Vec::new();
            let t = Instant::now();
            let stats = multilevel_map_into(tg, m, a, cell.kind, &fx.cfg, scratch, &mut out);
            ml[usize::from(cell.kind == MapperKind::GreedyMc)]
                .push(t.elapsed().as_nanos() as f64 / 1e6);
            levels.push(stats.levels as f64);
            coarsest.push(stats.coarsest_tasks as f64);
            out
        } else {
            lt.add_untraced(untraced_ns);
            traced_map(tg, m, a, cell.kind, &fx.cfg, scratch, &mut coarse, &mut lt)
        };
        fx.check(rep, cell, &traced, Some(&reference[i]));
        traced_mappings[i] = traced;
    });
    lt.emit(rep);
    if fx.multilevel {
        rep.set("multilevel.uwh_ms", median(&ml[0]));
        rep.set("multilevel.umc_ms", median(&ml[1]));
        rep.set("multilevel.levels", mean(&levels));
        rep.set("multilevel.coarsest_tasks", mean(&coarsest));
    }
    // The quality the traced mappings earn must be the end-to-end run's,
    // to the bit.
    let traced_q = fx.quality(rep, cells, &traced_mappings);
    let untraced_q = fx.quality(rep, cells, reference);
    let same = traced_q
        .iter()
        .zip(&untraced_q)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    rep.check(same, || {
        format!("traced quality {traced_q:?} differs from {untraced_q:?}")
    });
}
