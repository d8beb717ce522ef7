//! `fig6_a`: the Fig. 6 product for scenario (a) — per topology the
//! analytic cost row (`Toolchain::evaluate`) and the seven-pattern
//! simulated sweep (`Toolchain::evaluate_patterns`) — and its
//! saturation table. The simulator does almost all the work.

use shg_core::{Scenario, Toolchain};
use shg_floorplan::predict;
use shg_sim::{Experiment, Network, SimConfig, SweepCase, SweepResult, SweepSpec};
use shg_topology::routing::{self, Routes};
use shg_topology::Topology;
use shg_units::Cycles;

use crate::evaluate::{evaluation_text, traced_evaluate, traced_routes};
use crate::product::{close, floats, parse_floats, Op, Product, SeedUse};
use crate::{Ctx, JobOut, Size, Workload};

/// The workload.
pub struct Fig6A;

/// Scenario (a), its topologies and the two toolchains `fig6 --fast`
/// uses: the analytic cost row and the seeded fast-test sweep.
pub struct Inputs {
    scenario: Scenario,
    topologies: Vec<Topology>,
    rate_points: usize,
    cost: Toolchain,
    sweep: Toolchain,
}

/// The sweep of every topology.
pub struct Data {
    sweeps: Vec<SweepResult>,
}

impl Workload for Fig6A {
    type Inputs = Inputs;
    type Data = Data;

    fn setup(&self, ctx: &Ctx) -> Result<Inputs, String> {
        let scenario = Scenario::knc_a();
        let mut topologies = shg_bench::applicable_topologies(&scenario);
        let rate_points = match ctx.size {
            Size::Full => 5,
            Size::Smoke => {
                topologies
                    .retain(|t| matches!(t.kind().to_string().as_str(), "2D Mesh" | "Hypercube"));
                2
            }
        };
        let cost = Toolchain::fast();
        let sweep = Toolchain {
            sim: SimConfig {
                seed: ctx.seed,
                ..SimConfig::fast_test()
            },
            ..Toolchain::fast()
        };
        Ok(Inputs {
            scenario,
            topologies,
            rate_points,
            cost,
            sweep,
        })
    }

    fn job(&self, ctx: &Ctx, inputs: &Inputs) -> Result<JobOut<Data>, String> {
        let mut product = Product::default();
        let mut op_secs = Vec::new();
        let mut data = Data { sweeps: Vec::new() };
        let params = &inputs.scenario.params;
        for topology in &inputs.topologies {
            let start = std::time::Instant::now();
            let name = topology.kind().to_string();
            let (evaluation, per_pattern, sweep) = if ctx.tracer.enabled() {
                let evaluation = traced_evaluate(ctx, &inputs.cost, params, topology)?;
                let experiment = traced_pattern_experiment(ctx, inputs, topology)?;
                let sweep = ctx.tracer.span("sim.run", || experiment.run_parallel());
                let per_pattern = inputs.sweep.pattern_performance(&sweep, &name);
                (evaluation, per_pattern, sweep)
            } else {
                let evaluation = inputs
                    .cost
                    .evaluate(params, topology)
                    .map_err(|e| format!("{name}: {e}"))?;
                let (per_pattern, sweep) = inputs
                    .sweep
                    .evaluate_patterns(params, topology, inputs.rate_points)
                    .map_err(|e| format!("{name}: {e}"))?;
                (evaluation, per_pattern, sweep)
            };
            op_secs.push(start.elapsed().as_secs_f64());
            product.push(
                format!("cost/{name}"),
                evaluation_text(&evaluation),
                SeedUse::Independent,
            );
            let row: Vec<f64> = per_pattern
                .iter()
                .flat_map(|p| [p.saturation_throughput * 100.0, p.low_load_latency])
                .collect();
            product.push(format!("sat/{name}"), floats(&row), SeedUse::Seeded);
            data.sweeps.push(sweep);
        }
        for sweep in &data.sweeps {
            crate::count_sweep(
                ctx,
                sweep,
                inputs.scenario.params.grid.num_tiles(),
                inputs.sweep.search.slack,
            );
        }
        Ok(JobOut {
            product,
            op_secs,
            data,
        })
    }

    /// Replays every cell of every sweep alone through
    /// `Experiment::run_cells(&[cell])`; each must reproduce its point.
    fn replay(&self, ctx: &Ctx, inputs: &Inputs, out: &JobOut<Data>) -> Vec<String> {
        use rayon::prelude::*;
        let experiments: Result<Vec<_>, _> = inputs
            .topologies
            .iter()
            .map(|topology| {
                inputs
                    .sweep
                    .pattern_experiment(&inputs.scenario.params, topology, inputs.rate_points)
                    .map_err(|e| format!("{}: {e}", topology.kind()))
            })
            .collect();
        let experiments = match experiments {
            Ok(experiments) => experiments,
            Err(e) => return vec![e],
        };
        let replay_root = ctx.tracer.enter("replay.cells");
        let parent = replay_root.id();
        let jobs: Vec<(usize, usize, shg_sim::sweep::CellId)> = experiments
            .iter()
            .enumerate()
            .flat_map(|(e, experiment)| {
                experiment
                    .plan()
                    .cells()
                    .enumerate()
                    .map(move |(i, cell)| (e, i, cell))
                    .collect::<Vec<_>>()
            })
            .collect();
        let failures: Vec<Option<String>> = jobs
            .into_par_iter()
            .map(|(e, i, cell)| {
                let _span = ctx.tracer.enter_under("sim.replay", parent);
                let point = experiments[e].run_cells(&[cell]);
                (point.first() != out.data.sweeps[e].points.get(i))
                    .then(|| format!("replay of cell {cell} differs from the sweep"))
            })
            .collect();
        failures.into_iter().flatten().collect()
    }

    /// Re-simulates the lowest-rate cell of every sweep on a fresh
    /// `Network` from the recorded per-point seed.
    fn verify(&self, _ctx: &Ctx, inputs: &Inputs, out: &JobOut<Data>) -> Vec<String> {
        let mut failures = Vec::new();
        for (topology, sweep) in inputs.topologies.iter().zip(&out.data.sweeps) {
            let Some(point) = sweep.points.iter().min_by(|a, b| a.rate.total_cmp(&b.rate)) else {
                failures.push(format!("{}: empty sweep", topology.kind()));
                continue;
            };
            let (routes, latencies) = match annotate(inputs, topology) {
                Ok(case) => case,
                Err(e) => {
                    failures.push(e);
                    continue;
                }
            };
            let config = SimConfig {
                seed: point.seed,
                ..inputs.sweep.sim.clone()
            };
            let outcome =
                Network::new(topology, &routes, &latencies, config).run(point.rate, point.pattern);
            if outcome != point.outcome {
                failures.push(format!(
                    "{}: {} at {} re-simulated differently",
                    topology.kind(),
                    point.pattern,
                    point.rate
                ));
            }
        }
        failures
    }

    /// Per pattern: saturation within one rate step (20 points of
    /// injection capacity), and latency at the lowest rate within 15%
    /// where both runs saturate at 40% or more. Below that the lowest
    /// rate is close to or past saturation, where latency measures
    /// queueing and drain that the seed moves by more than half, so it
    /// is not compared.
    fn tolerant(&self, op: &Op, recorded: &str) -> bool {
        let got = parse_floats(&op.text);
        let want = parse_floats(recorded);
        got.len() == want.len()
            && got.chunks(2).zip(want.chunks(2)).all(|(g, w)| {
                close(g[0], w[0], 0.0, 20.0 + 1e-9)
                    && (g[0].min(w[0]) < 40.0 || close(g[1], w[1], 0.15, 0.0))
            })
    }
}

/// `Toolchain::pattern_experiment` taken apart, with each layer call in
/// its own span.
fn traced_pattern_experiment<'t>(
    ctx: &Ctx,
    inputs: &Inputs,
    topology: &'t Topology,
) -> Result<Experiment<'t>, String> {
    let routes = traced_routes(ctx, topology)?;
    let prediction = ctx.tracer.span("floorplan.predict", || {
        predict(
            &inputs.scenario.params,
            topology,
            &inputs.sweep.model_options,
        )
    });
    ctx.tracer.count("floorplan.predicts", 1.0);
    let spec = SweepSpec::new(inputs.sweep.sim.clone())
        .linear_rates(inputs.rate_points.max(1), 1.0)
        .all_patterns()
        .default_hotspot_low_rates();
    Ok(Experiment::new(spec).with_case(SweepCase::annotated(
        topology.kind().to_string(),
        topology,
        routes,
        prediction.estimates.link_latencies,
    )))
}

/// The routes and link latencies of a topology's sweep case, untraced
/// (for the checks outside the job).
fn annotate(inputs: &Inputs, topology: &Topology) -> Result<(Routes, Vec<Cycles>), String> {
    let routes =
        routing::default_routes(topology).map_err(|e| format!("{}: {e}", topology.kind()))?;
    let prediction = predict(
        &inputs.scenario.params,
        topology,
        &inputs.sweep.model_options,
    );
    Ok((routes, prediction.estimates.link_latencies))
}
