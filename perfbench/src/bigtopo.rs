//! `bigtopo`: a 2,560-tile two-die part from the topology database —
//! (1) `Toolchain::fast().evaluate`, which builds a dense all-pairs
//! routing table, and (2) a low-load sweep through the sweep-service
//! path (`annotated_experiment` with the hierarchical table, then
//! `Experiment::run_parallel`).

use rayon::prelude::*;

use shg_bench::sweep::{annotated_experiment, TopologyCache};
use shg_core::{Scenario, Toolchain};
use shg_floorplan::ArchParams;
use shg_sim::{Network, SimConfig, SweepPoint, SweepResult, SweepSpec, TrafficPattern};
use shg_topology::db::TopologyDb;
use shg_topology::routing::RouteForm;
use shg_topology::Topology;

use crate::evaluate::{evaluation_text, traced_evaluate};
use crate::product::{close, floats, parse_floats, Op, Product, SeedUse};
use crate::{Ctx, JobOut, Size, Workload};

/// The README's 10,240-tile two-die database with each die halved in
/// rows and columns.
const FULL_DB: &str = "die/compute/32x40/shg:sr=4:sc=2,5;die/hbm/32x40/mesh;\
                       region/hbm/r0..32/c0..40/memory/sc=2;boundary/every=4/latency=5";

/// The same part at 160 tiles.
const SMOKE_DB: &str = "die/compute/8x10/shg:sr=4:sc=2,5;die/hbm/8x10/mesh;\
                        region/hbm/r0..8/c0..10/memory/sc=2;boundary/every=4/latency=5";

/// The workload.
pub struct BigTopo;

/// The instantiated part, named as the sweep service names database
/// cases, and the scenario (a) parameters on its grid.
pub struct Inputs {
    topologies: Vec<(String, Topology)>,
    params: ArchParams,
    spec: SweepSpec,
}

/// The low-load sweep.
pub struct Data {
    sweep: SweepResult,
}

impl Workload for BigTopo {
    type Inputs = Inputs;
    type Data = Data;

    fn setup(&self, ctx: &Ctx) -> Result<Inputs, String> {
        let (db, patterns, rates): (&str, &[TrafficPattern], &[f64]) = match ctx.size {
            Size::Full => (
                FULL_DB,
                &[
                    TrafficPattern::UniformRandom,
                    TrafficPattern::Transpose,
                    TrafficPattern::Tornado,
                    TrafficPattern::Neighbor,
                ],
                &[0.001, 0.002, 0.003, 0.004],
            ),
            Size::Smoke => (
                SMOKE_DB,
                &[TrafficPattern::UniformRandom, TrafficPattern::Tornado],
                &[0.01, 0.02],
            ),
        };
        let topology = ctx.tracer.span("topology.db_instantiate", || {
            TopologyDb::parse(db)
                .map_err(|e| e.to_string())
                .and_then(|db| db.instantiate().map_err(|e| e.to_string()))
        })?;
        let mut params = Scenario::knc_a().params;
        params.grid = topology.grid();
        let spec = SweepSpec::new(SimConfig {
            seed: ctx.seed,
            ..SimConfig::fast_test()
        })
        .rates(rates.iter().copied())
        .patterns(patterns.iter().copied());
        Ok(Inputs {
            topologies: vec![("db".to_owned(), topology)],
            params,
            spec,
        })
    }

    fn job(&self, ctx: &Ctx, inputs: &Inputs) -> Result<JobOut<Data>, String> {
        let tracer = ctx.tracer;
        let topology = &inputs.topologies[0].1;
        let mut product = Product::default();
        let mut op_secs = Vec::new();
        let fast = Toolchain::fast();

        let start = std::time::Instant::now();
        let evaluation = if tracer.enabled() {
            traced_evaluate(ctx, &fast, &inputs.params, topology)?
        } else {
            fast.evaluate(&inputs.params, topology)
                .map_err(|e| e.to_string())?
        };
        op_secs.push(start.elapsed().as_secs_f64());
        product.push(
            "evaluate",
            evaluation_text(&evaluation),
            SeedUse::Independent,
        );

        let mut cache = TopologyCache::new();
        let experiment = tracer.span("sweep.prepare", || {
            annotated_experiment(
                &inputs.params,
                &fast.model_options,
                &mut cache,
                &inputs.topologies,
                inputs.spec.clone(),
                RouteForm::NextHop,
            )
        })?;
        let sweep = tracer.span("sim.run", || experiment.run_parallel());
        for point in &sweep.points {
            product.push(
                format!("cell/{}/{}", point.pattern, point.rate),
                point_text(point),
                SeedUse::Seeded,
            );
        }
        crate::count_sweep(ctx, &sweep, topology.num_tiles(), fast.search.slack);
        Ok(JobOut {
            product,
            op_secs,
            data: Data { sweep },
        })
    }

    /// Replays every cell on a fresh `Network`, construction and run in
    /// separate spans; each must reproduce its point.
    fn replay(&self, ctx: &Ctx, inputs: &Inputs, out: &JobOut<Data>) -> Vec<String> {
        let tracer = ctx.tracer;
        let (topology, prepared) = match prepare(inputs) {
            Ok(ok) => ok,
            Err(e) => return vec![e],
        };
        let cells = tracer.enter("replay.cells");
        let parent = cells.id();
        let failures: Vec<Option<String>> = out
            .data
            .sweep
            .points
            .par_iter()
            .map(|point| {
                let _cell = tracer.enter_under("sim.replay", parent);
                let config = SimConfig {
                    seed: point.seed,
                    ..inputs.spec.config.clone()
                };
                let mut network = tracer.span("sim.network_new", || {
                    Network::new(topology, &prepared.routes, &prepared.link_latencies, config)
                });
                let outcome =
                    tracer.span("sim.network_run", || network.run(point.rate, point.pattern));
                (outcome != point.outcome)
                    .then(|| format!("replay of {} at {} differs", point.pattern, point.rate))
            })
            .collect();
        failures.into_iter().flatten().collect()
    }

    /// Re-simulates the lowest-rate uniform cell on a fresh `Network`.
    fn verify(&self, _ctx: &Ctx, inputs: &Inputs, out: &JobOut<Data>) -> Vec<String> {
        let Some(point) = out.data.sweep.points.first() else {
            return vec!["empty sweep".to_owned()];
        };
        let (topology, prepared) = match prepare(inputs) {
            Ok(ok) => ok,
            Err(e) => return vec![e],
        };
        let config = SimConfig {
            seed: point.seed,
            ..inputs.spec.config.clone()
        };
        let outcome = Network::new(topology, &prepared.routes, &prepared.link_latencies, config)
            .run(point.rate, point.pattern);
        if outcome == point.outcome {
            Vec::new()
        } else {
            vec![format!(
                "{} at {} re-simulated differently",
                point.pattern, point.rate
            )]
        }
    }

    /// Same stability; latency within 50% (a few-hop pattern's mean
    /// latency of a handful of cycles moves by a cycle between seeds),
    /// accepted rate within 15%.
    fn tolerant(&self, op: &Op, recorded: &str) -> bool {
        let got = parse_floats(&op.text);
        let want = parse_floats(recorded);
        got.len() == want.len()
            && got[0] == want[0]
            && close(got[1], want[1], 0.50, 0.0)
            && close(got[2], want[2], 0.15, 0.0)
    }
}

/// The sweep case's routes and latencies, as the job's
/// `annotated_experiment` prepared them.
fn prepare(inputs: &Inputs) -> Result<(&Topology, shg_bench::sweep::PreparedCase), String> {
    let topology = &inputs.topologies[0].1;
    let prepared = TopologyCache::new().prepare(
        &inputs.params,
        &Toolchain::fast().model_options,
        topology,
        RouteForm::NextHop,
    )?;
    Ok((topology, prepared))
}

/// Stability flag, latency, accepted rate, then the remaining outcome
/// fields.
fn point_text(point: &SweepPoint) -> String {
    let o = &point.outcome;
    floats(&[
        f64::from(u8::from(o.stable)),
        o.avg_packet_latency,
        o.accepted_rate,
        o.offered_rate,
        o.p99_packet_latency,
        o.measured_packets as f64,
        o.cycles as f64,
    ])
}
