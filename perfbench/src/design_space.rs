//! `design_space`: the customization side of the toolchain, with no
//! simulation — (1) an exhaustive analytic `Toolchain::evaluate` of
//! every SHG configuration of scenario (a)'s grid, fanned out over the
//! pool, (2) `customize` for scenarios a–d, and (3) the full-fidelity
//! (`cell_scale 2`) analytic Fig. 6 cost table of scenarios a–d.

use rayon::prelude::*;

use shg_core::{customize, DesignGoals, Evaluation, Scenario, SparseHammingConfig, Toolchain};
use shg_floorplan::{ArchParams, ModelOptions};
use shg_topology::{Grid, Topology};

use crate::evaluate::{evaluation_text, traced_evaluate};
use crate::product::{fnv64, Op, Product, SeedUse};
use crate::{Ctx, JobOut, Size, Workload};

/// The workload.
pub struct DesignSpace;

/// Every configuration of the exhaustive phase (in a seed-shuffled
/// evaluation order, each with its canonical index), the scenarios to
/// customize, and the cost-table topologies.
pub struct Inputs {
    params: ArchParams,
    configs: Vec<(usize, SparseHammingConfig)>,
    scenarios: Vec<Scenario>,
    cost_topologies: Vec<(usize, Topology)>,
}

impl Workload for DesignSpace {
    type Inputs = Inputs;
    type Data = ();

    fn setup(&self, ctx: &Ctx) -> Result<Inputs, String> {
        let (side, scenarios) = match ctx.size {
            Size::Full => (8u16, Scenario::all_knc()),
            Size::Smoke => (6, vec![Scenario::knc_a()]),
        };
        let mut params = Scenario::knc_a().params;
        params.grid = Grid::new(side, side);
        // Skip distances lie in [2, side): one bit each for SR and SC.
        let bits = usize::from(side) - 2;
        let mut configs = Vec::with_capacity(1 << (2 * bits));
        for index in 0..1usize << (2 * bits) {
            let pick = |mask: usize| {
                (0..bits)
                    .filter(move |b| mask >> b & 1 == 1)
                    .map(|b| b as u16 + 2)
            };
            let config = SparseHammingConfig::new(
                side,
                side,
                pick(index & ((1 << bits) - 1)),
                pick(index >> bits),
            )
            .map_err(|e| format!("config {index}: {e}"))?;
            configs.push((index, config));
        }
        shuffle(&mut configs, ctx.seed);
        let cost_topologies = scenarios
            .iter()
            .enumerate()
            .flat_map(|(s, scenario)| {
                shg_bench::applicable_topologies(scenario)
                    .into_iter()
                    .map(move |t| (s, t))
            })
            .collect();
        Ok(Inputs {
            params,
            configs,
            scenarios,
            cost_topologies,
        })
    }

    fn job(&self, ctx: &Ctx, inputs: &Inputs) -> Result<JobOut<()>, String> {
        let tracer = ctx.tracer;
        let mut product = Product::default();

        // (1) Exhaustive evaluation, one operation per configuration.
        let fast = Toolchain::fast();
        let parent = tracer.enter("phase.exhaustive");
        let parent_id = parent.id();
        let evaluated: Vec<Result<(usize, Evaluation, f64), String>> = inputs
            .configs
            .par_iter()
            .map(|(index, config)| {
                let _op = tracer.enter_under("op", parent_id);
                let start = std::time::Instant::now();
                let topology = tracer.span("topology.build", || config.build());
                let evaluation = if tracer.enabled() {
                    traced_evaluate(ctx, &fast, &inputs.params, &topology)?
                } else {
                    fast.evaluate(&inputs.params, &topology)
                        .map_err(|e| format!("{config}: {e}"))?
                };
                Ok((*index, evaluation, start.elapsed().as_secs_f64()))
            })
            .collect();
        drop(parent);
        let mut evaluated = evaluated.into_iter().collect::<Result<Vec<_>, String>>()?;
        evaluated.sort_by_key(|(index, _, _)| *index);
        let op_secs = evaluated.iter().map(|(_, _, secs)| *secs).collect();
        for (index, evaluation, _) in &evaluated {
            let hash = fnv64(evaluation_text(evaluation).as_bytes());
            product.push(
                format!("eval/{index:04}"),
                format!("{:08x}", (hash ^ hash >> 32) as u32),
                SeedUse::Independent,
            );
        }
        let frontier: Vec<String> = pareto_frontier(&evaluated)
            .iter()
            .map(usize::to_string)
            .collect();
        product.push("frontier", frontier.join(" "), SeedUse::Independent);

        // (2) Customization per scenario.
        let customizer = Toolchain {
            model_options: ModelOptions {
                cell_scale: 6.0,
                ..ModelOptions::default()
            },
            ..Toolchain::fast()
        };
        for scenario in &inputs.scenarios {
            let trace = tracer
                .span("core.customize", || {
                    customize(
                        &customizer,
                        &scenario.params,
                        DesignGoals {
                            area_budget: scenario.area_budget,
                        },
                    )
                })
                .map_err(|e| format!("customize {}: {e}", scenario.name))?;
            let evals = 1 + trace
                .steps
                .iter()
                .map(|step| step.config.grow_moves().len())
                .sum::<usize>();
            tracer.count("core.customize_evals", evals as f64);
            let best = trace.best();
            product.push(
                format!("customize/{}", scenario.name),
                format!(
                    "{} steps={} {}",
                    best.config,
                    trace.steps.len(),
                    evaluation_text(&best.evaluation)
                ),
                SeedUse::Independent,
            );
        }

        // (3) The full-fidelity analytic cost table, row by row: a few
        // rows (SlimNoC, flattened butterfly at 128 tiles) dominate its
        // time and memory, and running them side by side would make the
        // peak memory depend on scheduling.
        let full = Toolchain {
            model_options: ModelOptions {
                cell_scale: 2.0,
                ..ModelOptions::default()
            },
            ..Toolchain::fast()
        };
        for (s, topology) in &inputs.cost_topologies {
            let params = &inputs.scenarios[*s].params;
            let row = if tracer.enabled() {
                traced_evaluate(ctx, &full, params, topology)?
            } else {
                full.evaluate(params, topology)
                    .map_err(|e| format!("{topology}: {e}"))?
            };
            product.push(
                format!("cost/{}/{}", inputs.scenarios[*s].name, row.name),
                evaluation_text(&row),
                SeedUse::Independent,
            );
        }
        Ok(JobOut {
            product,
            op_secs,
            data: (),
        })
    }

    fn tolerant(&self, _op: &Op, _recorded: &str) -> bool {
        false // every operation is analytic and checked exactly
    }
}

/// Canonical indices of the configurations no other configuration
/// dominates in (area overhead ↓, saturation throughput ↑, zero-load
/// latency ↓).
fn pareto_frontier(evaluated: &[(usize, Evaluation, f64)]) -> Vec<usize> {
    let dominates = |a: &Evaluation, b: &Evaluation| {
        a.area_overhead <= b.area_overhead
            && a.saturation_throughput >= b.saturation_throughput
            && a.zero_load_latency <= b.zero_load_latency
            && (a.area_overhead < b.area_overhead
                || a.saturation_throughput > b.saturation_throughput
                || a.zero_load_latency < b.zero_load_latency)
    };
    evaluated
        .iter()
        .filter(|(_, e, _)| !evaluated.iter().any(|(_, other, _)| dominates(other, e)))
        .map(|(index, _, _)| *index)
        .collect()
}

/// Fisher–Yates shuffle driven by SplitMix64 from `seed`: the seed
/// decides the evaluation order, never the product.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}
