//! `Toolchain::evaluate` as the workloads check and trace it: the
//! canonical text of an evaluation, and the evaluation taken apart into
//! its layer calls, each in its own span.

use shg_core::{analytic_saturation, Evaluation, Toolchain};
use shg_floorplan::predict;
use shg_sim::zero_load_latency;
use shg_topology::routing::{self, Routes};
use shg_topology::Topology;

use crate::product::floats;
use crate::Ctx;

/// The canonical text of an evaluation's checked fields.
pub fn evaluation_text(e: &Evaluation) -> String {
    format!(
        "radix={} collisions={} max_link={} {}",
        e.router_radix,
        e.collisions,
        e.max_link_latency,
        floats(&[
            e.area_overhead,
            e.total_area.value(),
            e.noc_power.value(),
            e.total_power.value(),
            e.zero_load_latency,
            e.saturation_throughput,
            e.mean_link_latency,
        ])
    )
}

/// `Toolchain::evaluate` (analytic mode) with each layer call in its
/// own span; the evaluation is assembled exactly as
/// `Toolchain::evaluate_with` does.
pub fn traced_evaluate(
    ctx: &Ctx,
    toolchain: &Toolchain,
    params: &shg_floorplan::ArchParams,
    topology: &Topology,
) -> Result<Evaluation, String> {
    let tracer = ctx.tracer;
    let routes = traced_routes(ctx, topology)?;
    let prediction = tracer.span("floorplan.predict", || {
        predict(params, topology, &toolchain.model_options)
    });
    tracer.count("floorplan.predicts", 1.0);
    let latencies = &prediction.estimates.link_latencies;
    let zll = tracer.span("sim.zll", || {
        zero_load_latency(topology, &routes, latencies, &toolchain.sim)
    });
    let sat = tracer.span("core.analytic", || analytic_saturation(topology, &routes));
    let evaluation = Evaluation {
        name: topology.kind().to_string(),
        kind: topology.kind(),
        router_radix: topology.max_degree(),
        area_overhead: prediction.estimates.area_overhead,
        total_area: prediction.estimates.total_area,
        noc_power: prediction.estimates.noc_power,
        total_power: prediction.estimates.total_power,
        zero_load_latency: zll,
        saturation_throughput: sat,
        mean_link_latency: prediction.estimates.mean_link_latency(),
        max_link_latency: prediction.estimates.max_link_latency().value(),
        collisions: prediction.estimates.collisions,
    };
    // The dense table is freed inside the job, as `evaluate` frees it.
    tracer.span("routing.build", || drop(routes));
    Ok(evaluation)
}

/// `routing::default_routes` in a span, counted.
pub fn traced_routes(ctx: &Ctx, topology: &Topology) -> Result<Routes, String> {
    let routes = ctx
        .tracer
        .span("routing.build", || routing::default_routes(topology))
        .map_err(|e| format!("{}: {e}", topology.kind()))?;
    ctx.tracer.count("routing.builds", 1.0);
    ctx.tracer
        .count_max("routing.table_bytes_max", routes.table_bytes() as f64);
    Ok(routes)
}
