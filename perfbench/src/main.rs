//! Whole-workload benchmark of the SHG toolchain.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6_a|design_space|bigtopo|fleet|all --seed N \
//!     --seconds S --trace 0|1 [--size full|smoke] [--record]
//! ```
//!
//! Each workload is one closed-loop client: it issues one job at a
//! time through the workspace's public functions and waits for it. The
//! untraced run (`--trace 0`) sets up several times, repeats the job
//! while the next one still fits in `--seconds`, checks every product
//! against the values recorded in `expected/`, and reports the
//! end-to-end metrics. The traced run
//! (`--trace 1`) times one untraced job, then runs set-up, the job and
//! the workload's replays again with every layer call wrapped in a
//! span, and reports the per-layer metrics. The last stdout line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! The process exits non-zero when any operation failed its check.
//!
//! See `README.md` in this directory for the workloads and metrics.

mod bigtopo;
mod design_space;
mod evaluate;
mod fig6;
mod fleet;
mod product;
mod trace;

use std::time::Instant;

use product::{Op, Product};
use trace::Tracer;

/// The seed the recorded values are the reference for.
pub const DEFAULT_SEED: u64 = 42;

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["fig6_a", "design_space", "bigtopo", "fleet"];

/// Layers timed by spans; each reports its self time as `<span>_s`.
/// Their sum plus `other_s` is the traced run's wall time.
const LAYER_SPANS: [&str; 16] = [
    "topology.build",
    "topology.db_instantiate",
    "routing.build",
    "floorplan.predict",
    "sweep.prepare",
    "core.analytic",
    "core.customize",
    "sim.zll",
    "sim.run",
    "sim.replay",
    "sim.network_new",
    "sim.network_run",
    "coord.cold",
    "coord.widen",
    "coord.warm",
    "worker.build",
];

/// Per-layer counts, read from the tracer's counters.
const LAYER_COUNTERS: [(&str, &str); 12] = [
    ("routing.builds", "count"),
    ("routing.table_bytes_max", "bytes"),
    ("floorplan.predicts", "count"),
    ("core.customize_evals", "count"),
    ("sim.cells", "count"),
    ("sim.router_cycles", "count"),
    ("coord.chunks", "count"),
    ("coord.stolen_chunks", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.dir_bytes", "bytes"),
    ("journal.bytes", "bytes"),
];

/// Input size: the measured one, or a seconds-long smoke size that
/// runs the same code and checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark size.
    Full,
    /// The test size.
    Smoke,
}

impl Size {
    fn name(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::Smoke => "smoke",
        }
    }
}

/// What every workload call sees.
pub struct Ctx {
    /// Input size.
    pub size: Size,
    /// The workload seed; reaches `SimConfig::seed` wherever the
    /// workload simulates.
    pub seed: u64,
    /// The process-wide tracer (recording only in the traced phase).
    pub tracer: &'static Tracer,
}

/// One job's checked products and per-operation host latencies.
pub struct JobOut<D> {
    /// The checked products.
    pub product: Product,
    /// Host seconds of each evaluation, the samples behind
    /// `eval_p50_ms` / `eval_p99_ms`: a topology's row in `fig6_a`, a
    /// configuration's `Toolchain::evaluate` in `design_space`, the
    /// part's `Toolchain::evaluate` in `bigtopo`, a request in `fleet`.
    pub op_secs: Vec<f64>,
    /// Workload data the replays and checks need.
    pub data: D,
}

/// A workload: set-up, one closed-loop job, and its checks.
pub trait Workload {
    /// What set-up builds (inputs, a connected fleet).
    type Inputs;
    /// What a job leaves for replays and checks.
    type Data;

    /// Builds the inputs; timed as `setup_s`.
    fn setup(&self, ctx: &Ctx) -> Result<Self::Inputs, String>;

    /// Releases what set-up acquired.
    fn teardown(&self, _inputs: Self::Inputs) {}

    /// Runs one job; timed as `wall_s`.
    fn job(&self, ctx: &Ctx, inputs: &Self::Inputs) -> Result<JobOut<Self::Data>, String>;

    /// Traced replays after the traced job; returns failures.
    fn replay(&self, _ctx: &Ctx, _inputs: &Self::Inputs, _out: &JobOut<Self::Data>) -> Vec<String> {
        Vec::new()
    }

    /// Checks beyond the recorded values (independent recomputation),
    /// untimed; returns failures.
    fn verify(&self, _ctx: &Ctx, _inputs: &Self::Inputs, _out: &JobOut<Self::Data>) -> Vec<String> {
        Vec::new()
    }

    /// Decides a seeded operation under an unrecorded seed, given the
    /// default seed's recorded text.
    fn tolerant(&self, op: &Op, recorded: &str) -> bool;
}

/// Counts a sweep's simulated work into the layer counters: cells,
/// router-cycles (`cycles` × tiles), and the cells and cycles at or
/// below the first rate failing `keeps_up(slack)` of each case and
/// pattern — the ones a saturation table reads.
pub fn count_sweep(ctx: &Ctx, sweep: &shg_sim::SweepResult, tiles: usize, slack: f64) {
    let tracer = ctx.tracer;
    if !tracer.enabled() {
        return;
    }
    for point in &sweep.points {
        let first_failing = sweep
            .points
            .iter()
            .filter(|p| p.case == point.case && p.pattern == point.pattern)
            .filter(|p| !p.outcome.keeps_up(slack))
            .map(|p| p.rate)
            .fold(f64::INFINITY, f64::min);
        let cycles = point.outcome.cycles as f64;
        tracer.count("sim.cells", 1.0);
        tracer.count("sim.router_cycles", cycles * tiles as f64);
        tracer.count("sweep.cycles", cycles);
        if point.rate <= first_failing {
            tracer.count("sweep.useful_cells", 1.0);
            tracer.count("sweep.useful_cycles", cycles);
        }
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    record: bool,
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: shg-perfbench --workload {}|all --seed N --seconds S --trace 0|1 \
         [--size full|smoke] [--record]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        size: Size::Full,
        record: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--record" {
            args.record = true;
            i += 1;
            continue;
        }
        let Some(value) = argv.get(i + 1) else {
            usage(&format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => args.workload.clone_from(value),
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|e| usage(&format!("--seed {value}: {e}")));
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage(&format!("--seconds {value}: not a positive number")));
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("--trace {value}: use 0 or 1")),
                };
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => usage(&format!("--size {value}: use full or smoke")),
                };
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown --workload '{}'", args.workload));
    }
    args
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of a non-empty sample.
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (mean of the middle pair for even counts).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Hands the heap's free pages back to the kernel, so that a job faults
/// its memory in as the first job of a fresh process does. Without it a
/// job that follows another reuses that job's heap: `bigtopo`'s first
/// job took 1.3–2.8 s longer than the next ones, so its median moved
/// with the number of jobs that fit in a run.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers; it only
        // returns free heap memory to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The result of one run: what the last stdout line reports.
struct Report {
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

/// Sets up, untimed, for `warmup` seconds, then until at least 5
/// set-ups and `seconds` of set-up have been timed; appends each timed
/// set-up's time to `times` and returns the last inputs.
///
/// The set-ups are timed in one state, a warm process before its jobs,
/// as a user's set-up runs. A cold process and one that has run jobs
/// set up at other speeds (`fig6_a`: 0.21 ms in the first second, 0.13
/// ms after the job; `bigtopo`: 1.1 and 1.3 ms), and a median pooled
/// over such states moves with how many set-ups each happened to hold.
fn timed_setup<W: Workload>(
    w: &W,
    ctx: &Ctx,
    warmup: f64,
    seconds: f64,
    times: &mut Vec<f64>,
) -> Result<W::Inputs, String> {
    let warmup_start = Instant::now();
    while warmup_start.elapsed().as_secs_f64() < warmup {
        w.teardown(w.setup(ctx)?);
    }
    let (mut count, mut spent) = (0, 0.0);
    loop {
        let start = Instant::now();
        let inputs = w.setup(ctx)?;
        let elapsed = start.elapsed().as_secs_f64();
        times.push(elapsed);
        count += 1;
        spent += elapsed;
        if count >= 5 && spent >= seconds {
            return Ok(inputs);
        }
        w.teardown(inputs);
    }
}

fn check_product<W: Workload>(w: &W, ctx: &Ctx, name: &str, product: &Product) -> Vec<String> {
    product::check(
        product,
        name,
        ctx.size.name(),
        ctx.seed,
        DEFAULT_SEED,
        |op, recorded| w.tolerant(op, recorded),
    )
}

/// The untraced run: end-to-end metrics.
fn run_untraced<W: Workload>(w: &W, ctx: &Ctx, name: &str, seconds: f64) -> Report {
    let mut setup_times = Vec::new();
    let inputs = match timed_setup(w, ctx, 0.5, 3.0, &mut setup_times) {
        Ok(inputs) => inputs,
        Err(e) => return failed_report(format!("setup: {e}")),
    };
    // Jobs run back to back while the next one, at the median length so
    // far, still ends within `seconds` (at least 1, at most 20), so a
    // run follows `--seconds` on a slow or busy host too. Every job does
    // the same work, starts from a trimmed heap, and is timed.
    let mut walls = Vec::new();
    let mut op_secs: Vec<Vec<f64>> = Vec::new();
    let mut failures = Vec::new();
    let mut first: Option<JobOut<W::Data>> = None;
    let start = Instant::now();
    while walls.len() < 20
        && (walls.is_empty() || start.elapsed().as_secs_f64() + median(&walls) <= seconds)
    {
        release_free_memory();
        let job_start = Instant::now();
        let out = match w.job(ctx, &inputs) {
            Ok(out) => out,
            Err(e) => {
                w.teardown(inputs);
                return failed_report(format!("job: {e}"));
            }
        };
        walls.push(job_start.elapsed().as_secs_f64());
        op_secs.push(out.op_secs.clone());
        match &first {
            None => first = Some(out),
            Some(first) if first.product != out.product => {
                failures.push("a repeated job produced different products".to_owned());
            }
            Some(_) => {}
        }
    }
    let op_secs = op_secs.concat();
    let peak = peak_rss_mb();
    let out = first.expect("at least one job ran");
    let attempted = out.product.ops.len();
    failures.extend(check_product(w, ctx, name, &out.product));
    failures.extend(w.verify(ctx, &inputs, &out));
    w.teardown(inputs);
    let metrics = vec![
        ("wall_s".to_owned(), median(&walls), "s"),
        ("setup_s".to_owned(), median(&setup_times), "s"),
        ("peak_rss_mb".to_owned(), peak, "MB"),
        (
            "eval_p50_ms".to_owned(),
            percentile(&op_secs, 0.5) * 1e3,
            "ms",
        ),
        (
            "eval_p99_ms".to_owned(),
            percentile(&op_secs, 0.99) * 1e3,
            "ms",
        ),
    ];
    eprintln!(
        "[perfbench] {name}: {} job(s), walls {walls:.3?} s, {} evaluations",
        walls.len(),
        op_secs.len()
    );
    Report {
        attempted,
        failures,
        metrics,
    }
}

/// The traced run: per-layer metrics.
fn run_traced<W: Workload>(w: &W, ctx: &Ctx, name: &str) -> Report {
    // The base of `trace.overhead_frac`: an untraced set-up and job
    // (teardown not timed), measured after a first one has warmed the
    // allocator as the traced run will find it.
    let mut untraced_s = 0.0;
    let mut untraced = Err(String::new());
    for _ in 0..2 {
        let start = Instant::now();
        untraced = w.setup(ctx).and_then(|inputs| {
            let out = w.job(ctx, &inputs);
            untraced_s = start.elapsed().as_secs_f64();
            w.teardown(inputs);
            out
        });
        if untraced.is_err() {
            break;
        }
    }
    let untraced = match untraced {
        Ok(out) => out,
        Err(e) => return failed_report(format!("untraced job: {e}")),
    };

    let tracer = ctx.tracer;
    tracer.set_enabled(true);
    let root = tracer.enter("run");
    let root_id = root.id().expect("tracing is on");
    let traced = w.setup(ctx).and_then(|inputs| match w.job(ctx, &inputs) {
        Ok(out) => Ok((inputs, out)),
        Err(e) => {
            w.teardown(inputs);
            Err(e)
        }
    });
    let (inputs, out) = match traced {
        Ok(ok) => ok,
        Err(e) => {
            drop(root);
            tracer.set_enabled(false);
            return failed_report(format!("traced job: {e}"));
        }
    };
    let replay_start = Instant::now();
    let mut failures = {
        let _replay = tracer.enter("replay");
        w.replay(ctx, &inputs, &out)
    };
    let replay_s = replay_start.elapsed().as_secs_f64();
    drop(root);
    tracer.set_enabled(false);
    w.teardown(inputs);

    if out.product != untraced.product {
        failures.push("the traced job's products differ from the untraced job's".to_owned());
    }
    let attempted = out.product.ops.len();
    failures.extend(check_product(w, ctx, name, &out.product));

    // Self times add up to the root's wall time only over a well-formed
    // tree: every span under the root and inside its parent.
    failures.extend(tracer.misplaced_spans(root_id));
    let spans = tracer.spans();
    let wall = spans[root_id].end - spans[root_id].start;
    let self_times = tracer.self_times(root_id);
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    for span in LAYER_SPANS {
        let value = self_times.get(span).copied().unwrap_or(0.0);
        metrics.push((format!("{span}_s"), value, "s"));
    }
    let other = self_times
        .iter()
        .filter(|(span, _)| !LAYER_SPANS.contains(span))
        .map(|(_, v)| v)
        .sum::<f64>();
    metrics.push(("other_s".to_owned(), other, "s"));
    metrics.push(("trace.wall_s".to_owned(), wall, "s"));
    metrics.push((
        "trace.overhead_frac".to_owned(),
        (wall - replay_s) / untraced_s - 1.0,
        "frac",
    ));
    for (counter, unit) in LAYER_COUNTERS {
        metrics.push((counter.to_owned(), tracer.counter(counter), unit));
    }
    let counter = |name| tracer.counter(name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let chunks = counter("coord.chunks");
    for (metric, value) in [
        (
            "sweep.useful_cell_frac",
            ratio(counter("sweep.useful_cells"), counter("sim.cells")),
        ),
        (
            "sweep.useful_cycle_frac",
            ratio(counter("sweep.useful_cycles"), counter("sweep.cycles")),
        ),
        (
            "coord.useful_chunk_frac",
            ratio(chunks - counter("coord.stolen_chunks"), chunks),
        ),
        (
            "cache.hit_frac",
            ratio(
                counter("cache.hits"),
                counter("cache.hits") + counter("cache.misses"),
            ),
        ),
    ] {
        metrics.push((metric.to_owned(), value, "frac"));
    }
    let sim_run = self_times.get("sim.run").copied().unwrap_or(0.0);
    metrics.push((
        "sim.router_cycles_per_s".to_owned(),
        ratio(counter("sim.router_cycles"), sim_run),
        "1/s",
    ));
    let cells: Vec<f64> = tracer.durations("sim.replay");
    for (metric, p) in [("sim.cell_p50_ms", 0.5), ("sim.cell_p90_ms", 0.9)] {
        let value = if cells.is_empty() {
            0.0
        } else {
            percentile(&cells, p) * 1e3
        };
        metrics.push((metric.to_owned(), value, "ms"));
    }
    let trace_path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{name}-{}-seed{}.json",
            ctx.size.name(),
            ctx.seed
        ));
    if let Err(e) = tracer.write_json(&trace_path) {
        failures.push(format!("writing {}: {e}", trace_path.display()));
    } else {
        eprintln!("[perfbench] spans written to {}", trace_path.display());
    }
    Report {
        attempted,
        failures,
        metrics,
    }
}

fn failed_report(message: String) -> Report {
    Report {
        attempted: 1,
        failures: vec![message],
        metrics: Vec::new(),
    }
}

fn record<W: Workload>(w: &W, ctx: &Ctx, name: &str) -> Result<(), String> {
    let inputs = w.setup(ctx)?;
    let out = w.job(ctx, &inputs);
    w.teardown(inputs);
    let path = product::expected_path(name, ctx.size.name(), ctx.seed);
    std::fs::create_dir_all(product::expected_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, out?.product.to_text()).map_err(|e| e.to_string())?;
    eprintln!("[perfbench] recorded {}", path.display());
    Ok(())
}

fn run_one<W: Workload>(w: &W, ctx: &Ctx, name: &str, args: &Args) -> Report {
    if args.record {
        return match record(w, ctx, name) {
            Ok(()) => Report {
                attempted: 1,
                failures: Vec::new(),
                metrics: Vec::new(),
            },
            Err(e) => failed_report(e),
        };
    }
    if args.trace {
        run_traced(w, ctx, name)
    } else {
        run_untraced(w, ctx, name, args.seconds)
    }
}

/// Runs every workload in a child process of its own (so each reports
/// its own peak memory) and relays their reports.
fn run_all() -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| usage(&format!("current exe: {e}")));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for workload in WORKLOADS {
        let mut child_args = argv.clone();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload was given");
        child_args[at + 1] = workload.to_owned();
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .unwrap_or_else(|e| usage(&format!("running {workload}: {e}")));
        ok &= status.success();
    }
    std::process::exit(if ok { 0 } else { 1 });
}

fn main() {
    let args = parse_args();
    if args.workload == "all" {
        run_all();
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool builds");
    let ctx = Ctx {
        size: args.size,
        seed: args.seed,
        tracer: Box::leak(Box::new(Tracer::new(false))),
    };
    let name = args.workload.as_str();
    let report = pool.install(|| match name {
        "fig6_a" => run_one(&fig6::Fig6A, &ctx, name, &args),
        "design_space" => run_one(&design_space::DesignSpace, &ctx, name, &args),
        "bigtopo" => run_one(&bigtopo::BigTopo, &ctx, name, &args),
        "fleet" => run_one(&fleet::Fleet, &ctx, name, &args),
        _ => unreachable!("workload names are validated"),
    });
    for failure in &report.failures {
        eprintln!("[perfbench] FAILED {name}: {failure}");
    }
    let failed = report.failures.len().min(report.attempted);
    println!("workload {name} seed {} threads {threads}", args.seed);
    for (metric, value, unit) in &report.metrics {
        println!("{metric:<28} {value:>18.6} {unit}");
    }
    println!("attempted {} failed {failed}", report.attempted);
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(metric, value, unit)| {
            format!(
                "\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        metrics.join(", ")
    );
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_owned()
    }
}
