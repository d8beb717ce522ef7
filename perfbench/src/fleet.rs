//! `fleet`: the sweep service run in-process. `run_coordinated` drives
//! two `serve_worker` threads over loopback TCP; the workers share one
//! fresh `CellCache` directory per job and the coordinator journals
//! every request. A job is three requests in sequence: `cold` (every
//! cell simulated and cached), `widen` (two added rates: the old cells
//! are cache reads, the new ones simulated) and `warm` (a duplicate of
//! `cold`, answered from the cache without dispatching). Each job
//! starts from fresh topology caches as from a fresh cell cache, so
//! every job does the same work.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use shg_bench::sweep::{annotated_experiment, request_setup, TopologyCache};
use shg_core::Scenario;
use shg_sim::sweep::{run_coordinated, serve_worker, CoordOptions, WorkerLink};
use shg_sim::{CellCache, ExecBackend, Experiment, SaturationSearch, SweepResult};
use shg_topology::Topology;

use crate::product::{fnv64, Op, Product, SeedUse};
use crate::trace::{SpanId, Tracer};
use crate::{Ctx, JobOut, Size, Workload};

/// The workload.
pub struct Fleet;

/// Workers a fleet runs.
const WORKERS: usize = 2;

/// The span of the request in flight, parent of the workers' build
/// spans (`usize::MAX` when none).
static REQUEST_SPAN: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Distinguishes the work directories of successive set-ups.
static FLEETS: AtomicUsize = AtomicUsize::new(0);

/// A connected fleet and the coordinator's own inputs.
pub struct Inputs {
    links: Mutex<Vec<WorkerLink>>,
    handles: Vec<JoinHandle<Result<(), String>>>,
    topologies: Vec<(String, Topology)>,
    work_dir: PathBuf,
    jobs: AtomicUsize,
}

/// The three requests: name, extra params.
const REQUESTS: [(&str, Option<&str>); 3] =
    [("cold", None), ("widen", Some("0.01,0.03")), ("warm", None)];

impl Workload for Fleet {
    type Inputs = Inputs;
    type Data = ();

    fn setup(&self, ctx: &Ctx) -> Result<Inputs, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("listen: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| spawn_worker(addr, ctx.size, ctx.tracer))
            .collect();
        let links = accept_workers(&listener, WORKERS, Duration::from_secs(30));
        let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "fleet-{}-{}",
                std::process::id(),
                FLEETS.fetch_add(1, Ordering::Relaxed)
            ));
        let inputs = Inputs {
            links: Mutex::new(Vec::new()),
            handles,
            topologies: topologies(ctx.size),
            work_dir,
            jobs: AtomicUsize::new(0),
        };
        match links {
            Ok(links) => {
                *inputs.links.lock().expect("links lock") = links;
                Ok(inputs)
            }
            Err(e) => {
                self.teardown(inputs);
                Err(e)
            }
        }
    }

    fn teardown(&self, inputs: Inputs) {
        let mut links = inputs.links.into_inner().unwrap_or_else(|e| e.into_inner());
        for link in &mut links {
            link.shutdown();
        }
        drop(links);
        for handle in inputs.handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("[perfbench] fleet worker: {e}"),
                Err(_) => eprintln!("[perfbench] fleet worker panicked"),
            }
        }
        let _ = std::fs::remove_dir_all(&inputs.work_dir);
    }

    fn job(&self, ctx: &Ctx, inputs: &Inputs) -> Result<JobOut<()>, String> {
        let tracer = ctx.tracer;
        let dir = inputs.work_dir.join(format!(
            "job{}",
            inputs.jobs.fetch_add(1, Ordering::Relaxed)
        ));
        let cache_dir = dir.join("cells");
        std::fs::create_dir_all(&cache_dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut links = inputs.links.lock().expect("links lock");
        let mut topology_cache = TopologyCache::new();
        let mut product = Product::default();
        let mut op_secs = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (id, (name, add_rates)) in REQUESTS.iter().enumerate() {
            let params = request_params(ctx, *add_rates, Some(&cache_dir));
            let start = Instant::now();
            let experiment =
                build_experiment(tracer, &params, &inputs.topologies, &mut topology_cache)?;
            let journal = dir.join(format!("{name}.jsonl"));
            let span = tracer.enter(coord_span(name));
            REQUEST_SPAN.store(span.id().unwrap_or(usize::MAX), Ordering::SeqCst);
            let outcome = run_coordinated(
                &experiment,
                id as u64 + 1,
                &params,
                &mut links,
                Some(&journal),
                &CoordOptions::default(),
                |_| {},
            );
            REQUEST_SPAN.store(usize::MAX, Ordering::SeqCst);
            drop(span);
            let (result, summary) = outcome.map_err(|e| format!("request {name}: {e}"))?;
            op_secs.push(start.elapsed().as_secs_f64());
            product.push(
                format!("request/{name}"),
                format!(
                    "{:016x} cells={} cached={} dispatched={}",
                    fnv64(result.to_json().as_bytes()),
                    summary.cells,
                    summary.cached,
                    summary.dispatched
                ),
                SeedUse::Seeded,
            );
            tracer.count("coord.chunks", summary.chunks as f64);
            tracer.count("coord.stolen_chunks", summary.stolen_chunks as f64);
            tracer.count("cache.hits", summary.cached as f64);
            tracer.count("cache.misses", summary.dispatched as f64);
            // The cells this request simulated: those no earlier
            // request of the job answered.
            let simulated = SweepResult {
                points: result
                    .points
                    .into_iter()
                    .filter(|p| {
                        seen.insert((p.case.clone(), p.pattern.to_string(), p.rate.to_bits()))
                    })
                    .collect(),
            };
            let tiles = inputs.topologies[0].1.num_tiles();
            crate::count_sweep(ctx, &simulated, tiles, SaturationSearch::default().slack);
        }
        if tracer.enabled() {
            tracer.count("cache.dir_bytes", dir_bytes(&cache_dir) as f64);
            let journals: u64 = REQUESTS
                .iter()
                .map(|(name, _)| file_bytes(&dir.join(format!("{name}.jsonl"))))
                .sum();
            tracer.count("journal.bytes", journals as f64);
        }
        Ok(JobOut {
            product,
            op_secs,
            data: (),
        })
    }

    /// Each request's bytes must equal a single-process
    /// `Experiment::run_parallel` of the same params: one reference run
    /// of the widened grid, whose cells include the narrow grid's.
    fn verify(&self, ctx: &Ctx, inputs: &Inputs, out: &JobOut<()>) -> Vec<String> {
        let mut cache = TopologyCache::new();
        let build = |add_rates, cache: &mut TopologyCache| {
            build_experiment(
                ctx.tracer,
                &request_params(ctx, add_rates, None),
                &inputs.topologies,
                cache,
            )
        };
        let (narrow, wide) = match (
            build(None, &mut cache),
            build(Some("0.01,0.03"), &mut cache),
        ) {
            (Ok(narrow), Ok(wide)) => (narrow, wide),
            (Err(e), _) | (_, Err(e)) => return vec![e],
        };
        let reference = wide.run_parallel();
        let narrow_reference = SweepResult {
            points: reference
                .points
                .iter()
                .filter(|p| narrow.spec().rates_of(p.pattern).contains(&p.rate))
                .cloned()
                .collect(),
        };
        let mut failures = Vec::new();
        for op in &out.product.ops {
            let want = if op.id == "request/widen" {
                &reference
            } else {
                &narrow_reference
            };
            let digest = format!("{:016x}", fnv64(want.to_json().as_bytes()));
            if !op.text.starts_with(&digest) {
                failures.push(format!(
                    "{}: bytes differ from the single-process run",
                    op.id
                ));
            }
        }
        failures
    }

    /// The cell counts are exact for every seed; the digest is checked
    /// against the single-process run instead.
    fn tolerant(&self, op: &Op, recorded: &str) -> bool {
        op.text.split_once(' ').map(|(_, counts)| counts)
            == recorded.split_once(' ').map(|(_, counts)| counts)
    }
}

fn coord_span(request: &str) -> &'static str {
    match request {
        "cold" => "coord.cold",
        "widen" => "coord.widen",
        _ => "coord.warm",
    }
}

/// The request params: the service's own keys plus the benchmark's
/// `seed` and `cache` keys, which [`build_experiment`] consumes.
fn request_params(
    ctx: &Ctx,
    add_rates: Option<&str>,
    cache: Option<&Path>,
) -> Vec<(String, String)> {
    let mut params = vec![
        ("scenario".to_owned(), "a".to_owned()),
        ("fast".to_owned(), "1".to_owned()),
        ("rate-points".to_owned(), "2".to_owned()),
        ("seed".to_owned(), ctx.seed.to_string()),
    ];
    if let Some(rates) = add_rates {
        params.push(("add-rates".to_owned(), rates.to_owned()));
    }
    if let Some(dir) = cache {
        params.push(("cache".to_owned(), dir.display().to_string()));
    }
    params
}

/// Scenario (a)'s topologies (the mesh alone at the smoke size).
fn topologies(size: Size) -> Vec<(String, Topology)> {
    let mut topologies = shg_bench::named_topologies(&Scenario::knc_a());
    if size == Size::Smoke {
        topologies.retain(|(name, _)| name == "2D Mesh");
    }
    topologies
}

/// The build closure coordinator and workers share: `request_setup`
/// plus `annotated_experiment`, with the workload seed installed in
/// the simulator config and the shared cell cache attached.
fn build_experiment<'t>(
    tracer: &Tracer,
    params: &[(String, String)],
    topologies: &'t [(String, Topology)],
    cache: &mut TopologyCache,
) -> Result<Experiment<'t>, String> {
    let mut seed = None;
    let mut cache_dir = None;
    let mut service = Vec::new();
    for (key, value) in params {
        match key.as_str() {
            "seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("seed: {e}"))?),
            "cache" => cache_dir = Some(value.clone()),
            _ => service.push((key.clone(), value.clone())),
        }
    }
    let mut setup = request_setup(&service)?;
    if let Some(seed) = seed {
        setup.spec.config.seed = seed;
    }
    let mut experiment = tracer.span("sweep.prepare", || {
        annotated_experiment(
            &setup.scenario.params,
            &setup.model_options,
            cache,
            topologies,
            setup.spec,
            setup.route_form,
        )
    })?;
    if let Some(dir) = cache_dir {
        experiment.set_cache(CellCache::open(&dir).map_err(|e| format!("cache {dir}: {e}"))?);
    }
    Ok(experiment)
}

/// A worker thread: a 1-thread pool, its own prebuilt topologies and
/// a topology cache for the job in flight (a job is told apart by its
/// cell-cache directory), serving the coordinator over loopback TCP
/// until shutdown.
fn spawn_worker(
    addr: SocketAddr,
    size: Size,
    tracer: &'static Tracer,
) -> JoinHandle<Result<(), String>> {
    std::thread::spawn(move || {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .map_err(|e| format!("worker pool: {e:?}"))?;
        pool.install(|| {
            let topologies = topologies(size);
            let mut cache = TopologyCache::new();
            let mut cache_job: Option<String> = None;
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
            let mut writer = stream;
            serve_worker(&mut reader, &mut writer, |params| {
                let request = REQUEST_SPAN.load(Ordering::SeqCst);
                let parent: Option<SpanId> = (request != usize::MAX).then_some(request);
                let _span = tracer.enter_under("worker.build", parent);
                let job = params
                    .iter()
                    .find(|(key, _)| key == "cache")
                    .map(|(_, dir)| dir);
                if job != cache_job.as_ref() {
                    cache = TopologyCache::new();
                    cache_job = job.cloned();
                }
                let mut experiment = build_experiment(tracer, params, &topologies, &mut cache)?;
                experiment.set_backend(ExecBackend::Auto);
                Ok(experiment)
            })
            .map_err(|e| format!("serve: {e}"))
        })
    })
}

/// Accepts `count` worker connections, giving up after `patience`.
fn accept_workers(
    listener: &TcpListener,
    count: usize,
    patience: Duration,
) -> Result<Vec<WorkerLink>, String> {
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + patience;
    let mut links = Vec::new();
    while links.len() < count {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).map_err(|e| e.to_string())?;
                let link = WorkerLink::from_tcp(format!("worker-{}", links.len()), stream)
                    .map_err(|e| e.to_string())?;
                links.push(link);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(format!("only {} of {count} workers connected", links.len()));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }
    Ok(links)
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .map(|entry| file_bytes(&entry.path()))
            .sum()
    })
}
