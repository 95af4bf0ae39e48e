//! `dspatch-serve` as users run it: a separate server process over a result
//! store seeded during set-up, driven by a closed loop of two clients.

use crate::study::{custom_scale, run_rep};
use crate::util::{Rng, Tracer};
use crate::BenchError;
use dspatch_harness::campaign::{
    CampaignSpec, CellSpec, ConfigSpec, PrefetcherSel, TargetSelector,
};
use dspatch_harness::{Json, PrefetcherKind, ResultStore};
use dspatch_serve::{http_request, Server, ServerConfig};
use dspatch_trace::memory_intensive_suite;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Body of the `serve-child` mode: the same start-up and drain sequence as
/// the `dspatch-serve` binary, on an ephemeral port, serving until a client
/// posts `/admin/shutdown` or the benchmark process that started it is gone
/// (then the server is never left running on its own).
pub fn child_main(store: &str) -> Result<(), BenchError> {
    let config = ServerConfig {
        store_dir: store.into(),
        ..ServerConfig::default()
    };
    let parent = std::os::unix::process::parent_id();
    let server = Server::start(&config).map_err(|e| BenchError::Run(e.to_string()))?;
    println!("listening {}", server.local_addr());
    while !server.draining() && std::os::unix::process::parent_id() == parent {
        std::thread::sleep(Duration::from_millis(20));
    }
    server.begin_drain();
    server.wait();
    Ok(())
}

/// A running server process; killed and reaped if dropped early.
#[derive(Debug)]
pub struct ServerChild {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerChild {
    fn spawn(store: &Path) -> Result<Self, BenchError> {
        let run = |e: std::io::Error| BenchError::Run(format!("server process: {e}"));
        let exe = std::env::current_exe().map_err(run)?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(run)?;
        let mut line = String::new();
        if let Some(stdout) = child.stdout.take() {
            BufReader::new(stdout).read_line(&mut line).map_err(run)?;
        }
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Self { child, addr }),
            None => {
                drop(child.kill());
                drop(child.wait());
                Err(BenchError::Run(format!("server did not start: '{line}'")))
            }
        }
    }

    /// Graceful drain through the public endpoint, then reap.
    pub fn shutdown(mut self) -> Result<(), BenchError> {
        let response = http_request(self.addr, "POST", "/admin/shutdown", None);
        let status = self
            .child
            .wait()
            .map_err(|e| BenchError::Run(format!("server wait: {e}")))?;
        match response {
            Ok((200, _, _)) if status.success() => Ok(()),
            other => Err(BenchError::Run(format!(
                "server shutdown: {:?}, exit {status}",
                other.map(|r| r.0)
            ))),
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            drop(self.child.kill());
            drop(self.child.wait());
        }
    }
}

/// A server plus what set-up learnt about its contents.
#[derive(Debug)]
pub struct Service {
    pub server: ServerChild,
    /// Campaign ids the set-up submitted (every one completed).
    pub campaign_ids: Vec<String>,
    /// Prefetcher labels present in the store.
    pub prefetchers: Vec<String>,
    pub seeded: Vec<crate::study::Rep>,
}

fn get(addr: SocketAddr, path: &str) -> Result<(u16, Vec<u8>), BenchError> {
    http_request(addr, "GET", path, None)
        .map(|(status, _, body)| (status, body))
        .map_err(|e| BenchError::Run(format!("GET {path}: {e}")))
}

/// Submits `spec` and waits on its event feed until it completes; returns
/// the campaign id.
fn submit_and_wait(addr: SocketAddr, spec: &CampaignSpec) -> Result<String, BenchError> {
    let body = spec.to_json().render();
    let (status, _, reply) = http_request(addr, "POST", "/campaigns", Some(&body))
        .map_err(|e| BenchError::Run(format!("POST /campaigns: {e}")))?;
    let id = std::str::from_utf8(&reply)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|json| json.get("id").and_then(Json::as_str).map(str::to_owned))
        .ok_or_else(|| BenchError::Check(format!("POST /campaigns answered {status}")))?;
    get(addr, &format!("/campaigns/{id}/events"))?;
    Ok(id)
}

/// Set-up: simulate `seed_specs` in this process into a fresh store, start
/// a server over it, submit every spec (each cell is a store hit) and check
/// that the served results are byte-identical to the in-process JSON.
pub fn set_up(
    seed_specs: &[CampaignSpec],
    dir: &Path,
    tracer: &Tracer,
    traced: bool,
    parent: u64,
) -> Result<Service, BenchError> {
    let store = ResultStore::open(dir).map_err(|e| BenchError::Run(e.to_string()))?;
    let store = Arc::new(Mutex::new(store));
    let mut seeded = Vec::new();
    for spec in seed_specs {
        let scale = spec
            .scale
            .as_ref()
            .and_then(|s| s.resolve().ok())
            .ok_or_else(|| BenchError::Run("seed spec needs a valid scale".to_owned()))?;
        seeded.push(run_rep(
            spec,
            &scale,
            tracer,
            traced,
            parent,
            Some(store.clone()),
        )?);
    }
    drop(store);
    let server = ServerChild::spawn(dir)?;
    let mut campaign_ids = Vec::new();
    for (spec, rep) in seed_specs.iter().zip(&seeded) {
        let id = submit_and_wait(server.addr, spec)?;
        let (status, body) = get(server.addr, &format!("/campaigns/{id}/results"))?;
        if status != 200 || body != rep.json.as_bytes() {
            return Err(BenchError::Check(format!(
                "GET /campaigns/{id}/results ({status}) differs from in-process run_campaign \
                 JSON for '{}'",
                spec.name
            )));
        }
        campaign_ids.push(id);
    }
    let mut prefetchers: Vec<String> = seed_specs
        .iter()
        .flat_map(|spec| &spec.cells)
        .flat_map(|cell| cell.prefetchers.iter().map(PrefetcherSel::label))
        .collect();
    prefetchers.sort();
    prefetchers.dedup();
    Ok(Service {
        server,
        campaign_ids,
        prefetchers,
        seeded,
    })
}

/// What the closed loop measured, client side.
#[derive(Debug, Default)]
pub struct LoadStats {
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub route_ms: HashMap<&'static str, Vec<f64>>,
    pub requests: u64,
    pub failed: u64,
    pub fresh_sims: u64,
    pub store_hits: u64,
    /// Records of the freshly simulated cells behind the writes.
    pub fresh_records: u64,
    pub seconds: f64,
    /// The first completed write: its spec and the served results.
    pub first_write: Option<(CampaignSpec, Vec<u8>)>,
}

const QUERIES: [&str; 3] = [
    "/query?group_by=prefetcher&agg=mean:speedup",
    "/query?group_by=workload,prefetcher&agg=mean:ipc",
    "/query?group_by=config,prefetcher&agg=geomean:speedup",
];

/// Write specs differ in their trace length, so every write is a new cell
/// and simulates afresh on the server's runner thread.
const WRITE_ACCESSES: usize = 20_000;
const WRITE_KINDS: [PrefetcherKind; 5] = [
    PrefetcherKind::Bop,
    PrefetcherKind::Sms,
    PrefetcherKind::Spp,
    PrefetcherKind::Dspatch,
    PrefetcherKind::DspatchPlusSpp,
];

fn encode(text: &str) -> String {
    text.bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' => (b as char).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// Two clients in a closed loop for `seconds`: each sends its next request
/// when the previous one completes. Reads ask `/campaigns/:id/results`,
/// `/query` or `/results?`. One operation in ten instead submits a distinct
/// small spec and waits until its results are available.
pub fn closed_loop(
    service: &Service,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    parent: u64,
) -> LoadStats {
    let addr = service.server.addr;
    let write_pool: Vec<String> = memory_intensive_suite()
        .into_iter()
        .map(|w| w.name)
        .collect();
    let write_pool = write_pool.as_slice();
    let writes = AtomicU64::new(0);
    let start = Instant::now();
    let per_client: Vec<LoadStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|client| {
                let writes = &writes;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ (client + 1).wrapping_mul(0xA076_1D64_78BD_642F));
                    let mut write_at = 0;
                    let mut stats = LoadStats::default();
                    let client = Client {
                        addr,
                        tracer,
                        parent,
                    };
                    for op in 0u64.. {
                        if start.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        // One write in every block of ten operations, at a
                        // seed-drawn position: a fixed write share without a
                        // fixed cadence the two clients could fall into step on.
                        if op % 10 == 0 {
                            write_at = rng.below(10) as u64;
                        }
                        if op % 10 == write_at {
                            let k = writes.fetch_add(1, Ordering::Relaxed);
                            client.write(write_pool, k, &mut stats);
                        } else {
                            client.read(service, &mut rng, &mut stats);
                        }
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = LoadStats {
        seconds: start.elapsed().as_secs_f64(),
        ..LoadStats::default()
    };
    for stats in per_client {
        total.read_ms.extend(stats.read_ms);
        total.write_ms.extend(stats.write_ms);
        for (route, values) in stats.route_ms {
            total.route_ms.entry(route).or_default().extend(values);
        }
        total.requests += stats.requests;
        total.failed += stats.failed;
        total.fresh_sims += stats.fresh_sims;
        total.store_hits += stats.store_hits;
        total.fresh_records += stats.fresh_records;
        if total.first_write.is_none() {
            total.first_write = stats.first_write;
        }
    }
    total
}

/// The first write's served results must be byte-identical to an
/// in-process `run_campaign` of the same spec.
pub fn check_first_write(load: &LoadStats) -> Result<(), BenchError> {
    let Some((spec, served)) = &load.first_write else {
        return Err(BenchError::Check("no write request completed".to_owned()));
    };
    let scale = spec
        .scale
        .as_ref()
        .and_then(|s| s.resolve().ok())
        .ok_or_else(|| BenchError::Run("write spec scale".to_owned()))?;
    let local = dspatch_harness::campaign::run_campaign(spec, &scale)
        .map_err(BenchError::Run)?
        .to_json()
        .render();
    if local.as_bytes() != served.as_slice() {
        return Err(BenchError::Check(format!(
            "served results of '{}' differ from in-process run_campaign JSON",
            spec.name
        )));
    }
    if load.read_ms.is_empty() {
        return Err(BenchError::Check("no read request completed".to_owned()));
    }
    Ok(())
}

/// One client's connection target and span context.
struct Client<'a> {
    addr: SocketAddr,
    tracer: &'a Tracer,
    parent: u64,
}

impl Client<'_> {
    /// One timed request; a transport error or non-2xx status counts as
    /// failed.
    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        route: &'static str,
        stats: &mut LoadStats,
    ) -> Option<Vec<u8>> {
        let start = Instant::now();
        let reply = http_request(self.addr, method, path, body);
        let end = Instant::now();
        let tracer = self.tracer;
        tracer.record(
            &format!("serve.{route}"),
            self.parent,
            tracer.ns_at(start),
            tracer.ns_at(end),
        );
        stats.requests += 1;
        stats
            .route_ms
            .entry(route)
            .or_default()
            .push(end.duration_since(start).as_secs_f64() * 1e3);
        match reply {
            Ok((status, _, body)) if (200..300).contains(&status) => Some(body),
            _ => {
                stats.failed += 1;
                None
            }
        }
    }

    fn read(&self, service: &Service, rng: &mut Rng, stats: &mut LoadStats) {
        let (route, path) = match rng.below(3) {
            0 => {
                let id = &service.campaign_ids[rng.below(service.campaign_ids.len())];
                ("results", format!("/campaigns/{id}/results"))
            }
            1 => ("query", QUERIES[rng.below(QUERIES.len())].to_owned()),
            _ => {
                let label = &service.prefetchers[rng.below(service.prefetchers.len())];
                (
                    "results_filter",
                    format!("/results?prefetcher={}", encode(label)),
                )
            }
        };
        let start = Instant::now();
        self.request("GET", &path, None, route, stats);
        stats.read_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// Submit, wait on the event feed, read the status, fetch the results.
    fn write(&self, write_pool: &[String], k: u64, stats: &mut LoadStats) {
        let spec = write_spec(write_pool, k);
        let start = Instant::now();
        let body = spec.to_json().render();
        let Some(reply) = self.request("POST", "/campaigns", Some(&body), "submit", stats) else {
            return;
        };
        let Some(id) = std::str::from_utf8(&reply)
            .ok()
            .and_then(|text| Json::parse(text).ok())
            .and_then(|json| json.get("id").and_then(Json::as_str).map(str::to_owned))
        else {
            stats.failed += 1;
            return;
        };
        self.request(
            "GET",
            &format!("/campaigns/{id}/events"),
            None,
            "events",
            stats,
        );
        let status = self.request("GET", &format!("/campaigns/{id}"), None, "status", stats);
        let results_path = format!("/campaigns/{id}/results");
        let Some(results) = self.request("GET", &results_path, None, "write_results", stats) else {
            return;
        };
        stats.write_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let counters = status
            .and_then(|body| Json::parse(std::str::from_utf8(&body).ok()?).ok())
            .and_then(|json| {
                let stats = json.get("stats")?;
                Some((
                    stats.get("fresh_sims")?.as_u64()?,
                    stats.get("store_hits")?.as_u64()?,
                ))
            });
        match counters {
            Some((fresh, hits)) => {
                stats.fresh_sims += fresh;
                stats.store_hits += hits;
                stats.fresh_records += fresh * (WRITE_ACCESSES as u64 + k);
            }
            None => stats.failed += 1,
        }
        if stats.first_write.is_none() {
            stats.first_write = Some((spec, results));
        }
    }
}

/// The `k`-th write of a run: a single-core cell of one prefetcher, without
/// the baseline column. Writes walk every (workload, prefetcher) pair in a
/// fixed order, so runs with different seeds submit the same work; the
/// seed decides only which operations are writes and what the reads ask.
fn write_spec(write_pool: &[String], k: u64) -> CampaignSpec {
    let workload = write_pool[k as usize % write_pool.len()].clone();
    let kind = WRITE_KINDS[k as usize % WRITE_KINDS.len()];
    CampaignSpec {
        name: format!("write-{k}"),
        scale: Some(custom_scale(WRITE_ACCESSES + k as usize, 0, 1, None)),
        cells: vec![CellSpec {
            label: "write".to_owned(),
            targets: TargetSelector::Workloads(vec![workload]),
            prefetchers: vec![PrefetcherSel::Kind(kind)],
            config: ConfigSpec::single_thread(),
            baseline: false,
        }],
    }
}
