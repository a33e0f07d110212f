//! `serve_mix`: an in-process `dhpf-serve` daemon driven over TCP by two
//! closed-loop clients with a seeded stream drawn from the kernel catalog.

use crate::harness::{self, Layers, Measured, Pass};
use crate::kernels::{self, CatalogEntry};
use crate::record::{self, Args, Report};
use crate::stats::{self, Rng};
use dhpf_core::{compile_with, render_program, CompileOptions};
use dhpf_obs::json::{self, Obj, Value};
use dhpf_obs::Collector;
use dhpf_omega::Context;
use dhpf_serve::{Server, ShutdownHandle};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// Memo entries per table in the daemon's context. The catalog fills
/// about 262,000 entries over the five tables when nothing is evicted, so
/// at this bound the mix evicts steadily (about 15,000 entries a block,
/// one for each miss) while nine in ten memo lookups still hit. At 2^15 the cache thrashes
/// (half the lookups miss) and the workload measures cold compilation.
const CACHE_CAP: usize = 1 << 17;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Host-speed probes before each block. Splitting a block into rounds
/// with probes between them would make the clients wait for each other
/// at every round's end, so the block is probed up front, several times
/// so that the probe sees as much of the host as in the compile
/// workloads.
const PROBES: usize = 4;
/// Seed of the fixed popularity ranking. The run's `--seed` varies the
/// order of requests, not which entries are popular or how often each is
/// sent, so every seed costs about the same.
const RANKING_SEED: u64 = 0x5e7e;

/// How a request relates to the ones sent before it in the run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// The same source was sent before.
    Repeat,
    /// First time for this source; another variant of the same kernel
    /// and size was sent before, so most integer-set work is shared.
    NearDup,
    /// First time for this kernel and size.
    Unseen,
}

/// The seeded request stream, one block (pass) at a time. A block sends
/// the catalog entry of popularity rank `r` (1-based) `round(N / r)` times
/// for N catalog entries, at least once: Zipf popularity with exponent 1,
/// with exact rather than sampled shares, so that blocks differ only in
/// order.
struct Stream {
    rng: Rng,
    block: Vec<usize>,
    sent: HashSet<usize>,
    families: HashSet<String>,
}

impl Stream {
    fn new(seed: u64, catalog: &[CatalogEntry]) -> Self {
        let mut rank: Vec<usize> = (0..catalog.len()).collect();
        Rng::new(RANKING_SEED).shuffle(&mut rank);
        let n = catalog.len() as f64;
        let block = rank
            .iter()
            .enumerate()
            .flat_map(|(r, &e)| {
                let copies = (n / (r + 1) as f64).round().max(1.0) as usize;
                std::iter::repeat_n(e, copies)
            })
            .collect();
        Stream {
            rng: Rng::new(seed),
            block,
            sent: HashSet::new(),
            families: HashSet::new(),
        }
    }

    fn next_block(&mut self, catalog: &[CatalogEntry]) -> Vec<(usize, Class)> {
        let mut order = self.block.clone();
        self.rng.shuffle(&mut order);
        order
            .into_iter()
            .map(|e| {
                let class = if !self.sent.insert(e) {
                    Class::Repeat
                } else if !self.families.insert(catalog[e].family.clone()) {
                    Class::NearDup
                } else {
                    Class::Unseen
                };
                (e, class)
            })
            .collect()
    }
}

/// One JSON-lines connection to the daemon.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn round_trip(&mut self, line: &str) -> Result<String, String> {
        let io = |e: std::io::Error| e.to_string();
        self.writer.write_all(line.as_bytes()).map_err(io)?;
        self.writer.write_all(b"\n").map_err(io)?;
        self.writer.flush().map_err(io)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply).map_err(io)? == 0 {
            return Err("connection closed".to_string());
        }
        Ok(reply)
    }

    fn query(&mut self, op: &str) -> Result<Value, String> {
        let reply = self.round_trip(&Obj::new().str("op", op).str("id", op).finish())?;
        json::parse(&reply).map_err(|e| format!("{op} reply: {e}"))
    }
}

/// The daemon on its own thread; dropping it shuts it down and joins.
struct Daemon {
    handle: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    addr: SocketAddr,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::bind("127.0.0.1:0", CACHE_CAP).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.shutdown_handle().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.serve());
        Ok(Daemon {
            handle,
            thread: Some(thread),
            addr,
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            if !matches!(t.join(), Ok(Ok(()))) {
                eprintln!("the daemon thread ended with an error");
            }
        }
    }
}

/// Everything a run sets up. Field order is drop order: the clients
/// close their connections before the daemon joins its handlers.
struct Setup {
    clients: Vec<Client>,
    _daemon: Daemon,
    /// The code a cold compilation of each catalog entry renders.
    references: Vec<String>,
}

/// Compiles every catalog entry cold on two threads, then starts the
/// daemon and connects the clients.
fn set_up(catalog: &[CatalogEntry]) -> Result<Setup, String> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<String, String>>>> =
        catalog.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(e) = catalog.get(i) else { break };
                let code = compile_with(&Context::new(), &e.source, &CompileOptions::new())
                    .map(|c| render_program(&c.program))
                    .map_err(|err| format!("{}: {err}", e.name));
                *slots[i]
                    .lock()
                    .expect("no reference compile panics while holding it") = Some(code);
            });
        }
    });
    let references = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("reference slot lock")
                .unwrap_or_else(|| Err("reference compile panicked".to_string()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let daemon = Daemon::start()?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(daemon.addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(Setup {
        clients,
        _daemon: daemon,
        references,
    })
}

/// One request's outcome as the client saw it.
struct Sample {
    class: Class,
    latency_ms: f64,
    compile_ms: f64,
    warm: bool,
    coalesced: bool,
}

/// The daemon's counters around a traced pass.
#[derive(Default)]
struct Scrape {
    hits: f64,
    misses: f64,
    evictions: f64,
    memo_entries: f64,
}

#[derive(Default)]
struct PassData {
    samples: Vec<Sample>,
    scrape: Option<(Scrape, Scrape)>,
}

/// Checks a compile reply against the cold compilation's code.
fn check_reply(reply: &str, reference: &str) -> Result<(f64, bool, bool), String> {
    let v = json::parse(reply).map_err(|e| format!("bad reply: {e}"))?;
    if v.get("ok") != Some(&Value::Bool(true)) {
        let code = v
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .unwrap_or("no error code");
        return Err(format!("not ok: {code}"));
    }
    if v.get("code").and_then(Value::as_str) != Some(reference) {
        return Err("code differs from a cold compilation".to_string());
    }
    let flag = |k: &str| v.get(k) == Some(&Value::Bool(true));
    let compile_ms = v.get("compile_ms").and_then(Value::as_f64).unwrap_or(0.0);
    Ok((compile_ms, flag("warm"), flag("coalesced")))
}

/// Sends `batch` through the clients in a closed loop: each client sends
/// its next request as soon as its previous reply arrived.
fn serve_batch(
    setup: &mut Setup,
    catalog: &[CatalogEntry],
    batch: &[(usize, Class)],
    trace: Option<&Collector>,
) -> Vec<Result<Sample, String>> {
    let next = AtomicUsize::new(0);
    let refs = &setup.references;
    let results: Vec<Vec<Result<Sample, String>>> = std::thread::scope(|s| {
        let workers: Vec<_> = setup
            .clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(e, class)) = batch.get(i) else {
                            break;
                        };
                        let line = Obj::new()
                            .str("op", "compile")
                            .str("id", &format!("r{i}"))
                            .str("source", &catalog[e].source)
                            .raw("options", "{\"threads\":1}")
                            .raw("want", "[\"code\"]")
                            .finish();
                        let span = trace
                            .map(|c| c.guard(&format!("request {}", catalog[e].name), "bench"));
                        let t0 = Instant::now();
                        let reply = client.round_trip(&line);
                        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                        drop(span);
                        out.push(
                            reply
                                .and_then(|r| check_reply(&r, &refs[e]))
                                .map(|(compile_ms, warm, coalesced)| Sample {
                                    class,
                                    latency_ms,
                                    compile_ms,
                                    warm,
                                    coalesced,
                                })
                                .map_err(|err| format!("{}: {err}", catalog[e].name)),
                        );
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| vec![Err("client thread panicked".to_string())])
            })
            .collect()
    });
    results.into_iter().flatten().collect()
}

/// Reads the daemon's cumulative cache counters (`stats` op) and its memo
/// occupancy and evictions (`metrics` op).
fn scrape(client: &mut Client) -> Result<Scrape, String> {
    let stats = client.query("stats")?;
    let metrics = client.query("metrics")?;
    let cache = |k: &str| {
        stats
            .get("cache")
            .and_then(|c| c.get(k))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("stats reply lacks cache.{k}"))
    };
    let gauge = |k: &str| {
        metrics
            .get("gauges")
            .and_then(|g| g.get(k))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metrics reply lacks gauge {k}"))
    };
    Ok(Scrape {
        hits: cache("hits")?,
        misses: cache("misses")?,
        evictions: gauge("dhpf_serve_memo_evictions")?,
        memo_entries: gauge("dhpf_serve_memo_resident")?,
    })
}

fn frac(samples: &[&Sample], f: impl Fn(&Sample) -> bool) -> f64 {
    samples.iter().filter(|s| f(s)).count() as f64 / samples.len().max(1) as f64
}

pub fn run(args: &Args) -> Result<Report, String> {
    let catalog = kernels::catalog()?;
    let (mut setup, setup_s) = harness::setup(|| set_up(&catalog))?;
    let mut stream = Stream::new(args.seed, &catalog);
    let m: Measured<PassData> = harness::measure(args.seconds, args.trace, |_, trace| {
        let batch = stream.next_block(&catalog);
        let mut pass = Pass::new(PassData::default());
        let before = trace.map(|_| scrape(&mut setup.clients[0]));
        let t0 = Instant::now();
        for _ in 0..PROBES {
            pass.probe(CLIENTS);
        }
        let results = serve_batch(&mut setup, &catalog, &batch, trace);
        pass.wall_s = t0.elapsed().as_secs_f64();
        if let Some(before) = before {
            match before.and_then(|b| scrape(&mut setup.clients[0]).map(|a| (b, a))) {
                Ok(s) => pass.data.scrape = Some(s),
                Err(e) => pass.failures.push(format!("scrape: {e}")),
            }
        }
        pass.attempted = results.len() as u64;
        for r in results {
            match r {
                Ok(s) => {
                    pass.op_ms.push(s.latency_ms);
                    pass.data.samples.push(s);
                }
                Err(e) => pass.failures.push(e),
            }
        }
        pass
    });
    let all: Vec<&Sample> = m.passes().flat_map(|p| p.data.samples.iter()).collect();
    let shares = [
        ("repeat", frac(&all, |s| s.class == Class::Repeat)),
        ("near_dup", frac(&all, |s| s.class == Class::NearDup)),
        ("unseen", frac(&all, |s| s.class == Class::Unseen)),
    ];
    let layers = if args.trace {
        traced_layers(&m, &shares)
    } else {
        Layers::new()
    };
    let (e2e, tail) = harness::end_to_end(&setup_s, &m);
    let mut share_obj = Obj::new();
    for (k, v) in shares {
        share_obj = share_obj.raw(k, &record::number(v));
    }
    let detail = Obj::new()
        .u64("passes", m.plain.len() as u64)
        .u64("traced_passes", m.traced.len() as u64)
        .obj("pooled_tail", record::tail_obj(tail))
        .u64("serve_seed", args.seed)
        .u64("catalog_entries", catalog.len() as u64)
        .u64("cache_cap", CACHE_CAP as u64)
        .u64("clients", CLIENTS as u64)
        .u64("block", stream.block.len() as u64)
        .obj("stream_shares", share_obj)
        .raw("warm_frac", &record::number(frac(&all, |s| s.warm)))
        .raw(
            "coalesced_frac",
            &record::number(frac(&all, |s| s.coalesced)),
        );
    Ok(record::report(args, &setup_s, &m, e2e, layers, detail))
}

fn traced_layers(m: &Measured<PassData>, shares: &[(&str, f64); 3]) -> Layers {
    let per_pass: Vec<Layers> = m
        .traced
        .iter()
        .map(|(p, _)| {
            let mut l = Layers::new();
            let samples: Vec<&Sample> = p.data.samples.iter().collect();
            let compile: Vec<f64> = samples.iter().map(|s| s.compile_ms).collect();
            let overhead: Vec<f64> = samples
                .iter()
                .map(|s| s.latency_ms - s.compile_ms)
                .collect();
            l.set("serve.compile_ms_p50", stats::median(&compile));
            l.set("serve.overhead_ms_p50", stats::median(&overhead));
            l.set("serve.warm_frac", frac(&samples, |s| s.warm));
            l.set("serve.coalesced_frac", frac(&samples, |s| s.coalesced));
            if let Some((b, a)) = &p.data.scrape {
                let calls = (a.hits - b.hits) + (a.misses - b.misses);
                l.set("omega.calls", calls);
                l.set("omega.misses", a.misses - b.misses);
                if calls > 0.0 {
                    l.set("omega.hit_rate", (a.hits - b.hits) / calls);
                }
                l.set("omega.evictions", a.evictions - b.evictions);
                l.set("omega.memo_entries", a.memo_entries);
            }
            l
        })
        .collect();
    let mut l = Layers::median_of(&per_pass);
    for (k, v) in shares {
        l.set(&format!("serve.{k}_frac"), *v);
    }
    l.set("obs.trace_overhead_frac", m.trace_overhead());
    l
}
