//! `reactor_small`: 32 client futures on 4 reactor shards (one thread),
//! NAND off, Pipelined execution, 32–224 B writes — all inline under the
//! hybrid method.

use crate::common::{vt_layers, vt_stages, Digest, Rng, Round, Sim, Snap};
use crate::spans::Spans;
use byteexpress::driver::{DriverError, FlushPolicy};
use byteexpress::{
    Completion, ExecutionModel, IoOpcode, PassthruCmd, Reactor, ReactorConfig, ShardHandle,
    TransferMethod,
};
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

pub const SHARDS: usize = 4;
pub const CLIENTS: usize = 32;
/// Writes per client per round.
pub const OPS_PER_CLIENT: usize = 4096;
/// LBAs each client owns.
const LBAS_PER_CLIENT: u64 = 4096;

/// One write: target block and payload.
#[derive(Debug, Clone)]
pub struct Write {
    pub lba: u64,
    pub data: Vec<u8>,
}

/// Per-client write streams.
#[derive(Debug)]
pub struct ReactorInputs {
    pub clients: Vec<Rc<Vec<Write>>>,
}

type ClientOut = (Vec<u64>, Vec<u64>, u64);
type Task = Pin<Box<dyn Future<Output = ClientOut>>>;

impl ReactorInputs {
    pub fn generate(seed: u64, per_client: usize) -> Self {
        let clients = (0..CLIENTS as u64)
            .map(|c| {
                let mut rng = Rng::new(seed, 100 + c);
                (0..per_client)
                    .map(|_| {
                        let size = rng.range(32, 224) as usize;
                        Write {
                            lba: c * LBAS_PER_CLIENT + rng.range(0, LBAS_PER_CLIENT - 1),
                            data: rng.bytes(size),
                        }
                    })
                    .collect::<Vec<_>>()
                    .into()
            })
            .collect();
        ReactorInputs { clients }
    }

    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for w in self.clients.iter().flat_map(|c| c.iter()) {
            d.u64(w.lba).bytes(&w.data);
        }
        d.value()
    }

    fn ops(&self) -> u64 {
        self.clients.iter().map(|c| c.len()).sum::<usize>() as u64
    }

    /// Runs one round on a fresh reactor; `spans` turns on host-span timing
    /// and the flight recorder.
    pub fn round(&self, spans: Option<&mut Spans>) -> Round {
        let traced = spans.is_some();
        let t0 = Instant::now();
        let mut reactor = Reactor::new(ReactorConfig {
            shards: SHARDS,
            queues_per_shard: 1,
            nand_io: false,
            execution_model: ExecutionModel::Pipelined,
            flush_policy: Some(FlushPolicy::default()),
            retry_policy: None,
            trace: traced,
            ..ReactorConfig::default()
        })
        .expect("the reactor configuration is static and valid");
        let setup_ns = t0.elapsed().as_nanos() as u64;

        let before = snap(&reactor);
        let stats_before = reactor.stats();
        let v0 = reactor.bus().clock.now();
        // Spans are shared with the client futures, which time their own
        // polls; the recorder is handed back afterwards.
        let shared: Option<Rc<RefCell<Spans>>> =
            spans.as_ref().map(|_| Rc::new(RefCell::new(Spans::new())));
        let tasks: Vec<Task> = self
            .clients
            .iter()
            .enumerate()
            .map(|(i, writes)| {
                let client = Box::pin(client(reactor.handle(i % SHARDS), Rc::clone(writes)));
                match &shared {
                    Some(s) => Box::pin(Timed {
                        inner: client,
                        spans: Rc::clone(s),
                    }) as Task,
                    None => client as Task,
                }
            })
            .collect();
        let w0 = Instant::now();
        let outs = match &shared {
            Some(s) => {
                s.borrow_mut().enter("reactor.run");
                let outs = reactor.run(tasks);
                s.borrow_mut().exit();
                outs
            }
            None => reactor.run(tasks),
        };
        let wall_ns = w0.elapsed().as_nanos() as u64;
        let elapsed_ns = (reactor.bus().clock.now() - v0).as_ns();

        let ops = self.ops();
        let mut host_lat_ns = Vec::with_capacity(ops as usize);
        let mut sim_lat = Vec::with_capacity(ops as usize);
        let mut failed = 0u64;
        for (h, s, f) in outs {
            host_lat_ns.extend(h);
            sim_lat.extend(s);
            failed += f;
        }
        let stats = reactor.stats();
        let after = snap(&reactor);
        // Completions nobody awaited, and commands left in flight, are
        // failures too.
        failed += stats.orphaned - stats_before.orphaned + reactor.inflight() as u64;
        // With NAND off the device keeps no data to read back; instead the
        // controller must have fetched exactly the payload bytes sent.
        let sent: u64 = self
            .clients
            .iter()
            .flat_map(|c| c.iter())
            .map(|w| w.data.len() as u64)
            .sum();
        let landed = after.ctrl.inline_payload_bytes - before.ctrl.inline_payload_bytes;
        if landed != sent {
            failed += 1;
        }

        let mut layers = before.layers(&after, ops);
        layers.insert(
            "reactor.turns_per_op",
            (stats.turns - stats_before.turns) as f64 / ops as f64,
        );
        layers.insert(
            "reactor.idle_advances",
            (stats.idle_advances - stats_before.idle_advances) as f64,
        );
        layers.insert(
            "reactor.orphaned",
            (stats.orphaned - stats_before.orphaned) as f64,
        );
        let mut stage_mismatches = 0;
        if let (Some(out), Some(shared)) = (spans, shared) {
            let c0 = Instant::now();
            let events = reactor.trace().events();
            let mut stages: [Vec<u64>; 3] = Default::default();
            stage_mismatches = vt_stages(&events, &mut stages);
            vt_layers(&mut stages, &mut layers);
            layers.insert("trace.events_per_op", events.len() as f64 / ops as f64);
            let collect_ns = c0.elapsed().as_nanos() as u64;
            layers.insert(
                "bench.trace_collect_ns_per_op",
                collect_ns as f64 / ops as f64,
            );
            *out = Rc::try_unwrap(shared)
                .expect("the client futures are gone")
                .into_inner();
        }
        Round {
            setup_ns,
            wall_ns,
            attempted: ops,
            failed,
            host_lat_ns,
            sim: Sim {
                elapsed_ns,
                lat_ns: sim_lat,
                traffic: after.traffic.since(&before.traffic),
            },
            layers,
            stage_mismatches,
        }
    }
}

fn snap(reactor: &Reactor) -> Snap {
    let ctrl = reactor.controller();
    let ctrl = ctrl.borrow();
    Snap {
        traffic: reactor.bus().traffic(),
        driver: reactor.driver_stats(),
        recovery: reactor.recovery_stats(),
        ctrl: ctrl.stats(),
        ftl: ctrl.ftl_stats(),
        nand: ctrl.nand_stats(),
    }
}

fn write_cmd(w: &Write) -> PassthruCmd {
    let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, w.data.clone());
    cmd.cdw10_15[0] = w.lba as u32;
    cmd.cdw10_15[1] = (w.lba >> 32) as u32;
    cmd
}

/// One closed-loop client: each write is submitted only after the previous
/// one resolved. Returns (host latencies, virtual latencies, failures).
async fn client(handle: ShardHandle, writes: Rc<Vec<Write>>) -> ClientOut {
    let mut host = Vec::with_capacity(writes.len());
    let mut sim = Vec::with_capacity(writes.len());
    let mut failed = 0;
    for w in writes.iter() {
        let t = Instant::now();
        let r: Result<Completion, DriverError> = handle
            .submit(write_cmd(w), TransferMethod::hybrid_default())
            .await;
        host.push(t.elapsed().as_nanos() as u64);
        match r {
            Ok(c) if c.status.is_success() => sim.push(c.latency().as_ns()),
            _ => failed += 1,
        }
    }
    (host, sim, failed)
}

/// Times every poll of a client future as a `reactor.client` span (the
/// client's own work plus the driver submit its command future performs).
struct Timed<F> {
    inner: F,
    spans: Rc<RefCell<Spans>>,
}

impl<F: Future + Unpin> Future for Timed<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = &mut *self;
        this.spans.borrow_mut().enter("reactor.client");
        let r = Pin::new(&mut this.inner).poll(cx);
        this.spans.borrow_mut().exit();
        r
    }
}
