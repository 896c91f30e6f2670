//! The service workload: closed-loop TCP clients in front of `PacService`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use pacsrv::wire::{Frame, Request, Response};
use pacsrv::{LocalClient, PacService, TcpClient};
use pactree::PacTree;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ycsb::workload::Op;

use crate::check::{self, value_of};
use crate::embedded::{elapsed_ns, insert_ids, LoadOut};
use crate::window::{Control, Phase};
use crate::{thread_seed, Spec};

pub type Service = PacService<Arc<PacTree>>;

/// Operations per request frame.
pub const BATCH: usize = 8;

/// One request batch: the requests plus, per slot, the key id and whether
/// it is a put.
pub struct Batch {
    pub reqs: Vec<Request>,
    pub ids: Vec<u64>,
    pub puts: Vec<bool>,
}

/// Draws the next batch. YCSB updates become puts of the loaded value, so
/// every get still knows its answer.
pub fn next_batch(
    spec: &Spec,
    workload: &ycsb::Workload,
    rng: &mut StdRng,
    next_insert: &mut impl FnMut() -> u64,
) -> Batch {
    let mut b = Batch {
        reqs: Vec::with_capacity(BATCH),
        ids: Vec::with_capacity(BATCH),
        puts: Vec::with_capacity(BATCH),
    };
    for _ in 0..BATCH {
        let (req, id, put) = match workload.next_op(rng, next_insert) {
            Op::Read(id) => (
                Request::Get {
                    key: spec.space.encode(id),
                },
                id,
                false,
            ),
            Op::Update(id) | Op::Insert(id) => (
                Request::Put {
                    key: spec.space.encode(id),
                    value: value_of(id),
                },
                id,
                true,
            ),
            Op::Scan(id, n) => (
                Request::Scan {
                    start: spec.space.encode(id),
                    count: n as u32,
                },
                id,
                false,
            ),
        };
        b.reqs.push(req);
        b.ids.push(id);
        b.puts.push(put);
    }
    b
}

/// One client connection of the service workload. The extra phase calls
/// the same service in process (`LocalClient::call_direct`).
#[allow(clippy::too_many_arguments)]
pub fn client_thread(
    spec: &Spec,
    service: &Arc<Service>,
    addr: SocketAddr,
    ctl: &Control,
    seed: u64,
    t: usize,
    inject_wrong: bool,
    extra: bool,
) -> LoadOut {
    let workload = spec.workload();
    let mut rng = StdRng::seed_from_u64(thread_seed(seed, t));
    let mut next_insert = insert_ids(spec.preload, t, spec.threads);
    let mut tcp = TcpClient::connect(addr).expect("connect to the benchmark's own server");
    let local = LocalClient::new(Arc::clone(service));
    let mut out = LoadOut::default();
    let mut corrupt_next = inject_wrong && t == 0;
    ctl.run_load(
        |phase, slice| {
            let record = phase == Phase::Window;
            let traced = ctl.traced(slice);
            let gen_start = Instant::now();
            let Batch { reqs, ids, puts } = next_batch(spec, &workload, &mut rng, &mut next_insert);
            if record && traced {
                out.gen_ns += gen_start.elapsed().as_nanos() as u64;
                out.depth_sum += service.queue_depth() as u64;
                out.depth_samples += 1;
            }
            let start = Instant::now();
            let resps = if phase == Phase::Extra {
                Ok(local.call_direct(reqs))
            } else {
                tcp.call(reqs)
            };
            let ns = elapsed_ns(start);
            let mut resps = match resps {
                Ok(r) => r,
                Err(_) => {
                    // Transport error: every op of the batch failed.
                    let _ = tcp.reconnect();
                    Vec::new()
                }
            };
            if record && std::mem::take(&mut corrupt_next) && !resps.is_empty() {
                resps[0] = Response::Overloaded;
            }
            for (i, (&id, &put)) in ids.iter().zip(&puts).enumerate() {
                out.tally
                    .record(resps.get(i).is_some_and(|r| check::reply_ok(put, id, r)));
            }
            match phase {
                Phase::Window => out.record(slice, puts.contains(&true), ns, BATCH as u64),
                Phase::Extra => out.extra_ns.push(ns),
                _ => {}
            }
        },
        extra,
    );
    out
}

/// Mean encode and decode time per frame, in ns, over request frames drawn
/// from the workload and the reply frames that answer them.
pub fn wire_cost(spec: &Spec, seed: u64, frames: usize) -> (f64, f64) {
    let workload = spec.workload();
    let mut rng = StdRng::seed_from_u64(thread_seed(seed, usize::MAX));
    let mut next_insert = insert_ids(spec.preload, 0, 1);
    let mut all = Vec::with_capacity(2 * frames);
    for i in 0..frames as u64 {
        let b = next_batch(spec, &workload, &mut rng, &mut next_insert);
        let resps = b
            .reqs
            .iter()
            .zip(&b.ids)
            .map(|(r, &id)| match r {
                Request::Get { .. } => Response::Value(Some(value_of(id))),
                Request::Scan { count, .. } => Response::ScanCount(*count),
                _ => Response::Ok,
            })
            .collect();
        all.push(Frame::Request {
            id: i,
            trace: obsv::trace::TraceCtx::UNTRACED,
            reqs: b.reqs,
        });
        all.push(Frame::Reply { id: i, resps });
    }
    // One contiguous buffer, as a connection's byte stream would hold them.
    let mut bytes = Vec::with_capacity(all.len() * 256);
    let start = Instant::now();
    for f in &all {
        pacsrv::encode_frame(f, &mut bytes);
    }
    let encode = start.elapsed().as_nanos() as f64 / all.len() as f64;
    let start = Instant::now();
    let (mut at, mut decoded) = (0, 0);
    while let Ok((frame, n)) = pacsrv::decode_frame(&bytes[at..]) {
        std::hint::black_box(frame);
        at += n;
        decoded += 1;
    }
    let decode = start.elapsed().as_nanos() as f64 / all.len() as f64;
    assert_eq!(decoded, all.len(), "every encoded frame decodes");
    (encode, decode)
}
