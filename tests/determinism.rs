//! The whole simulation is deterministic: identical seeds and identical
//! construction produce bit-identical results, which is what lets every
//! figure of the paper regenerate exactly.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use lynx::apps::kv::{self, KvStore};
use lynx::core::testbed::{deploy_processor, DeployConfig, Machine};
use lynx::core::{
    BatchPolicy, CacheConfig, CacheOp, CacheProtocol, ControlConfig, FunctionRegistry,
    FunctionSpec, MatchRule, PipelineConfig, TenancyConfig, TenantQuota,
};
use lynx::device::{DelayProcessor, EchoProcessor, GpuSpec, RequestProcessor};
use lynx::net::{HostStack, LinkSpec, Network, Platform, StackKind, StackProfile};
use lynx::sim::{MultiServer, Sim, Telemetry};
use lynx::workload::{
    run_measured, ClosedLoopClient, LoadClient, OpenLoopClient, RunSpec, RunSummary, ZipfKeyGen,
};
use lynx::{FaultAction, FaultPlan, Trigger};

fn run_once(seed: u64) -> RunSummary {
    let mut sim = Sim::new(seed);
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let cfg = DeployConfig {
        mqueues_per_gpu: 4,
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(DelayProcessor::new(Duration::from_micros(80))),
    );
    let host = net.add_host("client", LinkSpec::gbps40());
    let stack = HostStack::new(
        &net,
        host,
        MultiServer::new(2, 1.0),
        StackProfile::of(Platform::Xeon, StackKind::Vma),
    );
    // Poisson arrivals exercise the random stream.
    let client = OpenLoopClient::new(
        stack,
        d.server_addr,
        20_000.0,
        Rc::new(|s| vec![s as u8; 64]),
    );
    run_measured(&mut sim, &[&client], RunSpec::quick())
}

#[test]
fn identical_seeds_reproduce_bit_identical_results() {
    let a = run_once(12345);
    let b = run_once(12345);
    assert_eq!(a.sent, b.sent);
    assert_eq!(a.received, b.received);
    assert_eq!(a.throughput, b.throughput);
    for p in [1.0, 50.0, 99.0, 99.9] {
        assert_eq!(a.latency.percentile(p), b.latency.percentile(p));
    }
    assert_eq!(a.latency.mean(), b.latency.mean());
}

/// One fully-traced closed-loop run of the whole Lynx pipeline,
/// optionally with a fault plan armed.
fn traced_run(seed: u64, faults: bool) -> (Telemetry, RunSummary) {
    let mut sim = Sim::new(seed);
    let telemetry = sim.enable_telemetry();
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let cfg = DeployConfig {
        mqueues_per_gpu: 2,
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(DelayProcessor::new(Duration::from_micros(30))),
    );
    if faults {
        // Recoverable CQE errors on the RDMA write path keep the retry
        // machinery (timers well in the wheel's overflow range) busy.
        sim.enable_faults(FaultPlan::new(seed).rule_limited(
            "rdma.write",
            Trigger::Every {
                period: 40,
                offset: 7,
            },
            FaultAction::CqeError,
            6,
        ));
    }
    let host = net.add_host("client", LinkSpec::gbps40());
    let stack = HostStack::new(
        &net,
        host,
        MultiServer::new(2, 1.0),
        StackProfile::of(Platform::Xeon, StackKind::Vma),
    );
    let client = ClosedLoopClient::new(stack, d.server_addr, 4, Rc::new(|s| vec![s as u8; 64]));
    let summary = run_measured(&mut sim, &[&client], RunSpec::quick());
    assert!(summary.received > 100, "received {}", summary.received);
    if faults {
        assert!(sim.faults_injected() >= 1, "the fault plan must fire");
    }
    (telemetry, summary)
}

/// A same-seed end-to-end run repeats byte for byte, with and without
/// faults: same trace bytes, same counter and gauge snapshots, same
/// summary. This is the guarantee that lets every figure regenerate
/// without shifting by a byte.
#[test]
fn same_seed_traced_runs_are_byte_identical() {
    for faults in [false, true] {
        let (first_t, first_s) = traced_run(4242, faults);
        assert!(first_t.event_count() > 1_000, "trace must be non-trivial");
        let (t, s) = traced_run(4242, faults);
        assert_eq!(
            t.to_jsonl(),
            first_t.to_jsonl(),
            "trace bytes diverge (faults={faults})"
        );
        assert_eq!(t.to_chrome_trace(), first_t.to_chrome_trace());
        assert_eq!(
            t.counters_csv(),
            first_t.counters_csv(),
            "counter snapshots diverge (faults={faults})"
        );
        assert_eq!(t.counters(), first_t.counters());
        assert_eq!(t.gauges(), first_t.gauges());
        assert_eq!(s.sent, first_s.sent);
        assert_eq!(s.received, first_s.received);
        assert_eq!(s.throughput, first_s.throughput);
        for p in [1.0, 50.0, 99.0, 99.9] {
            assert_eq!(s.latency.percentile(p), first_s.latency.percentile(p));
        }
    }
}

// ---------------------------------------------------------------------------
// Golden digests: the event sequence of three fault-free rigs, pinned.
// ---------------------------------------------------------------------------

/// FNV-1a over the counter/gauge snapshot followed by the JSONL trace —
/// a dependency-free fingerprint of everything a run recorded.
fn digest(t: &Telemetry) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in t.counters_csv().bytes().chain(t.to_jsonl().bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn client_stack(net: &Network, name: &str) -> HostStack {
    let host = net.add_host(name, LinkSpec::gbps40());
    HostStack::new(
        net,
        host,
        MultiServer::new(2, 1.0),
        StackProfile::of(Platform::Xeon, StackKind::Vma),
    )
}

/// The kv wire format as a [`CacheProtocol`].
#[derive(Clone, Copy, Debug, Default)]
struct KvWire;

impl CacheProtocol for KvWire {
    fn classify(&self, payload: &[u8]) -> CacheOp {
        match kv::Request::decode(payload) {
            Some(kv::Request::Get { key }) => CacheOp::Get(key),
            Some(kv::Request::Set { key, .. }) => CacheOp::Set(key),
            None => CacheOp::Other,
        }
    }

    fn cacheable_response(&self, response: &[u8]) -> bool {
        matches!(kv::Response::decode(response), Some(kv::Response::Value(_)))
    }
}

/// A kv store behind a fixed per-request accelerator service time.
struct SlowKv(RefCell<KvStore>);

impl fmt::Debug for SlowKv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlowKv").finish_non_exhaustive()
    }
}

impl RequestProcessor for SlowKv {
    fn name(&self) -> &str {
        "slow-kv"
    }

    fn service_time(&self, _request: &[u8]) -> Duration {
        Duration::from_micros(40)
    }

    fn process(&self, request: &[u8]) -> Vec<u8> {
        kv::execute_wire(&mut self.0.borrow_mut(), request)
    }
}

/// Batched two-core pipeline with the SNIC cache and the control plane
/// on: Zipf GETs with every 20th request a SET, from two client hosts so
/// both pipeline shards see load.
fn batched_cache_digest(seed: u64) -> u64 {
    let mut sim = Sim::new(seed);
    let telemetry = sim.enable_telemetry();
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let mut store = KvStore::new(1 << 20);
    for k in 0..200 {
        store.set(format!("key-{k:06}").into_bytes(), vec![0xEE; 24]);
    }
    let cfg = DeployConfig {
        mqueues_per_gpu: 2,
        pipeline: PipelineConfig {
            snic_cores: 2,
            batch: BatchPolicy::Fixed(4),
        },
        control: ControlConfig::default(),
        cache: CacheConfig {
            enabled: true,
            bytes_per_lane: 1 << 12,
            ..CacheConfig::disabled()
        },
        cache_protocol: Some(Rc::new(KvWire)),
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(SlowKv(RefCell::new(store))),
    );
    let clients: Vec<ClosedLoopClient> = (0..2u64)
        .map(|c| {
            let keys = ZipfKeyGen::new(200, 0.99, seed + c);
            ClosedLoopClient::new(
                client_stack(&net, &format!("client-{c}")),
                d.server_addr,
                6,
                Rc::new(move |seq| {
                    let key = keys.key(seq).into_bytes();
                    if seq % 20 == 19 {
                        kv::Request::Set {
                            key,
                            val: vec![seq as u8; 24],
                        }
                    } else {
                        kv::Request::Get { key }
                    }
                    .encode()
                }),
            )
        })
        .collect();
    let refs: Vec<&dyn LoadClient> = clients.iter().map(|c| c as &dyn LoadClient).collect();
    let summary = run_measured(&mut sim, &refs, RunSpec::quick());
    assert!(summary.received > 100, "received {}", summary.received);
    let stats = d.server.cache_stats();
    assert!(stats.hits > 0 && stats.fills > 0 && stats.invalidations > 0);
    digest(&telemetry)
}

/// Unbatched echo with the tenancy stage on: a client sweeping 24
/// functions through an 8-slot residency budget (cold starts, LRU churn)
/// and one hammering a quota-zero function.
fn tenancy_digest(seed: u64) -> u64 {
    const FUNCS: u32 = 24;
    let mut sim = Sim::new(seed);
    let telemetry = sim.enable_telemetry();
    let net = Network::new();
    let machine = Machine::new(&net, "server-0");
    let gpu = machine.add_gpu(GpuSpec::k40m());
    let mut reg = FunctionRegistry::new();
    for k in 0..=FUNCS {
        let quota = if k == FUNCS {
            TenantQuota::zero()
        } else {
            TenantQuota::unlimited()
        };
        reg.register(
            FunctionSpec::new(format!("fn-{k}"), MatchRule::FnKey(k))
                .footprint(4096)
                .quota(quota),
        )
        .expect("unique keys");
    }
    let cfg = DeployConfig {
        mqueues_per_gpu: 2,
        tenancy: Some((
            TenancyConfig {
                enabled: true,
                accel_memory_bytes: 8 * 4096,
                cold_start: Duration::from_micros(100),
            },
            reg,
        )),
        ..DeployConfig::default()
    };
    let d = deploy_processor(
        &mut sim,
        &net,
        &machine,
        &[machine.gpu_site(&gpu)],
        &cfg,
        Rc::new(EchoProcessor),
    );
    let payload = |k: u32, seq: u64| {
        let mut p = k.to_le_bytes().to_vec();
        p.push(seq as u8);
        p.resize(16, 0x5A);
        p
    };
    let sweep = ClosedLoopClient::new(
        client_stack(&net, "client-sweep"),
        d.server_addr,
        4,
        Rc::new(move |s| payload((s % u64::from(FUNCS)) as u32, s)),
    );
    let banned = ClosedLoopClient::new(
        client_stack(&net, "client-banned"),
        d.server_addr,
        2,
        Rc::new(move |s| payload(FUNCS, s)),
    );
    let _ = run_measured(
        &mut sim,
        &[&sweep as &dyn LoadClient, &banned],
        RunSpec::quick(),
    );
    let st = d.server.tenancy_stats();
    assert!(st.cold_starts > 0 && st.evictions > 0 && st.shed > 0);
    digest(&telemetry)
}

/// Golden digests of three fault-free event sequences. Any change to
/// them — a reordered trace event, a counter off by one — changes a
/// digest, so a refactor that claims to keep behaviour must keep these
/// numbers; a change to the simulated model re-records them and says why.
///
/// Last re-recorded when the scheduler observer's `sched.pending` and
/// `sched.near_frac` gauges were deleted: the new values equal the old
/// digests computed with those two gauge rows left out.
#[test]
fn fault_free_event_sequences_match_golden_digests() {
    let (echo, _) = traced_run(4242, false);
    let got = [
        ("unbatched echo", digest(&echo)),
        ("batched cache", batched_cache_digest(4242)),
        ("tenancy", tenancy_digest(4242)),
    ];
    let want = [
        ("unbatched echo", 17_980_625_673_033_451_755),
        ("batched cache", 14_846_610_680_812_027_808),
        ("tenancy", 17_972_162_130_573_475_646),
    ];
    assert_eq!(got, want, "fault-free event sequence changed");
}

#[test]
fn different_seeds_diverge() {
    let a = run_once(1);
    let b = run_once(2);
    // Poisson arrival times differ, so the sampled latencies differ.
    assert!(
        a.latency.mean() != b.latency.mean() || a.sent != b.sent,
        "different seeds should explore different arrival sequences"
    );
}
