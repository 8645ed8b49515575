//! Tracing <-> metrics reconciliation under chaos.
//!
//! A seeded mini-soak against a faulty primary, with full causal
//! tracing on, must tell the *same story* twice: every retry, retry
//! exhaustion, breaker-open transition, and injected fault that the
//! metric counters tally must appear as a trace event, and vice versa.
//! Divergence would mean one of the two observability channels lies.
//!
//! The same run doubles as the SLO-flip witness: a declarative rule on
//! the breaker-state gauge must flip `FacilityHealth` to violated while
//! the breaker is open mid-soak and back to healthy once the facility
//! recovers.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use lsdf_adal::{
    Acl, Adal, BreakerConfig, Credential, ObjectStoreBackend, ResilienceConfig, RetryPolicy,
    StorageBackend, TokenAuth,
};
use lsdf_chaos::{FaultPlan, FaultyBackend};
use lsdf_obs::{names, Registry, SloMonitor, SloRule, TraceConfig, Tracer};
use lsdf_sim::SimRng;
use lsdf_storage::ObjectStore;

const OPS: u64 = 1_500;
const MS: u64 = 1_000_000;

/// Counts trace events by `(event name, fault/to field value)` across
/// every retained trace.
fn event_tallies(tracer: &Tracer) -> BTreeMap<(String, String), u64> {
    let mut tallies: BTreeMap<(String, String), u64> = BTreeMap::new();
    for trace in tracer.traces() {
        trace.root.for_each_event(&mut |_, event| {
            let detail = event
                .fields
                .iter()
                .find(|(k, _)| k == "fault" || k == "to")
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            *tallies.entry((event.name.to_string(), detail)).or_insert(0) += 1;
        });
    }
    tallies
}

#[test]
fn traced_chaos_soak_reconciles_events_with_counters() {
    let seed = 0x15df_0005u64;
    let reg = Arc::new(Registry::new());
    reg.set_virtual_time_ns(1);
    let tracer = Tracer::new(&reg, TraceConfig::full().capacity(100_000).seed(seed));

    let auth = Arc::new(TokenAuth::new());
    auth.register("tok", "operator");
    let acl = Arc::new(Acl::new());
    acl.grant("operator", "soak", true);
    let adal = Adal::builder()
        .auth(auth)
        .acl(acl)
        .registry(reg.clone())
        .tracer(tracer.clone())
        .build();
    let cred = Credential::Token("tok".into());

    // Only the primary is faulty, and with full tracing every primary
    // op runs under an enabled trace context — so chaos decisions are
    // visible to both the counters and the trace events.
    let primary: Arc<dyn StorageBackend> = FaultyBackend::new(
        "soak",
        Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(
            "soak-primary",
            u64::MAX,
        )))),
        FaultPlan::quiet(seed)
            .transient(0.05)
            .torn_writes(0.02)
            .latency_spikes(0.05, 2 * MS)
            .outage(150, 190),
        &reg,
    );
    let replica: Arc<dyn StorageBackend> = Arc::new(ObjectStoreBackend::new(Arc::new(
        ObjectStore::new("soak-replica", u64::MAX),
    )));
    adal.mount_resilient(
        "soak",
        primary,
        Some(replica),
        ResilienceConfig {
            retry: RetryPolicy::new(4, MS, 50 * MS, MS / 2),
            breaker: BreakerConfig {
                window: 16,
                min_calls: 8,
                failure_rate: 0.5,
                cooldown_ns: 10 * MS,
                half_open_probes: 2,
            },
            seed,
            ..ResilienceConfig::default()
        },
    );

    // The SLO under test: the soak project's breaker must be closed.
    let rule = format!("gauge({}{{project=soak}}) == 0", names::ADAL_BREAKER_STATE);
    let monitor = SloMonitor::new(vec![SloRule::parse(&rule).expect("rule parses")]);
    let mut violated_mid_soak = false;

    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut keys: Vec<String> = Vec::new();
    let mut rng = SimRng::seed_from_u64(seed).stream("trace-reconciliation");
    for i in 0..OPS {
        reg.set_virtual_time_ns(1 + i * MS);
        match rng.index(100) {
            0..=54 => {
                let path = format!("lsdf://soak/k/{i:05}");
                let len = rng.range_u64(1, 48) as usize;
                let payload: Vec<u8> = (0..len).map(|_| rng.range_u64(0, 256) as u8).collect();
                if adal.put(&cred, &path, Bytes::from(payload.clone())).is_ok() {
                    keys.push(path.clone());
                    model.insert(path, payload);
                }
            }
            55..=84 if !keys.is_empty() => {
                let path = &keys[rng.index(keys.len())];
                let data = adal
                    .get(&cred, path)
                    .unwrap_or_else(|e| panic!("acked read {path} failed at op {i}: {e}"));
                assert_eq!(&data[..], &model[path.as_str()][..]);
            }
            _ if !keys.is_empty() => {
                let path = &keys[rng.index(keys.len())];
                let meta = adal
                    .stat(&cred, path)
                    .unwrap_or_else(|e| panic!("acked stat {path} failed at op {i}: {e}"));
                assert_eq!(meta.size, model[path.as_str()].len() as u64);
            }
            _ => {}
        }
        if !monitor.evaluate(&reg).healthy {
            violated_mid_soak = true;
        }
    }
    assert!(
        violated_mid_soak,
        "the breaker-state SLO never flipped FacilityHealth to violated under chaos"
    );

    // Recovery: cooldowns expire, journals drain, breaker closes.
    let mut t = 1 + OPS * MS;
    for round in 0..200u64 {
        t += 20 * MS;
        reg.set_virtual_time_ns(t);
        adal.drain_journal("soak");
        if adal.health("soak").map(|h| h.journal_depth) == Some(0) {
            break;
        }
        assert!(round < 199, "journal failed to drain");
    }
    let health = monitor.evaluate(&reg);
    assert!(
        health.healthy,
        "facility must be healthy after recovery: {:?}",
        health.rules
    );

    // Reconciliation: trace events and metric counters agree exactly.
    let tallies = event_tallies(&tracer);
    let tally = |name: &str, detail: &str| {
        tallies
            .get(&(name.to_string(), detail.to_string()))
            .copied()
            .unwrap_or(0)
    };
    let l = [("project", "soak")];
    assert_eq!(
        tally(names::ADAL_RETRY_EVENT, ""),
        reg.counter_value(names::ADAL_RETRIES_TOTAL, &l),
        "retry events vs retry counter"
    );
    assert_eq!(
        tally(names::ADAL_RETRY_EXHAUSTED_EVENT, ""),
        reg.counter_value(names::ADAL_RETRY_EXHAUSTED_TOTAL, &l),
        "retry-exhausted events vs counter"
    );
    for to in ["open", "half_open", "closed"] {
        assert_eq!(
            tally(names::ADAL_BREAKER_TRANSITION_EVENT, to),
            reg.counter_value(
                names::ADAL_BREAKER_TRANSITIONS_TOTAL,
                &[("project", "soak"), ("to", to)]
            ),
            "breaker transitions to {to}"
        );
    }
    for fault in ["transient", "torn_write", "outage", "latency_spike"] {
        assert_eq!(
            tally(names::CHAOS_FAULT_EVENT, fault),
            reg.counter_value(
                names::CHAOS_INJECTED_TOTAL,
                &[("backend", "soak"), ("fault", fault)]
            ),
            "chaos {fault} events vs injected counter"
        );
        assert!(
            tally(names::CHAOS_FAULT_EVENT, fault) >= 1,
            "no {fault} was injected — the soak is vacuous"
        );
    }

    // At least one retained trace tells a full degradation story:
    // retries that exhausted or a breaker that opened.
    let degraded = tracer.traces().into_iter().any(|tr| {
        let mut hit = false;
        tr.root.for_each_event(&mut |_, e| {
            if e.name == names::ADAL_RETRY_EXHAUSTED_EVENT
                || (e.name == names::ADAL_BREAKER_TRANSITION_EVENT
                    && e.fields.iter().any(|(k, v)| k == "to" && v == "open"))
            {
                hit = true;
            }
        });
        hit
    });
    assert!(
        degraded,
        "no trace captured a retry-exhausted or breaker-open event"
    );
}

/// Counts `chaos_fault` trace events per fault kind for one injection
/// backend name.
fn chaos_events(tracer: &Tracer, backend: &str) -> BTreeMap<String, u64> {
    let mut tallies = BTreeMap::new();
    for trace in tracer.traces() {
        trace.root.for_each_event(&mut |_, event| {
            let field = |key: &str| {
                event
                    .fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.as_str())
            };
            if event.name == names::CHAOS_FAULT_EVENT && field("backend") == Some(backend) {
                *tallies.entry(field("fault").unwrap_or_default().to_string()).or_insert(0) += 1;
            }
        });
    }
    tallies
}

/// Replica writes, failover reads, write-once checks and cleanup calls
/// carry the operation's trace context too: a fault injected on the
/// replica is traced exactly as often as it is counted, on the serial
/// and on the parallel primary/replica fan-out.
#[test]
fn replica_faults_reconcile_with_their_trace_events() {
    for workers in [1, 2] {
        let seed = 0x15df_0006u64;
        let reg = Arc::new(Registry::new());
        reg.set_virtual_time_ns(1);
        let tracer = Tracer::new(&reg, TraceConfig::full().capacity(100_000).seed(seed));
        let auth = Arc::new(TokenAuth::new());
        auth.register("tok", "operator");
        let acl = Arc::new(Acl::new());
        acl.grant("operator", "soak", true);
        let adal = Adal::builder()
            .auth(auth)
            .acl(acl)
            .registry(reg.clone())
            .tracer(tracer.clone())
            .workers(workers)
            .build();
        let cred = Credential::Token("tok".into());
        let faulty = |name: &str, outage: (u64, u64)| -> Arc<dyn StorageBackend> {
            let inner = Arc::new(ObjectStoreBackend::new(Arc::new(ObjectStore::new(
                name,
                u64::MAX,
            ))));
            let plan = FaultPlan::quiet(seed)
                .transient(0.05)
                .torn_writes(0.1)
                .latency_spikes(0.05, 2 * MS)
                .outage(outage.0, outage.1);
            FaultyBackend::new(name, inner, plan, &reg)
        };
        adal.mount_resilient(
            "soak",
            faulty("primary", (100, 140)),
            Some(faulty("replica", (20, 60))),
            ResilienceConfig {
                retry: RetryPolicy::new(4, MS, 50 * MS, MS / 2),
                breaker: BreakerConfig {
                    window: 16,
                    min_calls: 8,
                    failure_rate: 0.5,
                    cooldown_ns: 10 * MS,
                    half_open_probes: 2,
                },
                seed,
                ..ResilienceConfig::default()
            },
        );

        // A mixed workload whose outcomes do not matter here: every
        // call that reaches a backend is traced.
        let mut rng = SimRng::seed_from_u64(seed).stream("replica-reconciliation");
        for i in 0..600u64 {
            reg.set_virtual_time_ns(1 + i * MS);
            let path = format!("lsdf://soak/k/{:03}", rng.index(400));
            let _ = match rng.index(10) {
                0..=4 => adal.put(&cred, &path, Bytes::from(vec![i as u8; 16])).map(|_| ()),
                5..=6 => adal.get(&cred, &path).map(|_| ()),
                7 => adal.stat(&cred, &path).map(|_| ()),
                8 => adal.list(&cred, "lsdf://soak/k/").map(|_| ()),
                _ => adal.delete(&cred, &path),
            };
        }
        adal.drain_journal("soak");

        for backend in ["primary", "replica"] {
            let events = chaos_events(&tracer, backend);
            for fault in ["transient", "torn_write", "outage", "latency_spike"] {
                let injected = reg.counter_value(
                    names::CHAOS_INJECTED_TOTAL,
                    &[("backend", backend), ("fault", fault)],
                );
                assert!(injected >= 1, "{workers} workers: no {fault} on {backend}");
                assert_eq!(
                    events.get(fault).copied().unwrap_or(0),
                    injected,
                    "{workers} workers: {backend} {fault} events vs injected counter"
                );
            }
        }
    }
}
