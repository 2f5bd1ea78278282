//! Multi-node deterministic simulation: clients → cluster router → N
//! backend serve nodes, all in memory on one shared virtual clock.
//!
//! Topology per seed: one frontend [`SimNet`] carries every client ↔
//! router connection (with seed-derived delay faults, like the
//! single-node explorer), and each backend gets its *own* [`SimNet`]
//! for router ↔ backend links — so the driver can crash links,
//! partition, or remove exactly one shard at a schedule point while the
//! rest of the cluster keeps serving.
//!
//! The schedule extends the single-node op set with cluster faults:
//!
//! * **link flap** — [`SimNet::kill_all`] on one backend net: every
//!   router↔backend connection dies mid-flight (crash semantics, the
//!   undelivered suffix is lost) but re-dials succeed, so the router
//!   re-places the shard's sessions — possibly on the same node, as a
//!   fresh session warmed up by replay.
//! * **partition** — [`SimNet::partition_for`]: frames stall with no
//!   error until a virtual heal time (a stream transport retransmits
//!   below the frame layer, so nothing is lost — just late); the
//!   prober's liveness probe times out (EOF never comes — this is
//!   exactly what distinguishes a partition from a crash) and the ring
//!   drops the shard until it heals and is re-probed back in. If an
//!   in-flight interval outlives the router's `pending_timeout`, its
//!   session is re-placed before the stall heals.
//! * **leave / join** — membership changes through the router's own
//!   API; consistent hashing bounds the migration churn.
//!
//! The client-facing checker is byte-for-byte the fault-oblivious
//! [`ClientModel`](crate::checker::ClientModel) of the single-node
//! explorer: it knows nothing about shards, placement, or migration.
//! Exactly-once, replay completeness and warm-up arithmetic must hold
//! across every backend fault, and the reply fingerprint must reproduce
//! bitwise for a seed — replies are content-deterministic no matter
//! which shard computed them, because every backend runs the same
//! deterministic model and migration warm-up reconstructs the exact
//! sliding window.

use crate::explorer::{derive_profile, explorer_server_config, fixture, SeedOutcome, World};
use fmml_cluster::{RouterConfig, RouterHandle};
use fmml_fault::ProcessFaultPlan;
use fmml_obs::hash::{fnv_fold, splitmix64, FNV_OFFSET};
use fmml_obs::Clock;
use fmml_serve::{
    spawn_with, FaultProfile, ServerHandle, SimConn, SimConnector, SimNet, WireCodec,
};
use std::sync::Arc;
use std::time::Duration;

/// Knobs for a multi-node simulation run (CLI: `fmml simtest
/// --cluster`).
#[derive(Debug, Clone)]
pub struct ClusterSimConfig {
    /// How many consecutive seeds to explore.
    pub seeds: u64,
    /// First seed.
    pub start_seed: u64,
    /// Concurrent client sessions per seed.
    pub clients: usize,
    /// Backend serve nodes behind the router.
    pub backends: usize,
    /// Schedule length (ops per seed).
    pub ops: usize,
    /// Wire codec clients ask for; the router and every backend prefer
    /// the same one, so a `Bin1` run exercises binary pass-through on
    /// both hops. Fingerprints are codec-independent (delay-only
    /// faults).
    pub wire: WireCodec,
}

impl Default for ClusterSimConfig {
    fn default() -> ClusterSimConfig {
        ClusterSimConfig {
            seeds: 50,
            start_seed: 1,
            clients: 3,
            backends: 3,
            ops: 14,
            wire: WireCodec::Json,
        }
    }
}

/// Outcome of one explored cluster seed: the single-node
/// [`SeedOutcome`] plus cluster-level counters.
#[derive(Debug, Clone)]
pub struct ClusterSeedOutcome {
    pub inner: SeedOutcome,
    /// Sessions re-placed onto another backend (warm-up migrations).
    pub migrations: u64,
    /// Client reconnects resumed from the router's replay log.
    pub resumes: u64,
}

/// Explore `cfg.seeds` consecutive cluster seeds, sequentially.
pub fn run(cfg: &ClusterSimConfig) -> Vec<ClusterSeedOutcome> {
    (cfg.start_seed..cfg.start_seed + cfg.seeds)
        .map(|seed| run_seed(seed, cfg))
        .collect()
}

struct Backend {
    name: String,
    net: SimNet,
    handle: Option<ServerHandle<SimConn>>,
    /// Currently registered with the router (join/leave ops toggle it).
    member: bool,
}

/// Explore one cluster seed.
pub fn run_seed(seed: u64, cfg: &ClusterSimConfig) -> ClusterSeedOutcome {
    let fx = fixture();
    let (clock, vc) = Clock::new_virtual();
    // Distinct salt from the single-node explorer: same seed numbers,
    // different schedules.
    let mut rng = seed ^ 0x0c1a_57e2_9b3d_4f10;

    let front = SimNet::new(seed, clock.clone());
    let mut backends: Vec<Backend> = (0..cfg.backends.max(1))
        .map(|k| {
            let net = SimNet::new(seed.wrapping_add(0xb000 + k as u64), clock.clone());
            let mut server_cfg = explorer_server_config(clock.clone(), ProcessFaultPlan::none());
            server_cfg.wire = cfg.wire;
            let handle = spawn_with(net.transport(), Arc::clone(&fx.model), server_cfg);
            Backend {
                name: format!("b{k}"),
                net,
                handle: Some(handle),
                member: true,
            }
        })
        .collect();

    let router: RouterHandle<SimConn, SimConnector> = fmml_cluster::spawn_with(
        front.transport(),
        RouterConfig {
            ring_seed: seed,
            vnodes: 16,
            replay_window: 4096,
            // Virtual cadence: one probe round per ~200 ms of virtual
            // time, which the driver's idle pump advances.
            probe_interval: Duration::from_millis(200),
            // Virtual patience (the router reads the injected clock for
            // every deadline): a healthy in-memory backend answers a
            // probe before any virtual time passes; only
            // partitions/flaps spend this, and they resolve as the
            // driver's idle pump advances virtual time.
            probe_timeout: Duration::from_millis(30),
            probe_failures: 2,
            dial_timeout: Duration::from_millis(300),
            // Virtual patience before a silently-swallowed frame
            // (partition blackhole) is repaired by re-placement — ~150
            // idle pump iterations at 1 ms of virtual time each.
            pending_timeout: Duration::from_millis(150),
            read_timeout: Duration::from_millis(5),
            parked_ttl: Duration::from_secs(3600),
            wire: cfg.wire,
            clock: clock.clone(),
            ..RouterConfig::default()
        },
    );
    for b in &backends {
        router.add_backend(&b.name, b.net.connector());
    }

    let profile = derive_profile(&mut rng);
    let mut world = World {
        // Router deadlines are virtual, but the router's prober and
        // link threads still need real CPU time between the driver's
        // virtual ticks to observe them: idle pump iterations sleep a
        // sliver of real time purely for thread scheduling.
        real_idle: Duration::from_micros(300),
        stall_limit: 1200,
        ..World::new(front.clone(), Some(Arc::clone(&vc)), cfg.clients, cfg.wire)
    };
    for i in 0..cfg.clients {
        world.handshake(i);
    }
    world.net.set_profile(profile);

    let nb = backends.len();
    for _op in 0..cfg.ops {
        // Exactly three draws per op, unconditionally (schedule is a
        // pure function of the seed).
        let r = splitmix64(&mut rng) % 100;
        let i = (splitmix64(&mut rng) as usize) % cfg.clients.max(1);
        let aux = splitmix64(&mut rng);
        let k = (aux as usize) % nb;
        world.pump_once();
        if r < 30 {
            if world.clients[i].is_alive() || world.handshake(i) {
                world.burst(i, 1 + (aux % 3) as usize);
            }
        } else if r < 45 {
            world.settle();
        } else if r < 55 {
            if world.clients[i].is_alive() {
                world.kill(i);
            }
        } else if r < 65 {
            // Link flap: crash every router<->backend connection on one
            // shard. The backend process survives; its sessions migrate.
            backends[k].net.kill_all();
        } else if r < 75 {
            // Partition one shard for a stretch of virtual time.
            backends[k]
                .net
                .partition_for(Duration::from_millis(100 + aux % 400));
        } else if r < 85 {
            // Membership churn through the router's own API. Never
            // shrink to zero members: placement would stall by design.
            let members = backends.iter().filter(|b| b.member).count();
            if backends[k].member && members >= 2 {
                router.remove_backend(&backends[k].name);
                backends[k].member = false;
            } else if !backends[k].member {
                router.add_backend(&backends[k].name, backends[k].net.connector());
                backends[k].member = true;
            }
        } else if r < 93 {
            if world.clients[i].is_alive() {
                world.advance_small(aux);
            } else {
                world.handshake(i);
            }
        } else {
            if world.clients[i].is_alive() || world.handshake(i) {
                world.send_bad(i);
            }
        }
    }

    // Faultless epilogue: rejoin departed members, let partitions heal
    // (virtual time), drop frontend faults, then drain and check.
    for b in &mut backends {
        if !b.member {
            router.add_backend(&b.name, b.net.connector());
            b.member = true;
        }
    }
    vc.advance(Duration::from_millis(600));
    world.net.set_profile(FaultProfile::none());
    world.final_drain();

    let (migrations, resumes, _replayed) = router.cluster_stats();
    let _ = router.shutdown();
    for b in &mut backends {
        if let Some(h) = b.handle.take() {
            let _ = h.shutdown();
        }
        b.net.close();
    }
    front.close();
    ClusterSeedOutcome {
        inner: world.into_outcome(seed),
        migrations,
        resumes,
    }
}

/// Fold a batch of outcomes into one run fingerprint (for the CLI's
/// double-run reproducibility gate).
pub fn fold_run_fingerprint(outcomes: &[ClusterSeedOutcome]) -> u64 {
    outcomes
        .iter()
        .fold(FNV_OFFSET, |h, o| fnv_fold(h, o.inner.fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ClusterSimConfig {
        ClusterSimConfig {
            seeds: 1,
            start_seed: 1,
            clients: 2,
            backends: 2,
            ops: 10,
            wire: WireCodec::Json,
        }
    }

    /// A correct cluster survives backend kills, partitions and
    /// membership churn with zero violations, and the same seed
    /// reproduces the same fingerprint bitwise.
    #[test]
    fn cluster_seeds_are_violation_free_and_deterministic() {
        let cfg = quick_cfg();
        for seed in [21, 22] {
            let a = run_seed(seed, &cfg);
            assert!(
                a.inner.violations.is_empty(),
                "seed {seed} violations: {:?}",
                a.inner.violations
            );
            let b = run_seed(seed, &cfg);
            assert_eq!(
                a.inner.fingerprint, b.inner.fingerprint,
                "seed {seed} fingerprint not reproducible"
            );
            assert_eq!(a.inner.violations, b.inner.violations);
        }
    }

    /// The wire codec is a transport detail even across router hops:
    /// bin1 runs reproduce the JSON runs' fingerprints bitwise — the
    /// pass-through forwarder never perturbs reply content — and stay
    /// violation-free under the same kill/partition schedules.
    #[test]
    fn bin1_runs_reproduce_json_fingerprints() {
        let json_cfg = quick_cfg();
        let bin_cfg = ClusterSimConfig {
            wire: WireCodec::Bin1,
            ..quick_cfg()
        };
        for seed in [21, 22] {
            let j = run_seed(seed, &json_cfg);
            let b = run_seed(seed, &bin_cfg);
            assert!(
                b.inner.violations.is_empty(),
                "seed {seed} bin1 violations: {:?}",
                b.inner.violations
            );
            assert_eq!(
                j.inner.fingerprint, b.inner.fingerprint,
                "seed {seed} fingerprint depends on the wire codec"
            );
        }
    }
}
