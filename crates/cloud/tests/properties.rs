//! Property-based tests of the queue simulator and the fair-share queue:
//! conservation laws, schedule validity, queue-accounting invariants under
//! arbitrary workloads, and the equivalence suite pinning the indexed
//! [`FairShareQueue`] to the retained linear-scan reference implementation
//! (bit-identical pop sequences and balances over random op interleavings).

use proptest::prelude::*;
use qoncord_cloud::device::{hypothetical_fleet, CloudDevice};
use qoncord_cloud::fairshare::{FairShareQueue, QueuedRequest};
use qoncord_cloud::policy::{merge_shard_results, place_job, split_restarts, Policy};
use qoncord_cloud::reference::ReferenceFairShareQueue;
use qoncord_cloud::sim::simulate;
use qoncord_cloud::workload::{generate_workload, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Builds a queue holding `ids` as requests spread over a small user pool,
/// each bound to device `id % 2`.
fn queue_of(ids: &[usize]) -> FairShareQueue {
    let mut q = FairShareQueue::new();
    for &id in ids {
        q.push_for_device(
            QueuedRequest {
                id,
                user: format!("user-{}", id % 3),
                requested_seconds: 1.0 + id as f64,
                submitted_at: id as f64,
            },
            id % 2,
        )
        .expect("finite fields and unique ids");
    }
    q
}

/// Sum of in-flight slots across every user the queue has seen.
fn total_in_flight(q: &FairShareQueue, users: usize) -> u32 {
    (0..users)
        .map(|u| q.usage(&format!("user-{u}")).jobs_in_flight)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every policy completes every job, with completion ≥ arrival, and
    /// total busy time consistent with executed circuits.
    #[test]
    fn simulation_conservation_laws(
        vqa_ratio in 0.0..1.0f64,
        n_jobs in 20..120usize,
        seed in 0..1000u64,
    ) {
        let jobs = generate_workload(&WorkloadConfig {
            n_jobs,
            vqa_ratio,
            seed,
            ..WorkloadConfig::default()
        });
        let fleet = hypothetical_fleet(6, 0.3, 0.9);
        for policy in Policy::all() {
            let r = simulate(policy, &jobs, &fleet, seed);
            prop_assert_eq!(r.outcomes.len(), jobs.len());
            for (o, j) in r.outcomes.iter().zip(&jobs) {
                prop_assert!(o.completion >= j.arrival - 1e-9,
                    "{policy}: completion before arrival");
                prop_assert!((0.0..=1.0).contains(&o.fidelity));
            }
            prop_assert!(r.executed_circuits >= r.useful_circuits || r.useful_circuits == 0);
            let busy: f64 = r.device_busy.iter().sum();
            prop_assert!(busy > 0.0);
            prop_assert!(r.makespan > 0.0);
        }
    }

    /// Accounting invariants of the simulator itself: useful work never
    /// exceeds executed work, no device is busy past the makespan, and
    /// throughput is a finite non-negative rate.
    #[test]
    fn simulation_accounting_invariants(
        vqa_ratio in 0.0..1.0f64,
        n_jobs in 1..80usize,
        n_devices in 2..8usize,
        seed in 0..1000u64,
    ) {
        let jobs = generate_workload(&WorkloadConfig {
            n_jobs,
            vqa_ratio,
            seed,
            ..WorkloadConfig::default()
        });
        let fleet = hypothetical_fleet(n_devices, 0.3, 0.9);
        for policy in Policy::all() {
            let r = simulate(policy, &jobs, &fleet, seed);
            prop_assert!(r.useful_circuits <= r.executed_circuits,
                "{policy}: useful {} > executed {}", r.useful_circuits, r.executed_circuits);
            for (i, busy) in r.device_busy.iter().enumerate() {
                prop_assert!(*busy <= r.makespan + 1e-6,
                    "{policy}: device {i} busy {busy} exceeds makespan {}", r.makespan);
            }
            for u in r.utilization() {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "{policy}: utilization {u}");
            }
            let throughput = r.throughput();
            prop_assert!(throughput.is_finite(), "{policy}: throughput {throughput}");
            prop_assert!(throughput >= 0.0, "{policy}: throughput {throughput}");
        }
    }

    /// A pop that finds nothing is a pure no-op: a device with nothing
    /// queued, a device holding only a hold, and an id that is not queued
    /// return nothing, the queue keeps its length, and no in-flight slot is
    /// released — and on an empty queue every operation is trivially inert.
    #[test]
    fn all_filtered_pop_and_cancel_are_noops(n in 0..24usize) {
        let ids: Vec<usize> = (0..n).collect();
        let mut q = queue_of(&ids);
        prop_assert_eq!(total_in_flight(&q, 3) as usize, n, "push tracks in-flight");
        let hold = QueuedRequest {
            id: 100,
            user: "user-0".into(),
            requested_seconds: 2.0,
            submitted_at: 0.0,
        };
        q.push_hold(hold, 3).unwrap();
        let in_flight_before = total_in_flight(&q, 3);
        prop_assert_eq!(in_flight_before as usize, n + 1, "a hold takes a slot");

        prop_assert!(q.pop_for_device(2).is_none(), "nothing queued");
        prop_assert!(q.pop_for_device(3).is_none(), "only a hold queued");
        prop_assert!(q.pop_by_id(n).is_none());
        prop_assert!(q.cancel_by_id(n).is_none());
        prop_assert_eq!(q.len(), n + 1);
        prop_assert_eq!(total_in_flight(&q, 3), in_flight_before);

        // Empty-queue edge: drain everything, then poke the empty queue.
        for d in 0..2 {
            while q.pop_for_device(d).is_some() {
                prop_assert_eq!(total_in_flight(&q, 3) as usize, q.len(), "one slot per pop");
            }
        }
        prop_assert!(q.cancel_by_id(100).is_some(), "the hold outlives the drain");
        prop_assert!(q.is_empty());
        for d in 0..4 {
            prop_assert!(q.pop_for_device(d).is_none());
        }
        prop_assert!(q.pop_by_id(0).is_none());
        prop_assert!(q.cancel_by_id(100).is_none());
        prop_assert_eq!(total_in_flight(&q, 3), 0, "drain released every slot");
    }

    /// Cancelling an entry that was already popped neither removes anything
    /// else nor double-releases the popped request's in-flight slot.
    #[test]
    fn cancel_of_already_popped_entry_is_inert(n in 1..24usize, pick in 0..24usize) {
        let ids: Vec<usize> = (0..n).collect();
        let mut q = queue_of(&ids);
        let target = pick % n;
        let popped = q.pop_by_id(target).expect("target is queued");
        prop_assert_eq!(popped.id, target);
        let len_after_pop = q.len();
        let in_flight_after_pop = total_in_flight(&q, 3);
        prop_assert_eq!(in_flight_after_pop as usize, n - 1, "the pop released its slot once");

        prop_assert!(q.cancel_by_id(target).is_none(), "the entry is gone already");
        prop_assert!(q.pop_by_id(target).is_none());
        prop_assert_eq!(q.len(), len_after_pop);
        prop_assert_eq!(total_in_flight(&q, 3), in_flight_after_pop,
            "no double release of the popped slot");

        // Cancelling every id still accounts each queued one exactly once.
        let swept = ids.iter().filter_map(|&id| q.cancel_by_id(id)).count();
        prop_assert_eq!(swept, n - 1);
        prop_assert_eq!(total_in_flight(&q, 3), 0);
    }

    /// Under any interleaving of device pops, id pops and cancels, in-flight
    /// slots equal the number of requests still pending.
    #[test]
    fn in_flight_always_matches_pending(
        n in 0..24usize,
        ops in proptest::collection::vec((0..3u8, 0..24usize), 0..32),
    ) {
        let ids: Vec<usize> = (0..n).collect();
        let mut q = queue_of(&ids);
        for (op, arg) in ops {
            match op {
                0 => { q.pop_for_device(arg % 3); }
                1 => { q.pop_by_id(arg); }
                _ => { q.cancel_by_id(arg); }
            }
            prop_assert_eq!(total_in_flight(&q, 3) as usize, q.len());
        }
    }

    /// Invariants of QuSplit-style shard placement: shard widths sum to the
    /// restart count, no shard lands on a device below the job's tier, the
    /// fan-out bound holds, and the assigned indices form exactly the
    /// permutation `0..n_restarts`.
    #[test]
    fn split_placement_invariants(
        n_devices in 2..8usize,
        n_restarts in 0..40usize,
        max_fanout in 1..6usize,
        tier_floor in 0.2..0.95f64,
        seconds_per_restart in 0.0..20.0f64,
        backlogs in proptest::collection::vec(0.0..50.0f64, 8),
    ) {
        let mut devices = hypothetical_fleet(n_devices, 0.3, 0.9);
        for (device, backlog) in devices.iter_mut().zip(&backlogs) {
            device.schedule(0.0, *backlog);
        }
        let plan = split_restarts(
            &devices, tier_floor, n_restarts, seconds_per_restart, max_fanout, 0.0,
        );
        let eligible = devices.iter().filter(|d| d.fidelity() >= tier_floor).count();
        if eligible == 0 || n_restarts == 0 {
            prop_assert!(plan.is_empty());
        } else {
            prop_assert!(!plan.is_empty());
            let width_sum: usize = plan.iter().map(|s| s.width()).sum();
            prop_assert_eq!(width_sum, n_restarts, "shard widths sum to the restart count");
            prop_assert!(plan.len() <= max_fanout.min(eligible));
            for shard in &plan {
                let device = devices.iter().find(|d| d.id() == shard.device)
                    .expect("plan references a real device");
                prop_assert!(device.fidelity() >= tier_floor,
                    "shard landed below the job's tier");
                prop_assert!(shard.restarts.windows(2).all(|w| w[0] < w[1]),
                    "shard restart lists are ascending");
            }
            // The union of the shards is exactly 0..n_restarts.
            let merged = merge_shard_results(
                plan.iter().flat_map(|s| s.restarts.iter().map(|&r| (r, r))),
                n_restarts,
            );
            prop_assert_eq!(merged, Some((0..n_restarts).collect::<Vec<_>>()));
        }
    }

    /// Merging shard results is order-independent: any shuffle of the
    /// per-restart outcomes reassembles into the same restart-ordered list.
    #[test]
    fn shard_merge_is_order_independent(
        n_restarts in 1..40usize,
        n_shards in 1..6usize,
        seed in 0..1000u64,
    ) {
        // Deal restarts round-robin across shards, then flatten shard by
        // shard — already out of restart order — and additionally shuffle.
        let mut outcomes: Vec<(usize, usize)> = (0..n_shards)
            .flat_map(|s| {
                (0..n_restarts)
                    .filter(move |r| r % n_shards == s)
                    .map(|r| (r, r * 10))
            })
            .collect();
        let expected: Vec<usize> = (0..n_restarts).map(|r| r * 10).collect();
        prop_assert_eq!(
            merge_shard_results(outcomes.iter().copied(), n_restarts),
            Some(expected.clone())
        );
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..outcomes.len()).rev() {
            let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
            outcomes.swap(i, j);
        }
        prop_assert_eq!(
            merge_shard_results(outcomes.iter().copied(), n_restarts),
            Some(expected)
        );
        // Dropping any single outcome breaks the permutation and the merge
        // refuses rather than misattributing.
        let partial = &outcomes[1..];
        prop_assert_eq!(merge_shard_results(partial.iter().copied(), n_restarts), None);
    }

    /// The decay-aware queue projection matches the fair-share queue's own
    /// pop order on random balances: the seconds
    /// `FairShareQueue::projected_backlog_for` ranks ahead of a probe are
    /// exactly those a *decayed copy* of the queue pops from the device
    /// before the probe, once pushed there — the contract that lets
    /// admission-time feasibility reason about queue position without
    /// running the dispatcher. Every probe tenant and size is tried.
    #[test]
    fn projected_queue_order_matches_pop_order(
        balances in proptest::collection::vec(0.0..500.0f64, 4),
        requests in proptest::collection::vec((0usize..4, 0..4u8), 1..24),
        decay_tenths in 0..11u32,
    ) {
        let decay_factor = decay_tenths as f64 / 10.0;
        let size = |s: u8| [1.0, 2.0, 5.0, 10.0][s as usize];
        let mut q = FairShareQueue::new();
        for (user, balance) in balances.iter().enumerate() {
            q.record_usage(&format!("user-{user}"), *balance).unwrap();
        }
        for (id, (user, s)) in requests.iter().enumerate() {
            let r = QueuedRequest {
                id,
                user: format!("user-{user}"),
                // Sizes from a small discrete set, submission times shared
                // by consecutive triples: full score-and-time ties (which
                // real dispatch breaks by insertion order) are reachable.
                requested_seconds: size(*s),
                submitted_at: (id / 3) as f64,
            };
            q.push_for_device(r, 0).unwrap();
        }
        for (tenant, s) in (0..4).flat_map(|t| (0..4u8).map(move |s| (t, s))) {
            let probe = QueuedRequest {
                id: usize::MAX,
                user: format!("user-{tenant}"),
                requested_seconds: size(s),
                submitted_at: (requests.len() / 3) as f64,
            };
            let projected = q.projected_backlog_for(&probe, 0.0, decay_factor, 1, &[0]);
            let mut realized = q.clone();
            realized.decay_usage(decay_factor).unwrap();
            realized.push_for_device(probe.clone(), 0).unwrap();
            let popped = std::iter::from_fn(|| realized.pop_for_device(0))
                .take_while(|r| r.id != probe.id)
                .fold(0.0, |sum, r| sum + r.requested_seconds);
            prop_assert_eq!(projected[0].to_bits(), popped.to_bits(), "{:?}", probe);
        }
    }

    /// Every policy places a job on one or two devices, whatever the fleet:
    /// the bound that caps an orchestrated job's device ladder at two rungs.
    #[test]
    fn every_policy_places_on_at_most_two_devices(
        fleet in proptest::collection::vec(
            (
                0.05..1.0f64,
                0.25..4.0f64,
                proptest::collection::vec((0.0..20.0f64, 0.1..5.0f64), 0..4),
            ),
            1..13,
        ),
        vqa in 0..2u8,
        total_circuits in 1..5000u64,
        now in 0.0..25.0f64,
        seed in 0..1000u64,
    ) {
        let devices: Vec<CloudDevice> = fleet
            .iter()
            .enumerate()
            .map(|(id, (fidelity, speed, busy))| {
                let mut device = CloudDevice::new(id, *fidelity, *speed);
                for &(release, duration) in busy {
                    device.schedule(release, duration);
                }
                device
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for policy in Policy::all() {
            let placements =
                place_job(policy, &devices, total_circuits, vqa == 1, now, &mut rng);
            prop_assert!((1..=2).contains(&placements.len()), "{policy:?}: {placements:?}");
            prop_assert!(placements.iter().all(|p| p.device < devices.len()));
        }
    }

    /// Device schedules never overlap: committed busy time within any
    /// window cannot exceed the window length.
    #[test]
    fn device_schedule_is_non_overlapping(
        durations in proptest::collection::vec(0.1..5.0f64, 1..30),
        releases in proptest::collection::vec(0.0..20.0f64, 1..30),
    ) {
        let mut dev = CloudDevice::new(0, 0.5, 1.0);
        let n = durations.len().min(releases.len());
        let mut total = 0.0;
        for i in 0..n {
            dev.schedule(releases[i], durations[i]);
            total += durations[i];
        }
        prop_assert!((dev.busy_time() - total).abs() < 1e-6,
            "busy {} vs scheduled {}", dev.busy_time(), total);
        prop_assert!(dev.horizon() >= total - 1e-9, "work cannot compress");
    }
}

/// A request with tie-friendly discrete sizes and submission times shared by
/// consecutive pushes, so full score-and-time ties (which dispatch breaks by
/// insertion order) are reachable. The single byte picks both tenant and
/// size. Sizes are deliberately not dyadic: sums of {1, 2, 5, 10} are exact
/// in any order, these are not, so a projection that accumulates a device's
/// seconds out of pop order shows in the last bits.
fn gen_req(id: usize, byte: u8, clock: usize) -> QueuedRequest {
    QueuedRequest {
        id,
        user: format!("user-{}", byte % 4),
        requested_seconds: 0.1 * (byte / 4 % 8) as f64 + 0.037,
        submitted_at: (clock / 2) as f64,
    }
}

/// One admission projection on the indexed queue next to the seed-style
/// oracle — clone the reference queue, credit, decay, enqueue the probe, pop
/// until it surfaces, charging each outranking request to its tagged device
/// (`tags`: id → (1 device | 2 hold, device)) — both as `to_bits` vectors
/// over three devices. `mask` picks the priced devices: 0 all three,
/// otherwise that subset; either is spelled with its first device named
/// twice plus one out of range.
fn projection_vs_oracle(
    q: &FairShareQueue,
    rq: &ReferenceFairShareQueue,
    tags: &HashMap<usize, (u8, usize)>,
    probe: &QueuedRequest,
    credit: f64,
    factor: f64,
    mask: u8,
) -> (Vec<u64>, Vec<u64>) {
    let devices: Vec<usize> = (0..3)
        .filter(|d| mask == 0 || mask & (1 << d) != 0)
        .collect();
    let spelled = [&devices[..], &[devices[0], 3]].concat();
    let ahead = q.projected_backlog_for(probe, credit, factor, 3, &spelled);
    let mut oracle = rq.clone();
    oracle.credit_usage(&probe.user, credit).unwrap();
    oracle.decay_usage(factor).unwrap();
    oracle.push(probe.clone());
    let mut expect = [0.0f64; 3];
    while let Some(r) = oracle.pop() {
        if r.id == probe.id {
            break;
        }
        let (_, d) = tags[&r.id];
        if devices.contains(&d) {
            expect[d] += r.requested_seconds;
        }
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (bits(&ahead), bits(&expect))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The indexed [`FairShareQueue`], driven through the calls the engine
    /// makes, and the retained seed implementation
    /// ([`ReferenceFairShareQueue`]) produce bit-identical behavior over
    /// random op interleavings: every pop and cancel returns the same
    /// requests, lengths track each other after every op, and the final
    /// balances match to the last bit (`f64::to_bits`). The reference queue
    /// has no device lanes, so the test keeps a side table of each id's tag
    /// and expresses a device pop as a predicate pop over the requests bound
    /// to that device — which is exactly what the seed orchestrator did
    /// before the indexed API existed. A request popped and pushed again
    /// must re-enter `pending()` at the back on both sides, and the run ends
    /// by draining every device on both.
    ///
    /// A quarter of the ops are admission projections on the same mutating
    /// queue, each checked bit for bit against the seed-style oracle (clone
    /// the reference, credit, decay, enqueue the probe, pop until it
    /// surfaces). The drain-order index behind the undecayed projection is
    /// refreshed lazily from dirty marks left by every write above, so a
    /// write that forgets its mark surfaces here as a stale answer. Probe
    /// tenants are the queue's own four, so they hold queued requests on the
    /// priced devices.
    #[test]
    fn indexed_queue_matches_reference_on_random_interleavings(
        seed_balances in proptest::collection::vec(0.0..300.0f64, 4),
        ops in proptest::collection::vec((0..16u8, 0..255u8, 0..255u8), 1..48),
    ) {
        let mut q = FairShareQueue::new();
        let mut rq = ReferenceFairShareQueue::new();
        for (user, balance) in seed_balances.iter().enumerate() {
            q.record_usage(&format!("user-{user}"), *balance).unwrap();
            rq.record_usage(&format!("user-{user}"), *balance).unwrap();
        }
        // id -> (kind, device): 1 = device-bound, 2 = hold.
        let mut tags: HashMap<usize, (u8, usize)> = HashMap::new();
        let push = |q: &mut FairShareQueue, r: QueuedRequest, tag: (u8, usize)| match tag {
            (1, d) => q.push_for_device(r, d),
            (_, d) => q.push_hold(r, d),
        };
        let mut next_id = 0usize;
        let mut clock = 0usize;
        for &(code, a, b) in &ops {
            let d = b as usize % 3;
            let id = a as usize % next_id.max(1);
            match code {
                0..=2 => {
                    let r = gen_req(next_id, a, clock);
                    next_id += 1;
                    clock += 1;
                    let tag = (if code == 2 { 2 } else { 1 }, d);
                    push(&mut q, r.clone(), tag).unwrap();
                    tags.insert(r.id, tag);
                    rq.push(r);
                }
                3 | 4 => {
                    let right = rq.pop_where(|r| tags.get(&r.id) == Some(&(1, d)));
                    prop_assert_eq!(q.pop_for_device(d), right);
                }
                5 => {
                    let popped = q.pop_by_id(id);
                    prop_assert_eq!(&popped, &rq.pop_where(|r| r.id == id));
                    if let Some(r) = popped {
                        push(&mut q, r.clone(), tags[&id]).unwrap();
                        rq.push(r);
                        let left: Vec<usize> = q.pending().map(|r| r.id).collect();
                        let right: Vec<usize> = rq.pending().map(|r| r.id).collect();
                        prop_assert_eq!(left, right, "a re-pushed request re-enters at the back");
                    }
                }
                6 => prop_assert_eq!(q.pop_by_id(id), rq.pop_where(|r| r.id == id)),
                7 => {
                    let left: Vec<QueuedRequest> = q.cancel_by_id(id).into_iter().collect();
                    prop_assert_eq!(left, rq.cancel_where(|r| r.id == id));
                }
                8 => {
                    // A batch of releases, one id at a time in queue order.
                    let k = b as usize % 4;
                    let victims: Vec<usize> =
                        q.pending().filter(|r| r.id % 4 == k).map(|r| r.id).collect();
                    let left: Vec<QueuedRequest> =
                        victims.into_iter().filter_map(|id| q.cancel_by_id(id)).collect();
                    prop_assert_eq!(left, rq.cancel_where(|r| r.id % 4 == k));
                }
                9 => {
                    let factor = (a % 11) as f64 / 10.0;
                    q.decay_usage(factor).unwrap();
                    rq.decay_usage(factor).unwrap();
                }
                10 => {
                    let user = format!("user-{}", b % 4);
                    let secs = (a % 60) as f64;
                    if a % 2 == 0 {
                        q.record_usage(&user, secs).unwrap();
                        rq.record_usage(&user, secs).unwrap();
                    } else {
                        q.credit_usage(&user, secs).unwrap();
                        rq.credit_usage(&user, secs).unwrap();
                    }
                }
                11 => {
                    let r = gen_req(next_id, a, clock);
                    next_id += 1;
                    clock += 1;
                    let burned = (b % 30) as f64;
                    tags.insert(r.id, (1, d));
                    q.requeue_with_credit_for_device(r.clone(), d, burned).unwrap();
                    rq.requeue_with_credit(r, burned).unwrap();
                }
                _ => {
                    let credit = (b % 4) as f64 * 7.3;
                    let factor = [1.0, 1.0, 1.0, 0.9][(b / 4 % 4) as usize];
                    for tenant in 0..4 {
                        let probe = QueuedRequest {
                            user: format!("user-{tenant}"),
                            ..gen_req(usize::MAX, a, clock)
                        };
                        let (ahead, expect) = projection_vs_oracle(
                            &q, &rq, &tags, &probe, credit, factor, b / 16 % 8,
                        );
                        prop_assert_eq!(ahead, expect, "probe {:?}", probe);
                    }
                }
            }
            prop_assert_eq!(q.len(), rq.len());
        }
        for user in 0..4 {
            let name = format!("user-{user}");
            let (iu, ru) = (q.usage(&name), rq.usage(&name));
            prop_assert_eq!(
                iu.consumed_seconds.to_bits(), ru.consumed_seconds.to_bits(),
                "balance drift for {}: {} vs {}", name, iu.consumed_seconds, ru.consumed_seconds
            );
            prop_assert_eq!(iu.jobs_in_flight, ru.jobs_in_flight);
        }
        let pending_left: Vec<usize> = q.pending().map(|r| r.id).collect();
        let pending_right: Vec<usize> = rq.pending().map(|r| r.id).collect();
        prop_assert_eq!(pending_left, pending_right);
        for d in 0..3 {
            let left: Vec<QueuedRequest> = std::iter::from_fn(|| q.pop_for_device(d)).collect();
            let right: Vec<QueuedRequest> =
                std::iter::from_fn(|| rq.pop_where(|r| tags.get(&r.id) == Some(&(1, d))))
                    .collect();
            prop_assert_eq!(left, right, "device {} drain", d);
        }
        prop_assert_eq!(q.len(), rq.len(), "only holds are left");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// [`FairShareQueue::projected_backlog_for`] over every device — the
    /// clone-free projection that admission control now consumes — matches
    /// a seed-style oracle bit for bit: clone the reference queue, apply the
    /// same credit and decay, enqueue the probe, and pop until it surfaces,
    /// charging each outranking request to its tagged device. Holds charge
    /// their device's backlog like device-bound requests — on both sides.
    #[test]
    fn projected_backlog_matches_reference_clone_and_drain(
        seed_balances in proptest::collection::vec(0.0..300.0f64, 4),
        requests in proptest::collection::vec((0..4u8, 0..4u8, 0..3u8, 0..3u8), 1..24),
        probe_user in 0..4u8,
        credit_units in 0..40u32,
        decay_tenths in 0..11u32,
    ) {
        let factor = decay_tenths as f64 / 10.0;
        let credit = credit_units as f64 * 5.0;
        let n_devices = 3;
        let mut q = FairShareQueue::new();
        let mut rq = ReferenceFairShareQueue::new();
        for (user, balance) in seed_balances.iter().enumerate() {
            q.record_usage(&format!("user-{user}"), *balance).unwrap();
            rq.record_usage(&format!("user-{user}"), *balance).unwrap();
        }
        for (id, &(user, size, kind, dev)) in requests.iter().enumerate() {
            let r = QueuedRequest {
                id,
                user: format!("user-{user}"),
                requested_seconds: [1.0, 2.0, 5.0, 10.0][size as usize],
                submitted_at: (id / 3) as f64,
            };
            match kind {
                0 | 1 => q.push_for_device(r.clone(), dev as usize).unwrap(),
                _ => q.push_hold(r.clone(), dev as usize).unwrap(),
            }
            rq.push(r);
        }
        let probe = QueuedRequest {
            id: usize::MAX,
            user: format!("user-{probe_user}"),
            requested_seconds: 4.0,
            submitted_at: requests.len() as f64,
        };
        let ahead = q.projected_backlog_for(&probe, credit, factor, n_devices, &[0, 1, 2]);

        let mut oracle = rq.clone();
        oracle.credit_usage(&probe.user, credit).unwrap();
        oracle.decay_usage(factor).unwrap();
        oracle.push(probe.clone());
        let mut expect = vec![0.0f64; n_devices];
        while let Some(r) = oracle.pop() {
            if r.id == probe.id {
                break;
            }
            expect[requests[r.id].3 as usize] += r.requested_seconds;
        }
        let ahead_bits: Vec<u64> = ahead.iter().map(|v| v.to_bits()).collect();
        let expect_bits: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(ahead_bits, expect_bits);
        // The projection never mutates the real queue.
        prop_assert_eq!(q.len(), rq.len());
    }

    /// The rank-query projection under *forced full ties*: every tenant
    /// carries the identical balance, every request the identical size and
    /// submission time, so the cross-tenant key collapses to
    /// `(score, submitted_at, seq)` with score and time equal everywhere —
    /// only the insertion sequence separates requests. Round-robin pushes
    /// interleave the tenants so ties between tenant heads recur at every
    /// drain step, and the probe itself ties with the whole field. The
    /// clone-credit-decay-drain oracle must still agree bit for bit at each
    /// of the decay factors admission control actually uses (1.0 takes the
    /// ready-index fast path; the rest take the per-tenant head-test path).
    /// In debug builds every call additionally cross-checks the ranked
    /// answer against the exact-replay oracle internally.
    #[test]
    fn rank_projection_breaks_full_ties_by_insertion_order(
        n_users in 1..4usize,
        per_user in 1..8usize,
        decay_idx in 0..4usize,
        balance in 0.0..200.0f64,
        credit_units in 0..20u32,
    ) {
        let factor = [1.0, 0.9, 0.5, 0.0][decay_idx];
        let credit = credit_units as f64 * 5.0;
        let n_devices = 3;
        let mut q = FairShareQueue::new();
        let mut rq = ReferenceFairShareQueue::new();
        for user in 0..n_users {
            q.record_usage(&format!("user-{user}"), balance).unwrap();
            rq.record_usage(&format!("user-{user}"), balance).unwrap();
        }
        let mut id = 0usize;
        for _round in 0..per_user {
            for user in 0..n_users {
                let r = QueuedRequest {
                    id,
                    user: format!("user-{user}"),
                    requested_seconds: 5.0,
                    submitted_at: 0.0,
                };
                q.push_for_device(r.clone(), id % n_devices).unwrap();
                rq.push(r);
                id += 1;
            }
        }
        let probe = QueuedRequest {
            id: usize::MAX,
            user: "user-0".to_owned(),
            requested_seconds: 5.0,
            submitted_at: 0.0,
        };
        let ahead = q.projected_backlog_for(&probe, credit, factor, n_devices, &[0, 1, 2]);

        let mut oracle = rq.clone();
        oracle.credit_usage(&probe.user, credit).unwrap();
        oracle.decay_usage(factor).unwrap();
        oracle.push(probe.clone());
        let mut expect = vec![0.0f64; n_devices];
        while let Some(r) = oracle.pop() {
            if r.id == probe.id {
                break;
            }
            expect[r.id % n_devices] += r.requested_seconds;
        }
        let ahead_bits: Vec<u64> = ahead.iter().map(|v| v.to_bits()).collect();
        let expect_bits: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(ahead_bits, expect_bits);
    }

    /// [`FairShareQueue::projected_backlog_for`] restricted to an arbitrary
    /// device subset (duplicates allowed — membership, not iteration,
    /// decides accumulation) agrees bitwise with the all-device one on
    /// every listed device and reports exactly `0.0` for every unlisted
    /// one — the contract that lets admission price only a placement's
    /// devices without changing a single bit of the answer.
    #[test]
    fn filtered_backlog_projection_agrees_with_full(
        seed_balances in proptest::collection::vec(0.0..300.0f64, 4),
        requests in proptest::collection::vec((0..4u8, 0..4u8, 0..3u8, 0..4u8), 1..24),
        subset_mask in 0..16u8,
        probe_user in 0..4u8,
        credit_units in 0..20u32,
        decay_idx in 0..4usize,
    ) {
        let factor = [1.0, 0.9, 0.5, 0.0][decay_idx];
        let credit = credit_units as f64 * 5.0;
        let n_devices = 4;
        let mut q = FairShareQueue::new();
        for (user, balance) in seed_balances.iter().enumerate() {
            q.record_usage(&format!("user-{user}"), *balance).unwrap();
        }
        for (id, &(user, size, kind, dev)) in requests.iter().enumerate() {
            let r = QueuedRequest {
                id,
                user: format!("user-{user}"),
                requested_seconds: [1.0, 2.0, 5.0, 10.0][size as usize],
                submitted_at: (id / 3) as f64,
            };
            match kind {
                0 | 1 => q.push_for_device(r, dev as usize).unwrap(),
                _ => q.push_hold(r, dev as usize).unwrap(),
            }
        }
        let probe = QueuedRequest {
            id: usize::MAX,
            user: format!("user-{probe_user}"),
            requested_seconds: 4.0,
            submitted_at: requests.len() as f64,
        };
        let mut devices: Vec<usize> = (0..n_devices)
            .filter(|d| subset_mask & (1 << d) != 0)
            .collect();
        if let Some(&first) = devices.first() {
            devices.push(first);
        }
        let full = q.projected_backlog_for(&probe, credit, factor, n_devices, &[0, 1, 2, 3]);
        let filtered = q.projected_backlog_for(&probe, credit, factor, n_devices, &devices);
        prop_assert_eq!(filtered.len(), full.len());
        for d in 0..n_devices {
            if devices.contains(&d) {
                prop_assert_eq!(
                    filtered[d].to_bits(), full[d].to_bits(),
                    "device {} listed but differs: {} vs {}", d, filtered[d], full[d]
                );
            } else {
                prop_assert_eq!(
                    filtered[d].to_bits(), 0.0f64.to_bits(),
                    "device {} unlisted but nonzero: {}", d, filtered[d]
                );
            }
        }
    }
}
