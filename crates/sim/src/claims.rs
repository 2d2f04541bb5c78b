//! The shapes §V argues from, as one table judged over a seed ensemble.
//!
//! Each [`Claim`] runs its scenarios once per seed and returns named
//! quantities. [`evaluate`] runs every claim over [`SEEDS`] on two threads
//! and judges its predicate on the per-quantity medians (nearest rank),
//! with q10, q90 and how many seeds pass on their own. An invariant (a cap,
//! a ceiling, a block count, a rerun that repeats) is asserted inside
//! `measure` on every seed instead, so one violating seed fails the whole
//! evaluation. The tier-1 test and `figures claims` (`results/claims.csv`)
//! read the same verdicts. A quantity `g…` is SMARTH's improvement over
//! HDFS in percent.

use crate::scenario::{contention, heterogeneous, improvement_percent, two_rack};
use crate::{simulate_upload, SimResult, SimScenario};
use smarth_core::config::InstanceType::{self, Large, Medium, Small};
use smarth_core::config::WriteMode::{self, Hdfs, Smarth};
use smarth_core::costmodel::{hdfs_upload_time, CostInputs};
use smarth_core::units::{Bandwidth, ByteSize};

/// The ensemble every claim is judged over, fixed before its first run.
pub const SEEDS: [u64; 12] = [
    2000, 2001, 2002, 2003, 2004, 2005, 2006, 2007, 2008, 2009, 2010, 2011,
];

/// One claim of the paper: `measure` runs its scenarios for one seed and
/// returns one value per name in `quantities`.
pub struct Claim {
    pub id: &'static str,
    /// The figure or section, and what the paper says.
    pub paper: &'static str,
    /// The predicate `holds` tests, and where its band comes from.
    pub band: &'static str,
    pub quantities: &'static [&'static str],
    pub measure: fn(u64) -> Vec<f64>,
    pub holds: fn(&[f64]) -> bool,
}

/// A claim judged over an ensemble, with one entry per quantity.
pub struct Verdict<'a> {
    pub claim: &'a Claim,
    pub median: Vec<f64>,
    pub q10: Vec<f64>,
    pub q90: Vec<f64>,
    /// How many seeds satisfy the predicate on their own quantities.
    pub passing: usize,
    /// The predicate on the medians: the verdict.
    pub holds: bool,
}

/// Nearest-rank quantile of sorted values: `v[round((n − 1)·p)]`.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Judges `claim` on its quantities, one vector per seed.
fn judge<'a>(claim: &'a Claim, per_seed: &[Vec<f64>]) -> Verdict<'a> {
    assert!(per_seed.iter().all(|q| q.len() == claim.quantities.len()), "{}", claim.id);
    let mut columns: Vec<Vec<f64>> = (0..claim.quantities.len())
        .map(|k| per_seed.iter().map(|q| q[k]).collect())
        .collect();
    columns.iter_mut().for_each(|c| c.sort_by(f64::total_cmp));
    let at = |p| columns.iter().map(|c| quantile(c, p)).collect::<Vec<f64>>();
    let (median, q10, q90) = (at(0.5), at(0.1), at(0.9));
    let passing = per_seed.iter().filter(|q| (claim.holds)(q)).count();
    Verdict { claim, holds: (claim.holds)(&median), passing, median, q10, q90 }
}

/// Runs every (claim, seed) once, on two threads, and judges each claim.
pub fn evaluate<'a>(claims: &'a [Claim], seeds: &[u64]) -> Vec<Verdict<'a>> {
    let jobs: Vec<(&Claim, u64)> =
        claims.iter().flat_map(|c| seeds.iter().map(move |&s| (c, s))).collect();
    // Two threads take alternate jobs, so each claim's seeds split evenly.
    let half = |r: usize| -> Vec<Vec<f64>> {
        jobs.iter().skip(r).step_by(2).map(|(c, seed)| (c.measure)(*seed)).collect()
    };
    let [even, odd] = std::thread::scope(|s| {
        [0, 1].map(|r| s.spawn(move || half(r))).map(|h| h.join().expect("a claim panicked"))
    });
    let mut odd = odd.into_iter();
    let per_seed: Vec<Vec<f64>> =
        even.into_iter().flat_map(|q| [Some(q), odd.next()]).flatten().collect();
    claims.iter().zip(per_seed.chunks(seeds.len())).map(|(c, q)| judge(c, q)).collect()
}

fn run(mut s: SimScenario, seed: u64) -> SimResult {
    s.seed = seed;
    simulate_upload(&s)
}

fn secs(s: SimScenario, seed: u64) -> f64 {
    run(s, seed).upload_secs
}

/// SMARTH's improvement over HDFS on one scenario family, in percent.
fn gain(seed: u64, family: impl Fn(WriteMode) -> SimScenario) -> f64 {
    improvement_percent(secs(family(Hdfs), seed), secs(family(Smarth), seed))
}

/// `two_rack` of `gib` GiB with an optional cross-rack throttle in Mbps.
fn rack(i: InstanceType, gib: u64, mbps: Option<f64>, m: WriteMode) -> SimScenario {
    two_rack(i, ByteSize::gib(gib), mbps.map(Bandwidth::mbps), m)
}

/// `contention` on the small cluster: `k` datanodes throttled to `mbps`.
fn slow(gib: u64, k: usize, mbps: f64, m: WriteMode) -> SimScenario {
    contention(Small, ByteSize::gib(gib), k, Bandwidth::mbps(mbps), m)
}

/// The paper's claims. Claims that share runs are one row with several
/// quantities, so each (scenario, seed) runs once.
pub static CLAIMS: [Claim; 9] = [
    Claim {
        id: "homogeneous",
        paper: "§V-B.1: \"no big gain if the cluster's network status is homogeneous\"; \
                HDFS follows Formula (2); no client outruns its NIC (Table I)",
        band: "|gain| < 15 % (Fig. 5 a, c, e read 0 %); 0.9 ≤ sim / Formula (2) at 216 Mbps \
               < 1.4 (the DES adds fill, drain, RPC queueing); every seed: \
               medium ≤ 376 × 1.02 Mbps",
        quantities: &["g_small", "g_medium", "g_large", "hdfs_over_f2"],
        measure: |seed| {
            let [small, medium, large] = [Small, Medium, Large]
                .map(|i| [Hdfs, Smarth].map(|m| run(rack(i, 2, None, m), seed)));
            let nic = medium.each_ref().map(|r| r.throughput_mbps);
            assert!(nic.iter().all(|&t| t <= 376.0 * 1.02), "seed {seed}: {nic:?} Mbps > NIC");
            let gain = |[h, s]: &[SimResult; 2]| improvement_percent(h.upload_secs, s.upload_secs);
            let c = rack(Small, 2, None, Hdfs).config;
            let inputs = CostInputs {
                file_size: ByteSize::gib(2),
                block_size: c.block_size,
                packet_size: c.packet_size,
                t_namenode: c.namenode_rpc_cost,
                t_produce: c.packet_production_cost,
                t_write: c.packet_write_cost,
            };
            let formula2 = hdfs_upload_time(&inputs, Bandwidth::mbps(216.0)).total.as_secs_f64();
            let mut q = [&small, &medium, &large].map(gain).to_vec();
            q.push(small[0].upload_secs / formula2);
            q
        },
        holds: |q| q[..3].iter().all(|g| g.abs() < 15.0) && (0.9..1.4).contains(&q[3]),
    },
    Claim {
        id: "throttle_sweep",
        paper: "Figs. 6, 9: the gain is large at 50 Mbps and falls as the throttle loosens; \
                HDFS follows the throttle; without FNFA's overlap SMARTH loses most of it",
        band: "g50 > 60 % (half the paper's 130 %), g50 > g100 > g150 > 5 %; 0.95 ≤ HDFS / \
               (2 GiB at 50 Mbps) < 1.4; capped to 1, > 1.5× slower; every seed: 2–3 pipelines, \
               capped 1",
        quantities: &["g50", "g100", "g150", "hdfs_over_ideal", "cap1_ratio"],
        measure: |seed| {
            let at = |mbps, m| rack(Small, 2, Some(mbps), m);
            let (h50, full) = (secs(at(50.0, Hdfs), seed), run(at(50.0, Smarth), seed));
            let mut one = at(50.0, Smarth);
            one.config.max_pipelines_override = Some(1);
            let capped = run(one, seed);
            let g50 = improvement_percent(h50, full.upload_secs);
            let [g100, g150] = [100.0, 150.0].map(|t| gain(seed, |m| at(t, m)));
            let over_ideal = h50 / (2.0 * 8.0 * 1024f64.powi(3) / 50e6);
            // FNFA overlaps pipelines up to the cap of 3 (9 nodes / 3 replicas).
            let pipes = [&full, &capped].map(|r| r.max_concurrent_pipelines);
            assert!(matches!(pipes, [2..=3, 1]), "seed {seed}: pipelines {pipes:?}");
            vec![g50, g100, g150, over_ideal, capped.upload_secs / full.upload_secs]
        },
        holds: |q| {
            q[0] > 60.0 && q[0] > q[1] && q[1] > q[2] && q[2] > 5.0
                && (0.95..1.4).contains(&q[3])
                && q[4] > 1.5
        },
    },
    Claim {
        id: "medium_like_large",
        paper: "§V-B.1: medium and large clusters behave alike (100 Mbps, 2 GiB)",
        band: "0.9 ≤ medium / large < 1.1 each; Table I gives both a 376 Mbps NIC",
        quantities: &["hdfs_ratio", "smarth_ratio"],
        measure: |seed| {
            let t = |i, m| secs(rack(i, 2, Some(100.0), m), seed);
            [Hdfs, Smarth].map(|m| t(Medium, m) / t(Large, m)).to_vec()
        },
        holds: |q| q.iter().all(|r| (0.9..1.1).contains(r)),
    },
    Claim {
        id: "linear_in_size",
        paper: "Fig. 5: upload time is linear in file size (small, 100 Mbps)",
        band: "3.4 ≤ t(4 GiB) / t(1 GiB) < 4.6 each; 4 × the size, ± 15 %; every seed: \
               the warmed 1 GiB SMARTH upload reruns identically",
        quantities: &["hdfs_4_over_1", "smarth_4_over_1"],
        measure: |seed| {
            let t = |gib, m| run(rack(Small, gib, Some(100.0), m), seed);
            let runs = [(1, Hdfs), (4, Hdfs), (1, Smarth), (4, Smarth), (1, Smarth)];
            let [h1, h4, s1, s4, again] = runs.map(|(gib, m)| t(gib, m));
            let key = |r: &SimResult| {
                (r.upload_secs, r.first_node_histogram.clone(), r.max_concurrent_pipelines)
            };
            assert_eq!(key(&s1), key(&again), "seed {seed}: a rerun differs");
            vec![h4.upload_secs / h1.upload_secs, s4.upload_secs / s1.upload_secs]
        },
        holds: |q| q.iter().all(|r| (3.4..4.6).contains(r)),
    },
    Claim {
        id: "one_slow_node",
        paper: "Fig. 10: one slow node gives SMARTH 78 %; Algorithm 1 steers first nodes off it",
        band: "gain > 25 % (2 GiB, 50 Mbps); ≤ 1/8 of SMARTH's blocks start on the slow node",
        quantities: &["g", "slow_first_share"],
        measure: |seed| {
            let (h, s) = (secs(slow(2, 1, 50.0, Hdfs), seed), run(slow(2, 1, 50.0, Smarth), seed));
            let slow_first = s.first_node_histogram.get(&0).copied().unwrap_or(0) as f64;
            vec![improvement_percent(h, s.upload_secs), slow_first / s.blocks as f64]
        },
        holds: |q| q[0] > 25.0 && q[1] <= 0.125,
    },
    Claim {
        id: "gain_grows_with_k",
        paper: "Fig. 10: the gain grows with the number k of 50 Mbps nodes (2 GiB)",
        band: "k0 < k2 < k4; the paper's order, no margin",
        quantities: &["g_k0", "g_k2", "g_k4"],
        measure: |seed| [0, 2, 4].map(|k| gain(seed, |m| slow(2, k, 50.0, m))).to_vec(),
        holds: |q| q[0] < q[1] && q[1] < q[2],
    },
    Claim {
        id: "milder_throttle",
        paper: "Fig. 12 vs 10: 3 nodes at 150 Mbps give a smaller gain than at 50 Mbps (2 GiB)",
        band: "g50 > g150; the paper's order, no margin",
        quantities: &["g50", "g150"],
        measure: |seed| [50.0, 150.0].map(|t| gain(seed, |m| slow(2, 3, t, m))).to_vec(),
        holds: |q| q[0] > q[1],
    },
    Claim {
        id: "heterogeneous",
        paper: "Fig. 13: 8 GB on 3 small + 3 medium + 3 large, HDFS 289 s, SMARTH 205 s (41 %)",
        band: "10 ≤ gain < 150 % around 41 %; 100 ≤ HDFS s < 700 around 289 s; every seed: \
               128 blocks",
        quantities: &["g", "hdfs_secs"],
        measure: |seed| {
            let [h, s] = [Hdfs, Smarth].map(|m| run(heterogeneous(ByteSize::gib(8), m), seed));
            assert!([&h, &s].iter().all(|r| r.blocks == 128), "seed {seed}: 8 GiB is 128 blocks");
            vec![improvement_percent(h.upload_secs, s.upload_secs), h.upload_secs]
        },
        holds: |q| (10.0..150.0).contains(&q[0]) && (100.0..700.0).contains(&q[1]),
    },
    Claim {
        id: "warmup",
        paper: "§III-B: a cold client has no speed records; warm records do not slow it",
        band: "warm / cold ≤ 1.02 (1 GiB, 3 nodes at 50 Mbps, 2 warm-ups); 2 % slack",
        quantities: &["warm_over_cold"],
        measure: |seed| {
            let warmed = |n| SimScenario { warmup_uploads: n, ..slow(1, 3, 50.0, Smarth) };
            vec![secs(warmed(2), seed) / secs(warmed(0), seed)]
        },
        holds: |q| q[0] <= 1.02,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// A claim whose predicate is "strictly increasing".
    fn claim(quantities: &'static [&'static str], measure: fn(u64) -> Vec<f64>) -> Claim {
        let (id, paper, band) = ("fake", "", "");
        let holds = |q: &[f64]| q.windows(2).all(|w| w[0] < w[1]);
        Claim { id, paper, band, quantities, measure, holds }
    }

    #[test]
    fn the_predicate_is_judged_on_the_medians() {
        // k0 < k2 < k4 holds on the medians, though three of five seeds break it.
        let c = claim(&["k0", "k2", "k4"], |_| unreachable!());
        let per_seed = [[1., 5., 9.], [2., 6., 4.], [3., 1., 8.], [0., 7., 10.], [4., 8., 7.]];
        let v = judge(&c, &per_seed.map(|q| q.to_vec()));
        assert_eq!((v.holds, v.passing), (true, 2));
        let quantiles = (v.median, v.q10, v.q90);
        assert_eq!(quantiles, (vec![2., 6., 8.], vec![0., 1., 4.], vec![4., 8., 10.]));
        // A failing median is reported with its numbers.
        let v = judge(&c, &[vec![5., 1., 4.], vec![1., 2., 3.], vec![6., 3., 0.]]);
        assert_eq!((v.holds, v.passing), (false, 1));
        let quantiles = (v.median, v.q10, v.q90);
        assert_eq!(quantiles, (vec![5., 2., 3.], vec![1., 1., 0.], vec![6., 3., 4.]));
    }

    #[test]
    fn evaluate_keeps_each_claim_with_its_own_seeds() {
        let claims = [
            claim(&["2006", "seed"], |s| vec![2006.0, s as f64]),
            claim(&["-2006", "-seed"], |s| vec![-2006.0, -(s as f64)]),
        ];
        let [a, b] = &evaluate(&claims, &SEEDS)[..] else { unreachable!() };
        // Nearest rank over twelve: q10, median and q90 are ranks 1, 6 and 10.
        assert_eq!((a.q10[1], a.median[1], a.q90[1]), (2001.0, 2006.0, 2010.0));
        assert_eq!((a.holds, a.passing), (false, 5));
        assert_eq!((b.median[1], b.holds, b.passing), (-2005.0, true, 6));
    }

    #[test]
    #[should_panic(expected = "a claim panicked")]
    fn an_invariant_broken_at_one_seed_fails_the_evaluation() {
        evaluate(&[claim(&["seed"], |s| vec![if s == 2011 { panic!() } else { 0.0 }])], &SEEDS);
    }

    #[test]
    fn every_claim_holds_on_the_seed_ensemble() {
        let failed: Vec<String> = evaluate(&CLAIMS, &SEEDS)
            .into_iter()
            .filter(|v| !v.holds)
            .map(|v| {
                let (c, n) = (v.claim, SEEDS.len());
                let q = (c.quantities, v.median, v.q10, v.q90);
                format!("{} {q:?}, {}/{n} seeds pass; band {}", c.id, v.passing, c.band)
            })
            .collect();
        assert!(failed.is_empty(), "{failed:#?}");
    }
}
