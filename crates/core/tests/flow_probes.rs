//! Every probe of [`InstanceSolver`] against brute force over all vertex
//! subsets.
//!
//! The per-candidate oracle of the other suites builds its network with
//! the same code as the production path, so a wrong network would fool
//! both. Here each probe's answer is checked against the smallest or
//! the largest maximizer of `|Ψ(A)| − ρ|A|` over all `2^n` subsets `A`
//! of a hand-built instance (`n ≤ 9`, random h-sets, repeats allowed).
//! Every probe runs on a fresh solver and, in sequence, on one retained
//! solver whose flow is carried across arbitrary changes of threshold
//! and pins. Thresholds include exact subset densities, where the
//! maximizers tie.

use lhcds_core::compact::{InstanceSolver, LocalInstance};
use lhcds_core::Ratio;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const MAX_N: usize = 9;

/// Per instance: sort keys for each vertex slot; each instance is the
/// `h` vertices with the smallest keys.
type Keys = Vec<Vec<u32>>;

/// Kind, tie, numerator, denominator, a subset mask for the tie and a
/// pin mask.
type RawProbe = (u8, bool, i128, i128, u32, u32);

#[derive(Debug)]
enum Probe {
    Excess(Ratio),
    Derive(Ratio),
    SourceSide(Ratio, u32),
    NextLevel(u32),
    Densest,
}

fn instance(n: usize, h: usize, keys: &Keys) -> LocalInstance {
    let mut full = Vec::new();
    if n >= h {
        for key in keys {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by_key(|&v| (key[v as usize], v));
            let mut members = order[..h].to_vec();
            members.sort_unstable();
            full.extend(members);
        }
    }
    LocalInstance { n, h, full }
}

fn all(inst: &LocalInstance) -> u32 {
    (1u32 << inst.n) - 1
}

/// `|Ψ(A)|`.
fn inside(inst: &LocalInstance, a: u32) -> i128 {
    inst.full
        .chunks_exact(inst.h)
        .filter(|c| c.iter().all(|&v| a >> v & 1 == 1))
        .count() as i128
}

fn size(a: u32) -> i128 {
    a.count_ones() as i128
}

/// `(|Ψ(A)| − ρ|A|) · den(ρ)`: the objective as an exact integer.
fn score(inst: &LocalInstance, a: u32, rho: Ratio) -> i128 {
    inside(inst, a) * rho.den() - rho.num() * size(a)
}

/// The smallest and the largest maximizer of `|Ψ(A)| − ρ|A|` over the
/// subsets with `allowed(A)`: the intersection and the union of all
/// maximizers, each checked to be one.
fn extreme_maximizers(
    inst: &LocalInstance,
    rho: Ratio,
    allowed: impl Fn(u32) -> bool,
) -> (u32, u32) {
    let sets: Vec<u32> = (0..=all(inst)).filter(|&a| allowed(a)).collect();
    let best = sets
        .iter()
        .map(|&a| score(inst, a, rho))
        .max()
        .expect("a feasible set");
    let (lo, hi) = sets
        .iter()
        .filter(|&&a| score(inst, a, rho) == best)
        .fold((all(inst), 0), |(lo, hi), &a| (lo & a, hi | a));
    for extreme in [lo, hi] {
        assert!(allowed(extreme) && score(inst, extreme, rho) == best);
    }
    (lo, hi)
}

fn mask_of(set: &[bool]) -> u32 {
    set.iter()
        .enumerate()
        .filter(|&(_, &b)| b)
        .fold(0, |m, (v, _)| m | 1 << v)
}

fn bools(inst: &LocalInstance, a: u32) -> Vec<bool> {
    (0..inst.n).map(|v| a >> v & 1 == 1).collect()
}

fn resolve(inst: &LocalInstance, &(kind, tie, num, den, subset, pins): &RawProbe) -> Probe {
    let pins = pins & all(inst);
    // a tie: the density of a subset the probe may keep
    let tied = match kind {
        2 => subset & all(inst) & !pins,
        _ => subset & all(inst),
    };
    let thr = if tie && tied != 0 {
        Ratio::new(inside(inst, tied), size(tied))
    } else {
        Ratio::new(num, den)
    };
    match kind {
        0 => Probe::Excess(thr),
        1 => Probe::Derive(thr),
        2 => Probe::SourceSide(thr, pins),
        3 => Probe::NextLevel(pins),
        _ => Probe::Densest,
    }
}

/// The probe's answer by brute force: the threshold it settled at (or
/// was given) and the vertex set it returns.
fn brute_force(inst: &LocalInstance, probe: &Probe) -> Option<(Ratio, u32)> {
    let n = inst.n as i128;
    match *probe {
        Probe::Excess(rho) => Some((rho, extreme_maximizers(inst, rho, |_| true).0)),
        Probe::Derive(rho) => {
            let thr = (rho - Ratio::new(1, n * n)).max(Ratio::zero());
            Some((rho, extreme_maximizers(inst, thr, |_| true).1))
        }
        Probe::SourceSide(thr, sink) => {
            Some((thr, extreme_maximizers(inst, thr, |a| a & sink == 0).1))
        }
        Probe::NextLevel(forced) => {
            let base = inside(inst, forced);
            let rho = (0..=all(inst))
                .filter(|&a| a & forced == forced && a != forced)
                .map(|a| Ratio::new(inside(inst, a) - base, size(a) - size(forced)))
                .max()?;
            if rho == Ratio::zero() {
                return None;
            }
            let (_, hi) = extreme_maximizers(inst, rho, |a| a & forced == forced);
            Some((rho, hi & !forced))
        }
        Probe::Densest => {
            let rho = (1..=all(inst))
                .map(|a| Ratio::new(inside(inst, a), size(a)))
                .max()?;
            if rho == Ratio::zero() {
                return None;
            }
            Some((rho, extreme_maximizers(inst, rho, |_| true).1))
        }
    }
}

fn run(solver: &mut InstanceSolver, probe: &Probe) -> Option<(Ratio, u32)> {
    let inst = solver.instance().clone();
    match *probe {
        Probe::Excess(rho) => Some((rho, mask_of(&solver.max_excess_set(rho)))),
        Probe::Derive(rho) => Some((rho, mask_of(&solver.derive_compact(rho)))),
        Probe::SourceSide(thr, sink) => Some((
            thr,
            mask_of(&solver.max_source_side(thr, &bools(&inst, sink))),
        )),
        Probe::NextLevel(forced) => solver
            .next_density_level(&bools(&inst, forced))
            .map(|(rho, level)| (rho, mask_of(&level))),
        Probe::Densest => solver
            .densest_decomposition()
            .map(|(rho, set)| (rho, mask_of(&set))),
    }
}

fn check(n: usize, h: usize, keys: &Keys, raw: &[RawProbe]) -> Result<(), TestCaseError> {
    let inst = instance(n, h, keys);
    let mut retained = InstanceSolver::new(inst.clone());
    for (i, raw) in raw.iter().enumerate() {
        let probe = resolve(&inst, raw);
        let want = brute_force(&inst, &probe);
        let fresh = run(&mut InstanceSolver::new(inst.clone()), &probe);
        prop_assert_eq!(fresh, want, "fresh solver, {:?} on {:?}", probe, inst);
        let kept = run(&mut retained, &probe);
        prop_assert_eq!(
            kept,
            want,
            "retained solver, probe {}: {:?} on {:?}",
            i,
            probe,
            inst
        );
    }
    Ok(())
}

fn keys() -> impl Strategy<Value = Keys> {
    prop::collection::vec(prop::collection::vec(any::<u32>(), MAX_N), 0..=14)
}

fn probes() -> impl Strategy<Value = Vec<RawProbe>> {
    prop::collection::vec(
        (
            0u8..5,
            any::<bool>(),
            0i128..=24,
            1i128..=9,
            0u32..512,
            0u32..512,
        ),
        1..=8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// h = 2: instances are edges, repeats are parallel edges.
    #[test]
    fn probes_match_brute_force_h2(n in 1usize..=MAX_N, keys in keys(), probes in probes()) {
        check(n, 2, &keys, &probes)?;
    }

    /// h = 3.
    #[test]
    fn probes_match_brute_force_h3(n in 1usize..=MAX_N, keys in keys(), probes in probes()) {
        check(n, 3, &keys, &probes)?;
    }

    /// h = 4: on `n < 4` vertices the instance holds no clique.
    #[test]
    fn probes_match_brute_force_h4(n in 1usize..=MAX_N, keys in keys(), probes in probes()) {
        check(n, 4, &keys, &probes)?;
    }
}
